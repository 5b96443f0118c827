"""The sp_2n worked example end to end, plus the bound arithmetic."""
import functools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldiebound import (
    BoundReport,
    build,
    goldie_bound,
    normalize_factors,
    premet_example,
    premet_table,
)
from goldiebound.errors import NonGenericNu, NotDivisible, PipelineError, UnsupportedType
from goldiebound.repdim import DPsiResult


def test_goldie_bound_arithmetic():
    assert goldie_bound(4, 4) == 1
    assert goldie_bound(6, 2) == 3
    with pytest.raises(NotDivisible):
        goldie_bound(6, 4)
    with pytest.raises(NotDivisible):
        goldie_bound(6, 0)


def test_normalize_factors_expands_aliases():
    assert normalize_factors([("B", 1)]) == (("A", 1),)
    assert normalize_factors([("D", 2), ("C", 3)]) == (("A", 1), ("A", 1), ("C", 3))
    assert normalize_factors([("D", 3)]) == (("A", 3),)
    assert normalize_factors([("D", 1), ("B", 2)]) == (("B", 2),)


def test_premet_example_n5_in_full():
    report = premet_example(5)
    assert report.n == 5
    assert report.g.describe() == "C5"
    assert report.partition.parts == (2,) * 5
    assert report.lam == (Q(5, 2), Q(2), Q(3, 2), Q(1), Q(1, 2))  # rho(C5)/2
    assert report.q.describe() == "B2"
    assert report.omega == (Q(1, 2), Q(1, 2))
    assert report.omega_eta == (Q(1, 2), Q(1, 2))
    assert report.dim_v == 4
    assert report.d_v.value == 4
    assert report.d_v.status == "certified"
    assert report.grk_bound == 1
    assert report.a_orbit_size == 1
    assert report.ideal_codim == 16
    assert report.tightness.startswith("exact")
    assert all(ok for _, ok, _ in report.verdicts)
    assert [name for name, _, _ in report.verdicts] == [
        "integral subsystem dimension",
        "integral subsystem type",
        "reductive centralizer",
        "even identity",
        "restricted character",
        "irreducibility over Q",
        "class divisor",
    ]


def test_premet_example_small_n_values():
    r3 = premet_example(3)
    assert (r3.dim_v, r3.d_v.value, r3.grk_bound) == (2, 2, 1)
    assert r3.d_v.status == "certified"
    assert r3.q.describe() == "A1"
    assert r3.omega == (Q(1, 2), Q(-1, 2))
    assert (r3.a_orbit_size, r3.ideal_codim) == (1, 4)

    r4 = premet_example(4)
    assert (r4.dim_v, r4.d_v.value, r4.grk_bound) == (2, 2, 1)
    assert r4.q.describe() == "A1xA1"
    assert r4.omega == (Q(1, 2), Q(-1, 2), Q(0), Q(0))
    assert (r4.a_orbit_size, r4.ideal_codim) == (2, 8)

    r6 = premet_example(6)
    assert (r6.dim_v, r6.d_v.value, r6.grk_bound) == (4, 4, 1)
    assert r6.d_v.status == "certified"
    assert r6.q.describe() == "D3"
    assert (r6.a_orbit_size, r6.ideal_codim) == (2, 32)


def test_premet_family_invariants():
    for n in range(3, 13):
        report = premet_example(n)
        assert report.grk_bound == 1, n
        assert report.ideal_codim == 2 ** (n - 1), n
        assert report.a_orbit_size == (2 if n % 2 == 0 else 1), n
        expected_dim = 2 ** (n // 2) if n % 2 == 1 else 2 ** (n // 2 - 1)
        assert report.dim_v == expected_dim, n
        assert report.d_v.value == expected_dim, n
        assert report.dim_v % report.d_v.value == 0
        assert all(ok for _, ok, _ in report.verdicts), n


def test_premet_rejects_small_n():
    for n in (0, 1, 2):
        with pytest.raises(UnsupportedType):
            premet_example(n)


def test_premet_table():
    reports = premet_table(3, 6)
    assert [r.n for r in reports] == [3, 4, 5, 6]
    assert [r.ideal_codim for r in reports] == [4, 8, 16, 32]
    with pytest.raises(UnsupportedType):
        premet_table(2, 5)
    with pytest.raises(TypeError):  # a nu has n // 2 coordinates, so none fits a range of n
        premet_table(3, 5, nu=(1,))
    with pytest.raises(UnsupportedType):
        premet_table(5, 4)


def test_premet_custom_generic_nu_agrees():
    default = premet_example(5)
    shifted = premet_example(5, nu=(Q(7, 2), Q(1, 2)))
    assert shifted.omega_eta == default.omega_eta
    assert shifted.grk_bound == default.grk_bound


@functools.cache
def _default_values(n):
    report = premet_example(n)
    return report.grk_bound, report.dim_v, report.d_v.value


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_premet_generic_nu_agrees_or_is_rejected_by_chamber(data):
    # Distinct nonzero absolute values make nu generic.  Half the draws are
    # dominant; the rest are signed permutations of such a nu.
    n = data.draw(st.integers(3, 7))
    m = n // 2
    sizes = data.draw(st.lists(st.integers(1, m + 2), min_size=m, max_size=m, unique=True))
    if data.draw(st.booleans()):
        nu = tuple(sorted(sizes, reverse=True))
    else:
        nu = tuple(s * data.draw(st.sampled_from((1, -1))) for s in sizes)
    if all(a > b for a, b in zip(nu, nu[1:] + (0,))):
        report = premet_example(n, nu=nu)
        assert (report.grk_bound, report.dim_v, report.d_v.value) == _default_values(n)
    else:
        with pytest.raises(NonGenericNu, match="not in the dominant chamber"):
            premet_example(n, nu=nu)


def test_bound_report_rejects_inconsistent_fields():
    good = premet_example(3)
    bad_d = DPsiResult(value=3, status="stabilized", witnesses=(), bound_used=8)
    with pytest.raises(NotDivisible):
        BoundReport(
            n=good.n,
            g=good.g,
            partition=good.partition,
            lam=good.lam,
            q=good.q,
            omega=good.omega,
            omega_eta=good.omega_eta,
            dim_v=good.dim_v,
            d_v=bad_d,
            grk_bound=good.grk_bound,
            a_orbit_size=good.a_orbit_size,
            ideal_codim=good.ideal_codim,
            tightness=good.tightness,
            verdicts=good.verdicts,
        )


def test_pipeline_error_on_forced_failure():
    # an integral-subsystem check cannot fail for valid n, but a bogus nu
    # that is non-generic surfaces as the dedicated error instead
    with pytest.raises(NonGenericNu):
        premet_example(4, nu=(1, 1))


def test_pipeline_error_formatting():
    err = PipelineError("even identity", "identity failed")
    assert str(err) == "even identity: identity failed"
    assert err.step == "even identity"
