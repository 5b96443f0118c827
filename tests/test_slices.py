"""Slice-torus restrictions: delta shifts, the even identity, and verdicts."""
import itertools
import sys
from fractions import Fraction as Q

import pytest

from goldiebound import (
    SliceContext,
    build,
    delta,
    even_identity_check,
    irreducibility_verdict,
    orbit_datum,
    principal_in_nu_centralizer,
    restrict_to_tQ,
    rho_zero,
    schur_class_of,
    slice_context,
    underline_character,
    validate_partition,
)
from goldiebound import slices
from goldiebound.errors import DimensionMismatch, NonGenericNu, NotDominant
from goldiebound.rootsys import Root, vdot, vscale

from oracles import (
    dense_delta,
    dense_half_nonzero,
    dense_principal_in_nu_centralizer,
    dense_push_nu,
    dense_restrict,
    dense_rho_zero,
    dense_tQ_embedding,
    enumerate_dominant_in_class,
    vadd,
)


def two_row_context(n, nu=None):
    return slice_context(orbit_datum(validate_partition("sp", (2,) * n)), nu=nu)


def zero_orbit_context(n):
    return slice_context(orbit_datum(validate_partition("sp", (1,) * (2 * n))))


# -- construction and genericity -------------------------------------------------


def test_default_nu_is_staircase():
    ctx = two_row_context(6)
    assert ctx.nu == (Q(3), Q(2), Q(1))
    assert ctx.slice_rank == 3


def test_non_generic_nu_rejected():
    with pytest.raises(NonGenericNu):
        two_row_context(4, nu=(1, 1))  # kills eta_1 - eta_2
    with pytest.raises(NonGenericNu):
        two_row_context(4, nu=(1,))  # wrong length


def test_zero_orbit_has_zero_delta():
    for n in range(2, 6):
        ctx = zero_orbit_context(n)
        assert delta(ctx) == (Q(0),) * n
        assert restrict_to_tQ(ctx.g.rho, ctx) == ctx.g.rho


def _dense_contexts():
    for n in range(2, 17):
        yield two_row_context(n)
    for n in range(2, 9):
        yield zero_orbit_context(n)
    for n in range(4, 7):
        m = n // 2
        for perm in itertools.permutations(range(1, m + 1)):
            for signs in itertools.product((1, -1), repeat=m):
                yield two_row_context(n, nu=tuple(s * v for s, v in zip(signs, perm)))


def test_coordinate_map_matches_dense_embedding():
    # the map's restriction and nu-negative sign equal the dense 0/1 products,
    # root by root
    for ctx in _dense_contexts():
        matrix = dense_tQ_embedding(ctx.orbit.partition)
        nu_t = dense_push_nu(ctx.nu, matrix)
        negative = {alpha.coords for alpha in ctx.negative_system}
        assert len(negative) == len(ctx.negative_system)
        for alpha in ctx.g.all_roots:
            assert restrict_to_tQ(alpha.coords, ctx) == dense_restrict(alpha.coords, matrix)
            assert (alpha.coords in negative) == (vdot(alpha.coords, nu_t) < 0), alpha


def test_slice_context_checks_its_coordinate_map():
    # slot 1 is not a slot of a one-coordinate nu
    datum = orbit_datum(validate_partition("sp", (2, 2)))
    with pytest.raises(DimensionMismatch, match="slot"):
        SliceContext(build([("C", 2)]), datum, (Q(1),), (0, 1))
    # one entry short of the three coordinates of C3
    datum = orbit_datum(validate_partition("sp", (2, 2, 1, 1)))
    with pytest.raises(DimensionMismatch, match="3 coordinates"):
        SliceContext(build([("C", 3)]), datum, (Q(2), Q(1)), (0, 1))


def _hand_built_contexts():
    """The scrambled, full-torus and rank-one-torus contexts of the even-identity
    and principal tests below."""
    for rank, parts, nu, embedding in (
        (4, (2,) * 4, (Q(2), Q(1)), (0, 1, 0, 1)),
        (2, (2, 2), (Q(2), Q(1)), (0, 1)),
        (3, (2, 2, 1, 1), (Q(1),), (0, None, None)),
    ):
        datum = orbit_datum(validate_partition("sp", parts))
        yield SliceContext(build([("C", rank)]), datum, nu, embedding)


def assert_matches_dense_referee(ctx, results):
    d, r, even, principal = results
    assert d == dense_delta(ctx), ctx.orbit.partition.parts
    assert r == dense_rho_zero(ctx), ctx.orbit.partition.parts
    if ctx.orbit.is_even:
        restricted = [restrict_to_tQ(f(ctx), ctx) for f in (dense_delta, dense_half_nonzero)]
        assert even == (restricted[0] == restricted[1]), ctx.orbit.partition.parts
    assert principal == dense_principal_in_nu_centralizer(ctx), ctx.orbit.partition.parts


def _slice_results(ctx):
    even = even_identity_check(ctx) if ctx.orbit.is_even else None
    return delta(ctx), rho_zero(ctx), even, principal_in_nu_centralizer(ctx)


def test_root_sums_match_dense_referee():
    # delta, rho_0, the even identity and the principal test sum and pair
    # through supports; the referee adds dense root vectors
    for ctx in itertools.chain(_dense_contexts(), _hand_built_contexts()):
        assert_matches_dense_referee(ctx, _slice_results(ctx))


def test_slices_read_no_dense_root_coordinates(monkeypatch):
    # Structural guard, with no wall clock: code in slices.py reads
    # Root.coords only to format an error.  Root.negated still reads it from
    # rootsys.py, which is not counted.
    field = Root.coords
    reads = []

    def counted(alpha):
        caller = sys._getframe(1)
        if caller.f_code.co_filename == slices.__file__:
            reads.append(caller.f_lineno)  # the lines of slices.py that read it
        return field.__get__(alpha)

    monkeypatch.setattr(Root, "coords", property(counted))
    results = []
    for parts in ((2,) * 16, (1,) * 16):
        ctx = slice_context(orbit_datum(validate_partition("sp", parts)))
        results.append((ctx, _slice_results(ctx)))
    assert reads == []
    monkeypatch.undo()
    for ctx, result in results:
        assert_matches_dense_referee(ctx, result)


# -- restriction goldens ---------------------------------------------------------


def test_two_row_delta_and_rho_zero_small():
    ctx = two_row_context(5)
    assert delta(ctx) == (Q(-5), Q(0), Q(-4), Q(1), Q(-2))
    assert restrict_to_tQ(delta(ctx), ctx) == (Q(-5), Q(-3))
    assert rho_zero(ctx) == (Q(2), Q(2), Q(1), Q(1), Q(0))
    assert restrict_to_tQ(rho_zero(ctx), ctx) == (Q(4), Q(2))


def test_restricted_rho_and_rho_zero_formulas():
    for n in range(3, 13):
        ctx = two_row_context(n)
        m = n // 2
        rho_restricted = restrict_to_tQ(ctx.g.rho, ctx)
        assert rho_restricted == tuple(Q(2 * n - 1 - 4 * i) for i in range(m))
        two_rho_zero = restrict_to_tQ(vscale(Q(2), rho_zero(ctx)), ctx)
        assert two_rho_zero == tuple(Q(2 * n - 2 - 4 * i) for i in range(m))


def test_half_rho_character_is_half_ones():
    for n in range(3, 13):
        ctx = two_row_context(n)
        lam = vscale(Q(1, 2), ctx.g.rho)
        assert underline_character(lam, ctx) == (Q(1, 2),) * (n // 2)


def test_character_of_rho_plus_delta_vanishes():
    for n in range(3, 8):
        ctx = two_row_context(n)
        lam = vadd(ctx.g.rho, delta(ctx))
        assert underline_character(lam, ctx) == (Q(0),) * (n // 2)


def test_delta_restriction_independent_of_generic_nu():
    for n in (4, 5, 6):
        ctx0 = two_row_context(n)
        baseline = restrict_to_tQ(delta(ctx0), ctx0)
        m = n // 2
        for scale in (1, 3, 7):
            nu = tuple(Q(scale * (m - i) + 1, 2) for i in range(m))
            ctx = two_row_context(n, nu=nu)
            assert restrict_to_tQ(delta(ctx), ctx) == baseline


# -- even identity ----------------------------------------------------------------


def test_even_identity_for_supported_orbits():
    for n in range(2, 7):
        assert even_identity_check(two_row_context(n))
        assert even_identity_check(zero_orbit_context(n))


def test_even_identity_fails_for_scrambled_embedding():
    # interleave the torus embedding (eta_1 -> eps_1 + eps_3) so that it no
    # longer matches the grading; the identity must then break
    datum = orbit_datum(validate_partition("sp", (2,) * 4))
    scrambled = (0, 1, 0, 1)
    ctx = SliceContext(build([("C", 4)]), datum, (Q(2), Q(1)), scrambled)
    assert not even_identity_check(ctx)


# -- principal nilpotent recognition ------------------------------------------------


def test_principal_in_nu_centralizer_for_supported_orbits():
    for n in range(2, 7):
        assert principal_in_nu_centralizer(two_row_context(n))
        assert principal_in_nu_centralizer(zero_orbit_context(n))


def test_principal_check_fails_when_blocks_mismatch():
    # full-torus embedding kills no roots, so the predicted Jordan type is
    # (1, 1, 1, 1), not (2, 2)
    datum = orbit_datum(validate_partition("sp", (2, 2)))
    identity = (0, 1)
    ctx = SliceContext(build([("C", 2)]), datum, (Q(2), Q(1)), identity)
    assert not principal_in_nu_centralizer(ctx)


def test_principal_check_fails_for_higher_rank_kernel():
    # a rank-one torus inside C3 leaves the non-orthogonal pair
    # eps_2 - eps_3, 2 eps_2 in the kernel of restriction
    datum = orbit_datum(validate_partition("sp", (2, 2, 1, 1)))
    line = (0, None, None)
    ctx = SliceContext(build([("C", 3)]), datum, (Q(1),), line)
    assert not principal_in_nu_centralizer(ctx)


# -- irreducibility verdicts ---------------------------------------------------------


def test_verdict_irreducible_spinor():
    ctx = two_row_context(5)
    q = build([("B", 2)])
    verdict = irreducibility_verdict(ctx, (Q(1, 2), Q(1, 2)), q, True)
    assert verdict.irreducible
    assert verdict.highest_weight == (Q(1, 2), Q(1, 2))
    assert verdict.reason is None


def test_verdict_dimension_failure_comes_first():
    ctx = two_row_context(2)  # also has an O(2) factor
    q = build([("A", 1)])
    verdict = irreducibility_verdict(ctx, (Q(1, 2), Q(-1, 2)), q, False)
    assert not verdict.irreducible
    assert verdict.reason.startswith("(i)")


def test_verdict_o2_failure():
    ctx = two_row_context(2)
    q = build([("A", 1)])
    verdict = irreducibility_verdict(ctx, (Q(1, 2), Q(-1, 2)), q, True)
    assert not verdict.irreducible
    assert verdict.reason.startswith("(ii)")


def test_verdict_non_minuscule_failure():
    ctx = two_row_context(5)  # reductive centralizer O(5): no O(2)
    q = build([("B", 2)])
    verdict = irreducibility_verdict(ctx, (Q(1), Q(0)), q, True)
    assert not verdict.irreducible
    assert verdict.reason.startswith("(iii)")


def test_verdict_requires_dominant_weight():
    ctx = two_row_context(5)
    q = build([("B", 2)])
    with pytest.raises(NotDominant):
        irreducibility_verdict(ctx, (Q(0), Q(1)), q, True)


def test_spinor_weight_unique_minuscule_in_its_class():
    for factors, rank in [((("B", 2),), 2), ((("B", 3),), 3), ((("D", 4),), 4)]:
        q = build(list(factors))
        spinor = (Q(1, 2),) * rank
        cls = schur_class_of(q, spinor)
        minuscule = [
            w for w in enumerate_dominant_in_class(q, cls, 3) if q.is_minuscule(w)
        ]
        assert minuscule == [spinor]
