"""Acceptance gate: one pass/fail line per criterion, exact arithmetic throughout.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import functools
import itertools
import math
import random
import time

from fractions import Fraction as Q

from goldiebound import (
    SliceContext,
    build,
    d_psi,
    even_identity_check,
    integral_subsystem,
    orbit_datum,
    premet_example,
    reductive_centralizer,
    restrict_to_tQ,
    rho_zero,
    schur_class_of,
    slice_context,
    tQ_embedding,
    underline_character,
    validate_partition,
    weyl_dim,
)
from goldiebound.errors import UnsupportedOrbit
from goldiebound.nilorbit import centralizer_dim
from goldiebound.pipeline import normalize_factors
from goldiebound.rootsys import vscale

from oracles import (
    brute_orbit,
    centralizer_dims_by_matrices,
    enumerated_d_psi,
    freudenthal_dim,
    scan_dominant_in_class,
)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn()
            except BaseException as exc:
                print(f"criterion {number}: FAIL - {description} ({exc.__class__.__name__}: {exc})")
                raise
            line = f"criterion {number}: PASS - {description}"
            if detail:
                line += f" [{detail}]"
            print(line)

        return wrapper

    return decorate


@criterion(1, "d(psi) of the B_n spinor class is 2^n, certified, n = 2..6")
def test_criterion_1_spinor_index():
    worst = 0.0
    for n in range(2, 7):
        rs = build([("B", n)])
        spinor = (Q(1, 2),) * n
        started = time.perf_counter()
        result = d_psi(rs, schur_class_of(rs, spinor))
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        assert result.value == 2**n, (n, result)
        assert result.status == "certified", (n, result)
        assert elapsed < 5.0, (n, elapsed)
    return f"max {worst:.2f}s per n"


@criterion(2, "d(psi) of the D_n half-spinor class is 2^(n-1), certified, n = 3..6")
def test_criterion_2_half_spinor_index():
    worst = 0.0
    for n in range(3, 7):
        rs = build([("D", n)])
        half_spinor = (Q(1, 2),) * n
        started = time.perf_counter()
        result = d_psi(rs, schur_class_of(rs, half_spinor))
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        assert result.value == 2 ** (n - 1), (n, result)
        assert result.status == "certified", (n, result)
        assert elapsed < 5.0, (n, elapsed)
    return f"max {worst:.2f}s per n"


@criterion(3, "for A_3 the class of eps_1 + eps_2 has d(psi) = 2 < 6 = dim of the class rep")
def test_criterion_3_two_form_class_not_divisible():
    rs = build([("A", 3)])
    lam = (Q(1), Q(1), Q(0), Q(0))
    result = d_psi(rs, schur_class_of(rs, lam))
    assert weyl_dim(rs, lam) == 6
    assert result.value == 2
    assert result.value < 6
    # independent oracle: gcd of Freudenthal dimensions over a box scan of the class
    dims = [freudenthal_dim(rs, w) for w in scan_dominant_in_class("A", 3, lam, 4)]
    assert math.gcd(*dims) == result.value
    return f"gcd over {len(dims)} oracle weights = 2"


@criterion(4, "roots of B_n pairing integrally with rho(C_n)/2 span dim n^2, type B x D, n = 3..10")
def test_criterion_4_integral_subsystem():
    worst = 0.0
    for n in range(3, 11):
        ambient = build([("B", n)])
        lam = vscale(Q(1, 2), build([("C", n)]).rho)
        started = time.perf_counter()
        sub = integral_subsystem(ambient, lam)
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        assert sub.dim == n * n, (n, sub.dim)
        expected = normalize_factors((("B", n // 2), ("D", (n + 1) // 2)))
        assert sub.type_guess is not None, n
        assert normalize_factors(sub.type_guess.factors) == expected, (n, sub.type_guess)
        assert elapsed < 1.0, (n, elapsed)
    return f"max {worst:.2f}s per n"


@criterion(5, "slice restrictions of rho, 2 rho_0 and the rho/2 character match closed forms, n = 3..12")
def test_criterion_5_slice_characters():
    worst = 0.0
    for n in range(3, 13):
        started = time.perf_counter()
        ctx = slice_context(orbit_datum(validate_partition("sp", (2,) * n)))
        m = n // 2
        assert restrict_to_tQ(ctx.g.rho, ctx) == tuple(
            Q(2 * n - 1 - 4 * i) for i in range(m)
        ), n
        assert restrict_to_tQ(vscale(Q(2), rho_zero(ctx)), ctx) == tuple(
            Q(2 * n - 2 - 4 * i) for i in range(m)
        ), n
        half_rho = vscale(Q(1, 2), ctx.g.rho)
        assert underline_character(half_rho, ctx) == (Q(1, 2),) * m, n
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        assert elapsed < 1.0, (n, elapsed)
    return f"max {worst:.2f}s per n"


@criterion(6, "sp two-row orbit: centralizer dim n^2 and Q = O(n) with two components, n = 2..12")
def test_criterion_6_orbit_data():
    for n in range(2, 13):
        p = validate_partition("sp", (2,) * n)
        assert centralizer_dim(p) == n * n, n
        factors, order = reductive_centralizer(p)
        assert factors == (("O", n),), n
        assert order == 2, n
    # matrix-kernel oracle for every valid sp/so partition with N <= 8
    checked = 0
    for total in range(2, 9):
        for family in ("sp", "so"):
            if family == "sp" and total % 2 == 1:
                continue
            for parts in _valid_partitions(family, total):
                _, dim_z, _ = centralizer_dims_by_matrices(family, parts)
                assert centralizer_dim(validate_partition(family, parts)) == dim_z
                checked += 1
    return f"centralizers cross-checked against matrices for {checked} partitions"


@criterion(7, "worked example: Grk bound 1, codim 2^(n-1), component-orbit 2 - (n mod 2), n = 3..12")
def test_criterion_7_end_to_end_reports():
    worst = 0.0
    for n in range(3, 13):
        started = time.perf_counter()
        report = premet_example(n)
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        assert report.grk_bound == 1, n
        assert report.ideal_codim == 2 ** (n - 1), n
        assert report.a_orbit_size == (2 if n % 2 == 0 else 1), n
        assert all(ok for _, ok, _ in report.verdicts), n
        assert elapsed < 10.0, (n, elapsed)
    return f"max {worst:.2f}s per n"


@criterion(8, "property suites: dimension integrality, orbit counting, gcd monotonicity, "
             "minuscule orbits, slice identity with negative control")
def test_criterion_8_property_suites():
    # Weyl dimension integrality on 1000 seeded random dominant weights, rank <= 6
    systems = [
        build([("A", 2)]),
        build([("A", 5)]),
        build([("B", 2)]),
        build([("B", 4)]),
        build([("C", 3)]),
        build([("C", 6)]),
        build([("D", 4)]),
        build([("D", 5)]),
        build([("A", 2), ("C", 2)]),
        build([("B", 2), ("D", 3)]),
    ]
    rng = random.Random(20250825)
    for _ in range(100):
        for rs in systems:
            coeffs = [rng.randrange(0, 4) for _ in range(rs.rank)]
            lam = rs.from_fundamental(coeffs)
            dim = weyl_dim(rs, lam)
            assert isinstance(dim, int) and dim >= 1

    # orbit-stabilizer identity against brute-force reflection groups, rank <= 4
    small = [build([f]) for f in (("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4))]
    for rs in small:
        for coeffs in itertools.product((0, 1), repeat=rs.rank):
            lam = rs.from_fundamental(coeffs)
            assert rs.orbit_size(lam) == len(brute_orbit(rs, lam))

    # the enumerated d(psi) never increases as the enumeration bound grows
    a3 = build([("A", 3)])
    cls = schur_class_of(a3, (Q(1), Q(1), Q(0), Q(0)))
    values = [enumerated_d_psi(a3, cls, bound=b).value for b in range(5, 10)]
    assert all(later <= earlier for earlier, later in zip(values, values[1:]))
    assert all(earlier % later == 0 for earlier, later in zip(values, values[1:]))

    # minuscule exactly when the orbit exhausts the module
    for rs in (build([("A", 3)]), build([("B", 3)]), build([("C", 2)]), build([("D", 4)])):
        for coeffs in itertools.product((0, 1, 2), repeat=rs.rank):
            lam = rs.from_fundamental(coeffs)
            if all(c == 0 for c in lam):
                continue
            assert rs.is_minuscule(lam) == (weyl_dim(rs, lam) == rs.orbit_size(lam))

    # the even-orbit delta identity holds on every slice-embeddable even sp
    # orbit with N <= 12, and breaks under a perturbed embedding
    verified = 0
    out_of_scope = 0
    for total in range(4, 13, 2):
        for parts in _valid_partitions("sp", total):
            p = validate_partition("sp", parts)
            datum = orbit_datum(p)
            if not datum.is_even:
                continue
            try:
                tQ_embedding(p)
            except UnsupportedOrbit:
                out_of_scope += 1
                continue
            assert even_identity_check(slice_context(datum)), parts
            verified += 1
    assert verified == 10  # (2^n) and (1^(2n)) for n = 2..6
    datum = orbit_datum(validate_partition("sp", (2,) * 4))
    scrambled = (0, 1, 0, 1)
    ctx = SliceContext(build([("C", 4)]), datum, (Q(2), Q(1)), scrambled)
    assert not even_identity_check(ctx)
    return (
        f"1000 dimensions integral; {verified} even orbits verified"
        f" ({out_of_scope} without a slice embedding skipped); control breaks the identity"
    )


def _valid_partitions(family, total):
    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    out = []
    for parts in gen(total, total):
        if family == "sp" and any(
            k % 2 == 1 and parts.count(k) % 2 == 1 for k in set(parts)
        ):
            continue
        if family == "so" and any(
            k % 2 == 0 and parts.count(k) % 2 == 1 for k in set(parts)
        ):
            continue
        out.append(parts)
    return out
