"""Weyl dimensions, class enumeration, and the gcd invariant d(psi)."""
import inspect
import itertools
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldiebound import (
    build,
    d_psi,
    orbit_certificate,
    premet_example,
    repdim,
    schur_class_of,
    weyl_dim,
)
from goldiebound.errors import InvariantViolation, NotDominant, NotInWeightLattice
from goldiebound.rootsys import RootSystem

from oracles import (
    brute_orbit,
    enumerate_dominant_in_class,
    enumerated_d_psi,
    fraction_weyl_dim,
    freudenthal_dim,
    scan_dominant_in_class,
    scan_dominant_in_product_class,
    trivial_class,
    walk_certificate,
)


def half(*values):
    return tuple(Q(v, 2) for v in values)


# -- weyl_dim -------------------------------------------------------------------


def test_weyl_dim_known_values():
    assert weyl_dim(build("B", 3), half(1, 1, 1)) == 8
    assert weyl_dim(build("C", 2), (2, 0)) == 10  # the adjoint module
    assert weyl_dim(build("C", 3), (1, 0, 0)) == 6
    assert weyl_dim(build("A", 3), (1, 1, 0, 0)) == 6
    assert weyl_dim(build("D", 4), half(1, 1, 1, 1)) == 8
    assert weyl_dim(build("B", 2), (0, 0)) == 1
    assert weyl_dim(build([("A", 1), ("A", 1)]), half(1, -1, 0, 0)) == 2


def test_weyl_dim_errors():
    with pytest.raises(NotDominant):
        weyl_dim(build("B", 2), (-1, 0))
    with pytest.raises(NotInWeightLattice):
        weyl_dim(build("C", 2), half(1, 1))


def test_weyl_dim_matches_freudenthal():
    cases = [
        (build("A", 2), (2, 1, 0)),
        (build("A", 2), (3, 0, 0)),
        (build("B", 2), (2, 1)),
        (build("B", 3), half(3, 1, 1)),
        (build("C", 3), (1, 1, 1)),
        (build("D", 3), (2, 1, 1)),
        (build([("A", 1), ("B", 2)]), (1, 0, 1, 1)),
    ]
    for rs, lam in cases:
        assert weyl_dim(rs, lam) == freudenthal_dim(rs, lam), (rs.describe(), lam)


REFEREE_SYSTEMS = (
    [build("A", n) for n in range(1, 9)]
    + [build(family, n) for family in ("B", "C") for n in range(2, 9)]
    + [build("D", n) for n in range(3, 9)]
    + [
        build([("A", 2), ("D", 4)]),
        build([("B", 3), ("C", 2)]),
        build([("A", 1), ("A", 1)]),
        build([("C", 3), ("D", 4)]),
        build([("D", 5), ("B", 2)]),
    ]
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_weyl_dim_matches_fraction_product(data):
    rs = data.draw(st.sampled_from(REFEREE_SYSTEMS), label="root system")
    coeffs = data.draw(st.lists(st.integers(0, 3), min_size=rs.rank, max_size=rs.rank))
    lam = rs.from_fundamental(coeffs)
    assert weyl_dim(rs, lam) == fraction_weyl_dim(rs, lam)


@pytest.mark.parametrize(
    "family,rank,coeffs",
    [("A", 35, {0: 1, 17: 1, 34: 2}), ("D", 30, {0: 1, 14: 1, 29: 2})],
    ids=["A35", "D30"],
)
def test_weyl_dim_matches_fraction_product_at_high_rank(family, rank, coeffs):
    rs = build(family, rank)
    lam = rs.from_fundamental([coeffs.get(i, 0) for i in range(rank)])
    assert weyl_dim(rs, lam) == fraction_weyl_dim(rs, lam)


def test_weyl_dim_integrality_on_random_dominant_weights():
    rng = random.Random(20250825)
    systems = [
        build("A", 1),
        build("A", 4),
        build("A", 6),
        build("B", 3),
        build("B", 6),
        build("C", 4),
        build("C", 6),
        build("D", 4),
        build("D", 6),
        build([("B", 2), ("D", 3)]),
    ]
    for _ in range(1000):
        rs = rng.choice(systems)
        coeffs = [rng.randint(0, 5) for _ in range(rs.rank)]
        dim = weyl_dim(rs, rs.from_fundamental(coeffs))  # asserts exactness inside
        assert dim >= 1


def test_minuscule_weights_have_orbit_sized_modules():
    cases = [
        (build("A", 3), [(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)]),
        (build("B", 3), [half(1, 1, 1)]),
        (build("C", 3), [(1, 0, 0)]),
        (build("D", 4), [(1, 0, 0, 0), half(1, 1, 1, 1), half(1, 1, 1, -1)]),
    ]
    for rs, weights in cases:
        for w in weights:
            assert rs.is_minuscule(w)
            assert weyl_dim(rs, w) == rs.orbit_size(w)


def test_minuscule_iff_dim_equals_orbit_size():
    import itertools

    for rs in [build("A", 2), build("B", 2), build("C", 3), build("D", 4)]:
        for coeffs in itertools.product(range(3), repeat=rs.rank):
            w = rs.from_fundamental(coeffs)
            assert rs.is_minuscule(w) == (weyl_dim(rs, w) == rs.orbit_size(w))


# -- enumeration ------------------------------------------------------------------


def test_enumerate_trivial_class_bound_zero():
    rs = build("B", 2)
    assert enumerate_dominant_in_class(rs, trivial_class(rs), 0) == [(Q(0), Q(0))]


def test_enumerate_b2_spinor_class():
    rs = build("B", 2)
    psi = schur_class_of(rs, half(1, 1))
    assert enumerate_dominant_in_class(rs, psi, 2) == [half(1, 1), half(3, 1)]


def test_enumerate_matches_box_scan():
    cases = [
        ("B", 2, half(1, 1), 3),
        ("B", 3, half(1, 1, 1), 3),
        ("C", 2, (1, 0), 4),
        ("C", 2, (0, 0), 3),
        ("D", 3, half(1, 1, 1), 3),
        ("D", 3, (1, 0, 0), 3),
        ("A", 2, (1, 0, 0), 4),
    ]
    for family, rank, rep_coords, bound in cases:
        rs = build(family, rank)
        psi = schur_class_of(rs, rep_coords)
        ours = enumerate_dominant_in_class(rs, psi, bound)
        scanned = scan_dominant_in_class(family, rank, psi.rep, bound)
        assert sorted(ours) == sorted(scanned), (family, rank, bound)


def test_enumerate_is_graded_by_level():
    rs = build("B", 3)
    psi = schur_class_of(rs, half(1, 1, 1))
    listed = enumerate_dominant_in_class(rs, psi, 4)
    levels = [sum(rs.fundamental_coefficients(w)) for w in listed]
    assert levels == sorted(levels)
    assert all(lv <= 4 for lv in levels)


# -- certificates ------------------------------------------------------------------


def test_orbit_certificate_values():
    b4 = build("B", 4)
    assert orbit_certificate(b4, schur_class_of(b4, half(1, 1, 1, 1))) == 16
    d4 = build("D", 4)
    assert orbit_certificate(d4, schur_class_of(d4, half(1, 1, 1, 1))) == 8
    assert orbit_certificate(d4, schur_class_of(d4, half(1, 1, 1, -1))) == 8
    assert orbit_certificate(d4, schur_class_of(d4, (1, 0, 0, 0))) == 8
    c3 = build("C", 3)
    assert orbit_certificate(c3, schur_class_of(c3, (1, 0, 0))) == 2
    a1 = build("A", 1)
    assert orbit_certificate(a1, schur_class_of(a1, (1, 0))) == 2


def closed_form(family, rank, k):
    """d(psi) for the class of omega_k (k = 0: the trivial class), for the
    classes used below.

    These are the maximal Tits-algebra indexes of Merkurjev, "Maximal indexes
    of Tits algebras", Doc. Math. 1 (1996): (n+1)/gcd(n+1, k) for A_n, 2^n for
    the spin class of B_n, 2^(n-1) for the half-spin classes of D_n, and
    2^(v2(n)+1) for the class of omega_1 of C_n and of D_n.
    """
    if k == 0:
        return 1
    if family == "A":
        return (rank + 1) // math.gcd(rank + 1, k)
    if family == "B":
        return 2**rank
    if family == "D" and k >= rank - 1:
        return 2 ** (rank - 1)
    return 2 * (rank & -rank)


def omega(rs, k):
    return rs.from_fundamental([int(i == k - 1) for i in range(rs.rank)])


def test_orbit_certificate_matches_closed_forms():
    cases = [("A", n, range(n + 1)) for n in range(1, 8)]
    cases += [("D", n, (0, 1, n - 1, n)) for n in range(3, 9)]
    cases += [("B", n, (n,)) for n in range(2, 8)]
    cases += [("C", n, (1,)) for n in range(2, 9)]
    for family, rank, classes in cases:
        rs = build(family, rank)
        for k in classes:
            psi = schur_class_of(rs, omega(rs, k))
            assert orbit_certificate(rs, psi) == closed_form(family, rank, k), (family, rank, k)
    a2d4 = build([("A", 2), ("D", 4)])
    for ka in range(3):
        for kd in (0, 1, 3, 4):
            coeffs = [int(i == ka - 1) for i in range(2)] + [int(i == kd - 1) for i in range(4)]
            psi = schur_class_of(a2d4, a2d4.from_fundamental(coeffs))
            expected = closed_form("A", 2, ka) * closed_form("D", 4, kd)
            assert orbit_certificate(a2d4, psi) == expected, (ka, kd)


def test_orbit_certificate_is_gcd_of_brute_orbit_sizes():
    # A dominant weight with support K lies in psi for some c_i >= 1 when the
    # classes of K generate a subgroup H containing psi, and then for some
    # c_i <= 1 + (|H| - 1) in total: every element of H is a sum of at most
    # |H| - 1 generators.  So level rank + |P/Q| - 1 reaches every stabilizer.
    order = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2, "D": lambda n: 4}
    systems = [build(f, n) for f, n in (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3))]
    systems += [build(f, n) for f, n in (("C", 2), ("C", 3), ("D", 3))]
    # The products give a non-cyclic P/Q; D4 is left out as its box scan takes seconds.
    systems += [build([("A", 1), ("A", 1)]), build([("A", 1), ("B", 2)])]
    for rs in systems:
        bounds = [rank + order[family](rank) - 1 for family, rank in rs.factors]
        classes = {schur_class_of(rs, rs.from_fundamental(c)) for c in _unit_and_zero_tuples(rs.rank)}
        for psi in classes:
            members = scan_dominant_in_product_class(rs, psi.rep, bounds)
            oracle = 0
            for mu in members:
                oracle = math.gcd(oracle, len(brute_orbit(rs, mu)))
            assert orbit_certificate(rs, psi) == oracle, (rs.describe(), psi.rep)


def _unit_and_zero_tuples(rank):
    yield (0,) * rank
    for k in range(rank):
        yield tuple(int(i == k) for i in range(rank))


def test_orbit_certificate_matches_support_walk_on_every_class():
    # Every class of a simple factor holds 0 or a fundamental weight, so the
    # products of those cover every class of a product.
    systems = [build("A", n) for n in range(1, 13)]
    systems += [build(family, n) for family in "BC" for n in range(2, 13)]
    systems += [build("D", n) for n in range(3, 13)] + [build([("A", 2), ("D", 4)])]
    for rs in systems:
        per_factor = [_unit_and_zero_tuples(rank) for _, rank in rs.factors]
        for parts in itertools.product(*per_factor):
            psi = schur_class_of(rs, rs.from_fundamental(sum(parts, ())))
            assert orbit_certificate(rs, psi) == walk_certificate(rs, psi), (rs, psi.residue)


# -- d_psi --------------------------------------------------------------------------


def test_d_psi_spinor_classes_certified():
    for n in range(2, 7):
        rs = build("B", n)
        result = d_psi(rs, schur_class_of(rs, half(*(1,) * n)))
        assert result.value == 2**n
        assert result.status == "certified"
    for n in range(3, 7):
        rs = build("D", n)
        result = d_psi(rs, schur_class_of(rs, half(*(1,) * n)))
        assert result.value == 2 ** (n - 1)
        assert result.status == "certified"


def test_d_psi_trivial_class_is_one():
    rs = build("C", 3)
    result = d_psi(rs, trivial_class(rs))
    assert result.value == 1 and result.status == "certified"


def test_d_psi_a3_two_row_class():
    rs = build("A", 3)
    psi = schur_class_of(rs, (1, 1, 0, 0))
    result = d_psi(rs, psi)
    assert result.value == 2
    assert result.status == "certified"
    assert result.value < weyl_dim(rs, (1, 1, 0, 0))
    # witnesses record the strict drops of the running gcd, which it divides
    assert all(dim % result.value == 0 for _, dim in result.witnesses)


def test_d_psi_a3_matches_independent_gcd_oracle():
    import math

    rs = build("A", 3)
    psi = schur_class_of(rs, (1, 1, 0, 0))
    scanned = scan_dominant_in_class("A", 3, psi.rep, 4)
    oracle = 0
    for w in scanned:
        oracle = math.gcd(oracle, freudenthal_dim(rs, w))
    assert oracle == 2
    assert d_psi(rs, psi).value == oracle


def test_d_psi_monotone_in_bound():
    # The enumerating referee's gcd only falls, by divisors, as its bound
    # grows, and it settles on the closed-form value.
    rs = build("A", 3)
    psi = schur_class_of(rs, (1, 1, 0, 0))
    values = [enumerated_d_psi(rs, psi, bound=bound).value for bound in range(1, 10)]
    assert values[0] == 6 and values[-1] == 2 == d_psi(rs, psi).value
    assert all(earlier % later == 0 for earlier, later in zip(values, values[1:]))
    rs = build("B", 3)
    psi = schur_class_of(rs, half(1, 1, 1))
    assert enumerated_d_psi(rs, psi, bound=1).value == enumerated_d_psi(rs, psi, bound=6).value


def test_d_psi_divides_later_dimensions():
    rs = build("C", 2)
    psi = schur_class_of(rs, (1, 0))
    result = d_psi(rs, psi)
    for w in enumerate_dominant_in_class(rs, psi, 10):
        assert weyl_dim(rs, w) % result.value == 0


def test_d_psi_takes_no_budget():
    assert list(inspect.signature(d_psi).parameters) == ["rs", "psi"]
    assert list(inspect.signature(premet_example).parameters) == ["n", "nu"]


def every_class(rs):
    """One SchurClass per class of rs: every class of a simple factor holds 0
    or a fundamental weight, so their products reach every class."""
    per_factor = [_unit_and_zero_tuples(rank) for _, rank in rs.factors]
    classes = {}
    for parts in itertools.product(*per_factor):
        psi = schur_class_of(rs, rs.from_fundamental(sum(parts, ())))
        classes.setdefault(psi.residue, psi)
    return list(classes.values())


def assert_witnesses_prove(rs, psi, result):
    """Each witness is a dominant member of psi with its stated dimension and
    strictly lowers the gcd, which ends at the value and the certificate."""
    running = 0
    for weight, dim in result.witnesses:
        assert schur_class_of(rs, weight) == psi and rs.is_dominant(weight)
        assert weyl_dim(rs, weight) == dim
        assert math.gcd(running, dim) != running
        running = math.gcd(running, dim)
    assert running == result.value == orbit_certificate(rs, psi)
    assert result.status == "certified"
    assert result.bound_used == sum(rs.fundamental_coefficients(result.witnesses[-1][0]))


def test_d_psi_matches_enumerating_referee():
    systems = [build("A", n) for n in range(1, 8)]
    systems += [build(family, n) for family in "BC" for n in range(2, 7)]
    systems += [build("D", n) for n in range(3, 7)] + [build([("A", 2), ("D", 4)])]
    for rs in systems:
        for psi in every_class(rs):
            referee = enumerated_d_psi(rs, psi)
            assert referee.status == "certified", (rs.describe(), psi.residue)
            result = d_psi(rs, psi)
            assert result.value == referee.value, (rs.describe(), psi.residue)
            assert_witnesses_prove(rs, psi, result)


def systems_up_to_rank_30():
    yield from (build("A", n) for n in range(1, 31))
    yield from (build(family, n) for family in "BC" for n in range(2, 31))
    yield from (build("D", n) for n in range(3, 31))


def rank_60_classes():
    """Every class of B60, C60 and D60, and the classes k = 1, 30, 31, 60 of A60."""
    for family in "ABCD":
        rs = build(family, 60)
        for psi in every_class(rs):
            if family != "A" or psi.residue[0][0] in (1, 30, 31, 60):
                yield rs, psi


def test_d_psi_certifies_every_class_up_to_rank_30():
    for rs in systems_up_to_rank_30():
        for psi in every_class(rs):
            result = d_psi(rs, psi)  # raises InvariantViolation if the witnesses miss
            assert result.value == orbit_certificate(rs, psi), (rs.describe(), psi.residue)


def test_d_psi_certifies_every_class_of_a5_cubed():
    # The level enumeration ran out of budget on seven of these classes.
    rs = build([("A", 5)] * 3)
    for psi in every_class(rs):
        assert_witnesses_prove(rs, psi, d_psi(rs, psi))


def test_d_psi_misses_without_2_omega_n_on_odd_d(monkeypatch):
    # Negative control: for D3 the class of omega_1 needs 2 omega_3 (dim 10)
    # next to omega_1 (dim 6) to bring the gcd down to the certificate 2.
    members = repdim._class_members

    def without_2_omega_n(family, rank, part):
        return [m for m in members(family, rank, part) if not (family == "D" and m[0][-1] == 2)]

    rs = build("D", 3)
    psi = schur_class_of(rs, (1, 0, 0))
    assert d_psi(rs, psi).value == 2
    monkeypatch.setattr(repdim, "_class_members", without_2_omega_n)
    with pytest.raises(InvariantViolation, match="have gcd 6, not the certificate 2"):
        d_psi(rs, psi)


def test_class_member_dimensions_match_weyl_dim():
    # Referee for the closed forms: hook-content in A_n, the contraction
    # kernels of C_n, Lambda^i V and C(2n, n) / 2 in D_n, and the spin modules.
    cases = [(rs, psi) for rs in systems_up_to_rank_30() for psi in every_class(rs)]
    for rs, psi in cases + list(rank_60_classes()):
        ((family, rank),) = rs.factors
        for coeffs, dim in repdim._class_members(family, rank, psi.residue[0]):
            assert dim == weyl_dim(rs, rs.from_fundamental(coeffs)), (rs.describe(), coeffs)


def test_d_psi_takes_no_weyl_product_at_rank_60(monkeypatch):
    # Structural guard, with no wall clock: d_psi reads the closed-form
    # dimensions, and builds one weight per witness it keeps.
    cases = list(rank_60_classes())
    calls = {"weyl_dim": 0, "from_fundamental": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(repdim, "weyl_dim", counting("weyl_dim", repdim.weyl_dim))
    monkeypatch.setattr(
        RootSystem, "from_fundamental", counting("from_fundamental", RootSystem.from_fundamental)
    )
    results = []
    for rs, psi in cases:
        built = calls["from_fundamental"]
        results.append(d_psi(rs, psi))
        assert calls["weyl_dim"] == 0, (rs.describe(), psi.residue)
        assert calls["from_fundamental"] - built == len(results[-1].witnesses)
    monkeypatch.undo()
    for (rs, psi), result in zip(cases, results):
        assert_witnesses_prove(rs, psi, result)


def test_error_text_prints_rationals():
    with pytest.raises(NotDominant, match=r"^\(-1,0\) is not dominant for B2$"):
        weyl_dim(build("B", 2), (-1, 0))
    with pytest.raises(NotInWeightLattice, match=r"^\(1/2,1/2\) is not in the weight lattice of C2$"):
        weyl_dim(build("C", 2), half(1, 1))
    with pytest.raises(NotInWeightLattice, match=r"^\(1/2,1/2\) is not in the weight lattice of C2$"):
        schur_class_of(build("C", 2), half(1, 1))


def test_d_psi_witnesses_chain():
    rs = build("A", 3)
    psi = schur_class_of(rs, (1, 1, 0, 0))
    result = d_psi(rs, psi)
    dims = [dim for _, dim in result.witnesses]
    import math

    running = 0
    for dim in dims:
        new = math.gcd(running, dim)
        assert new != running  # each witness strictly drops the gcd
        running = new
    assert running == result.value

