"""Lattice membership, coset representatives, and integral subsystems."""
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldiebound import build, integral_subsystem, schur_class_of
from goldiebound.errors import NotInWeightLattice

from oracles import (
    diagram_type,
    in_root_lattice,
    in_weight_lattice,
    scan_dominant_in_class,
    scan_height,
    scan_in_root_lattice,
    trivial_class,
    vadd,
)


def half(*values):
    return tuple(Q(v, 2) for v in values)


# -- membership ---------------------------------------------------------------


def test_weight_lattice_membership():
    b3 = build("B", 3)
    assert in_weight_lattice(b3, half(1, 1, 1))
    assert in_weight_lattice(b3, (1, 1, 0))
    assert not in_weight_lattice(b3, half(1, 0, 0))  # mixed halves and integers
    c2 = build("C", 2)
    assert in_weight_lattice(c2, (1, 1))
    assert not in_weight_lattice(c2, half(1, 1))
    a2 = build("A", 2)
    assert in_weight_lattice(a2, (1, 0, 0))
    assert not in_weight_lattice(a2, (Q(1, 3), 0, 0))


def test_root_lattice_membership():
    b3 = build("B", 3)
    assert in_root_lattice(b3, (0, 0, 0))
    assert in_root_lattice(b3, (1, 0, 0))
    assert not in_root_lattice(b3, half(1, 1, 1))
    c2 = build("C", 2)
    assert in_root_lattice(c2, (1, 1))
    assert not in_root_lattice(c2, (1, 0))
    d4 = build("D", 4)
    assert in_root_lattice(d4, (1, 1, 0, 0))
    assert not in_root_lattice(d4, (1, 0, 0, 0))
    a3 = build("A", 3)
    assert in_root_lattice(a3, (1, -1, 0, 0))
    assert not in_root_lattice(a3, (1, 1, 0, 0))
    assert in_root_lattice(a3, (1, 1, 1, 1))  # the zero weight in disguise


def test_root_lattice_contains_all_roots():
    for rs in [build("A", 3), build("B", 3), build("C", 3), build("D", 4)]:
        for r in rs.all_roots:
            assert in_root_lattice(rs, r.coords)


# -- Schur classes -------------------------------------------------------------


def test_schur_class_reps():
    b3 = build("B", 3)
    assert schur_class_of(b3, half(1, 1, 1)).rep == half(1, 1, 1)
    assert schur_class_of(b3, half(3, 1, 1)).rep == half(1, 1, 1)
    assert schur_class_of(b3, (2, 1, 1)).rep == (0, 0, 0)
    assert schur_class_of(b3, (2, 1, 1)).is_trivial()
    a3 = build("A", 3)
    assert schur_class_of(a3, (1, 1, 0, 0)).rep == (1, 1, 0, 0)
    d4 = build("D", 4)
    assert schur_class_of(d4, half(1, 1, 1, 1)).rep == half(1, 1, 1, 1)
    assert schur_class_of(d4, half(1, 1, 1, -1)).rep == half(1, 1, 1, -1)
    assert schur_class_of(d4, (1, 0, 0, 0)).rep == (1, 0, 0, 0)


def test_schur_class_requires_weight_lattice():
    with pytest.raises(NotInWeightLattice):
        schur_class_of(build("C", 2), half(1, 1))


def test_schur_class_invariant_under_root_shifts():
    rs = build("D", 4)
    base = half(1, 1, 1, 1)
    psi = schur_class_of(rs, base)
    for r in rs.all_roots:
        assert schur_class_of(rs, vadd(base, r.coords)) == psi


def test_class_counts_match_fundamental_group():
    cases = [
        (build("A", 1), 2),
        (build("A", 2), 3),
        (build("A", 4), 5),
        (build("B", 2), 2),
        (build("B", 6), 2),
        (build("C", 6), 2),
        (build("D", 4), 4),
        (build("D", 5), 4),
        (build("D", 6), 4),
        (build([("A", 1), ("B", 2)]), 4),
    ]
    for rs, expected in cases:
        reps = set()
        for coeffs in _tuples_up_to(rs.rank, 1):
            reps.add(schur_class_of(rs, rs.from_fundamental(coeffs)).rep)
        assert len(reps) == expected, rs.describe()


def _tuples_up_to(rank, bound):
    import itertools

    return itertools.product(range(bound + 1), repeat=rank)


# -- integral subsystems --------------------------------------------------------


def test_integral_full_system_at_rho_of_dual():
    # Pairing rho of the dual system against this system's roots is integral.
    for rs in [build("A", 3), build("C", 3), build("D", 4)]:
        sub = integral_subsystem(rs, rs.rho)
        assert len(sub.roots) == len(rs.all_roots)
    b3 = build("B", 3)
    sub = integral_subsystem(b3, build("C", 3).rho)
    assert len(sub.roots) == len(b3.all_roots)
    assert sub.type_guess is not None


def test_integral_subsystem_b2_small_weight():
    sub = integral_subsystem(build("B", 2), (Q(1, 3), Q(0)))
    coords = {r.coords for r in sub.roots}
    assert coords == {(Q(0), Q(1)), (Q(0), Q(-1))}
    assert sub.dim == 4
    assert sub.type_guess.factors == (("A", 1),)


def test_integral_subsystem_halved_rho_family():
    # dim n^2 and type B_{floor(n/2)} x D_{ceil(n/2)} (up to low-rank aliases)
    alias = {
        ("B", 1): [("A", 1)],
        ("D", 1): [],
        ("D", 2): [("A", 1), ("A", 1)],
        ("D", 3): [("A", 3)],
    }
    for n in range(3, 11):
        bn = build("B", n)
        lam = tuple(c / 2 for c in build("C", n).rho)
        sub = integral_subsystem(bn, lam)
        assert sub.dim == n * n, n
        expected = []
        for factor in [("B", n // 2), ("D", (n + 1) // 2)]:
            expected.extend(alias.get(factor, [factor]))
        assert sub.type_guess is not None
        assert sorted(sub.type_guess.factors) == sorted(expected), n


def test_integral_subsystem_closed_under_addition_and_negation():
    rs = build("B", 4)
    lam = tuple(c / 2 for c in build("C", 4).rho)
    sub = integral_subsystem(rs, lam)
    coords = {r.coords for r in sub.roots}
    ambient = {r.coords for r in rs.all_roots}
    for a in coords:
        assert tuple(-c for c in a) in coords
        for b in coords:
            total = vadd(a, b)
            if total in ambient:
                assert total in coords


def test_integral_subsystem_dim_constant_on_root_shifts():
    rs = build("B", 3)
    lam = tuple(c / 2 for c in build("C", 3).rho)
    base = integral_subsystem(rs, lam).dim
    for r in rs.positive_roots[:4]:
        # shifting by a coweight-integral vector keeps every pairing's parity
        shifted = vadd(lam, r.coords)
        assert integral_subsystem(rs, shifted).dim == base


def test_integral_subsystem_type_classification_cases():
    # whole system recognized
    c3 = build("C", 3)
    sub = integral_subsystem(c3, c3.rho)
    assert sub.type_guess.factors == (("C", 3),)
    d4 = build("D", 4)
    sub = integral_subsystem(d4, d4.rho)
    assert sub.type_guess.factors == (("D", 4),)
    a3 = build("A", 3)
    sub = integral_subsystem(a3, a3.rho)
    assert sub.type_guess.factors == (("A", 3),)
    # empty subsystem has no type
    sub = integral_subsystem(build("B", 2), (Q(1, 3), Q(1, 5)))
    assert sub.type_guess is None
    assert sub.dim == 2


REFEREE_SYSTEMS = (
    [build("A", n) for n in range(1, 8)]
    + [build(family, n) for family in "BC" for n in range(2, 8)]
    + [build("D", n) for n in range(3, 8)]
    + [build(pair) for pair in ([("A", 2), ("B", 3)], [("C", 3), ("D", 4)], [("A", 3), ("C", 2)])]
    + [build(pair) for pair in ([("B", 2), ("D", 3)], [("A", 1), ("A", 4)], [("D", 5), ("B", 3)])]
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_integral_type_matches_diagram_recognizer(data):
    rs = data.draw(st.sampled_from(REFEREE_SYSTEMS))
    denominator = data.draw(st.sampled_from((1, 2, 3, 4, 6)))
    size = rs.ambient_dim
    numerators = data.draw(st.lists(st.integers(-12, 12), min_size=size, max_size=size))
    sub = integral_subsystem(rs, tuple(Q(c, denominator) for c in numerators))
    assert sub.type_guess == diagram_type([r.coords for r in sub.roots if r.positive])


def test_trivial_class():
    rs = build("B", 3)
    assert trivial_class(rs).is_trivial()
    assert trivial_class(rs) == schur_class_of(rs, (1, 0, 0))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_schur_class_idempotent_on_rep(data):
    rs = data.draw(
        st.sampled_from([build("A", 2), build("B", 3), build("C", 3), build("D", 4)])
    )
    coeffs = data.draw(
        st.lists(st.integers(0, 3), min_size=rs.rank, max_size=rs.rank)
    )
    psi = schur_class_of(rs, rs.from_fundamental(coeffs))
    assert schur_class_of(rs, psi.rep) == psi
    assert rs.is_dominant(psi.rep)


ORACLE_SYSTEMS = [
    build(family, rank)
    for family, rank in (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3))
] + [build("D", 3), build("D", 4), build([("A", 1), ("A", 1)]), build([("A", 2), ("D", 4)])]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_schur_class_matches_oracle_scan(data):
    rs = data.draw(st.sampled_from(ORACLE_SYSTEMS))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=rs.rank, max_size=rs.rank))
    w = rs.from_fundamental(coeffs)
    psi = schur_class_of(rs, w)
    rep, in_root = [], True
    for family, rank, offset, dim in rs.blocks:
        block = w[offset : offset + dim]
        members = scan_dominant_in_class(family, rank, block, 2)
        heights = sorted((scan_height(family, m), m) for m in members)
        assert [h for h, _ in heights].count(heights[0][0]) == 1
        rep.extend(heights[0][1])
        in_root = in_root and scan_in_root_lattice(family, block)
    assert psi.rep == tuple(rep)
    assert (not any(map(any, psi.residue))) == in_root == in_root_lattice(rs, w)
