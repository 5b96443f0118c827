"""Root systems: construction, roots, rho, orbits, dominance, minuscule test."""
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldiebound import build, coroot_pairing
from goldiebound.errors import DimensionMismatch, NotDominant, UnsupportedType

from oracles import brute_orbit, root_length, weights_equal, weyl_apply, weyl_elements

SMALL_SYSTEMS = [
    build("A", 1),
    build("A", 2),
    build("A", 3),
    build("B", 2),
    build("B", 3),
    build("C", 2),
    build("C", 3),
    build("D", 3),
    build("D", 4),
    build([("A", 1), ("B", 2)]),
    build([("C", 2), ("A", 1)]),
]


def half(*values):
    return tuple(Q(v, 2) for v in values)


# -- construction ---------------------------------------------------------------


def test_build_rejects_unknown_family():
    with pytest.raises(UnsupportedType):
        build("E", 8)


@pytest.mark.parametrize("family,rank", [("B", 1), ("C", 1), ("D", 1), ("D", 2)])
def test_build_rejects_low_rank_aliases_with_hint(family, rank):
    with pytest.raises(UnsupportedType) as err:
        build(family, rank)
    assert "A1" in str(err.value) or "torus" in str(err.value)


def test_build_rejects_nonpositive_rank():
    with pytest.raises(UnsupportedType):
        build("A", 0)


def test_product_shape():
    rs = build([("A", 2), ("B", 2)])
    assert rs.rank == 4
    assert rs.ambient_dim == 5
    assert rs.describe() == "A2xB2"


# -- positive roots ----------------------------------------------------------------


def test_positive_roots_b2():
    rs = build("B", 2)
    assert {r.coords for r in rs.positive_roots} == {
        (Q(1), Q(-1)),
        (Q(1), Q(1)),
        (Q(1), Q(0)),
        (Q(0), Q(1)),
    }


def test_positive_root_counts():
    assert len(build("A", 3).positive_roots) == 6
    assert len(build("B", 4).positive_roots) == 16
    assert len(build("C", 3).positive_roots) == 9
    assert len(build("D", 4).positive_roots) == 12
    assert len(build([("A", 2), ("B", 2)]).positive_roots) == 7


def test_c3_contains_long_root():
    rs = build("C", 3)
    coords = {r.coords for r in rs.positive_roots}
    assert (Q(2), Q(0), Q(0)) in coords
    lengths = {root_length(rs, r) for r in rs.positive_roots}
    assert lengths == {"long", "short"}


def test_d_roots_have_no_length_classes():
    rs = build("D", 3)
    assert {root_length(rs, r) for r in rs.positive_roots} == {None}


def test_all_roots_closed_under_negation():
    for rs in SMALL_SYSTEMS:
        coords = {r.coords for r in rs.all_roots}
        assert coords == {tuple(-c for c in v) for v in coords}
        assert len(coords) == 2 * len(rs.positive_roots)


def test_simple_roots_are_positive_and_span():
    for rs in SMALL_SYSTEMS:
        simple = {r.coords for r in rs.simple_roots}
        assert len(simple) == rs.rank
        assert simple <= {r.coords for r in rs.positive_roots}


# -- rho ----------------------------------------------------------------------------


def test_rho_values():
    assert build("A", 1).rho == half(1, -1)
    assert build("B", 2).rho == half(3, 1)
    assert build("C", 3).rho == (Q(3), Q(2), Q(1))
    assert build("D", 4).rho == (Q(3), Q(2), Q(1), Q(0))
    assert build("B", 3).rho == half(5, 3, 1)


def test_rho_equals_sum_of_fundamental_weights():
    for rs in SMALL_SYSTEMS:
        total = rs.from_fundamental((1,) * rs.rank)
        assert weights_equal(rs, total, rs.rho)


def test_rho_pairings_positive_and_one_exactly_on_simples():
    for rs in SMALL_SYSTEMS:
        simple = {r.coords for r in rs.simple_roots}
        for alpha in rs.positive_roots:
            p = coroot_pairing(rs.rho, alpha)
            assert p >= 1
            assert (p == 1) == (alpha.coords in simple)


# -- coroot pairing -----------------------------------------------------------------


def test_coroot_pairing_values():
    rs = build("B", 3)
    omega3 = half(1, 1, 1)
    short = (Q(0), Q(0), Q(1))
    assert coroot_pairing(omega3, short) == 1
    long = (Q(1), Q(-1), Q(0))
    assert coroot_pairing(omega3, long) == 0
    assert coroot_pairing((Q(3), Q(0), Q(0)), (Q(1), Q(1), Q(0))) == 3


def test_coroot_pairing_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        coroot_pairing((Q(1),), (Q(1), Q(0)))


# -- dominance and orbits ------------------------------------------------------------


def test_dominant_representative_examples():
    b2 = build("B", 2)
    assert b2.dominant_representative((-1, 2)) == (Q(2), Q(1))
    d3 = build("D", 3)
    assert d3.dominant_representative((1, -1, -2)) == (Q(2), Q(1), Q(1))
    assert d3.dominant_representative((1, -2, 0)) == (Q(2), Q(1), Q(0))
    assert d3.dominant_representative((-1, -2, -3)) == (Q(3), Q(2), Q(-1))
    a2 = build("A", 2)
    assert a2.dominant_representative((0, 2, 1)) == (Q(2), Q(1), Q(0))


def test_dominant_representative_idempotent_and_in_orbit():
    for rs in SMALL_SYSTEMS:
        if rs.weyl_group_order() > 500:
            continue
        for w in [rs.rho, rs.from_fundamental((1,) + (0,) * (rs.rank - 1))]:
            for g in weyl_elements(rs):
                moved = weyl_apply(rs, g, w)
                dom = rs.dominant_representative(moved)
                assert weights_equal(rs, dom, rs.dominant_representative(w))
                assert rs.is_dominant(dom)
                assert weights_equal(rs, rs.dominant_representative(dom), dom)


def test_weyl_group_orders():
    assert build("A", 1).weyl_group_order() == 2
    assert build("B", 2).weyl_group_order() == 8
    assert build("C", 3).weyl_group_order() == 48
    assert build("D", 4).weyl_group_order() == 192
    assert build([("A", 2), ("B", 2)]).weyl_group_order() == 48


def test_weyl_group_order_matches_brute_force():
    for rs in SMALL_SYSTEMS:
        assert rs.weyl_group_order() == len(weyl_elements(rs))


def test_orbit_sizes():
    assert build("B", 2).orbit_size((0, 0)) == 1
    assert build("B", 3).orbit_size(half(1, 1, 1)) == 8
    assert build("B", 2).orbit_size((2, 1)) == 8
    assert build("D", 4).orbit_size(half(1, 1, 1, 1)) == 8
    assert build("A", 2).orbit_size((1, 0, 0)) == 3


def test_orbit_size_matches_brute_force():
    samples = {
        "A2": [(1, 0, 0), (1, 1, 0), (2, 1, 0)],
        "B2": [(1, 0), half(1, 1), (2, 1), (1, 1)],
        "C2": [(1, 0), (1, 1), (2, 1)],
        "D3": [(1, 0, 0), half(1, 1, 1), half(1, 1, -1), (1, 1, 0), (2, 1, 1)],
        "D4": [half(1, 1, 1, 1), (1, 1, 0, 0), (2, 1, 1, 0)],
        "A3": [(1, 0, 0, 0), (1, 1, 0, 0), (3, 2, 1, 0)],
    }
    for name, weights in samples.items():
        rs = build(name[0], int(name[1]))
        for w in weights:
            w = tuple(Q(c) for c in w)
            assert rs.orbit_size(w) == len(brute_orbit(rs, w)), (name, w)


def test_orbit_stabilizer_product():
    for rs in SMALL_SYSTEMS:
        omega_1 = rs.from_fundamental((1,) + (0,) * (rs.rank - 1))
        for w in [rs.rho, (Q(0),) * rs.ambient_dim, omega_1]:
            assert rs.orbit_size(w) * rs.stabilizer_order(w) == rs.weyl_group_order()


# -- minuscule ----------------------------------------------------------------------


def test_minuscule_examples():
    assert build("B", 3).is_minuscule(half(1, 1, 1))
    assert not build("C", 2).is_minuscule((1, 1))
    assert build("C", 2).is_minuscule((1, 0))
    assert build("B", 3).is_minuscule((0, 0, 0))
    assert build("D", 4).is_minuscule(half(1, 1, 1, 1))
    assert not build("B", 3).is_minuscule((1, 0, 0))  # short-root pairing is 2


def test_minuscule_requires_dominant():
    with pytest.raises(NotDominant):
        build("B", 2).is_minuscule((-1, 0))


# -- duality and gauges --------------------------------------------------------------


def test_dual_systems():
    assert build("B", 3).dual().describe() == "C3"
    assert build("C", 2).dual().describe() == "B2"
    assert build("D", 4).dual().describe() == "D4"
    assert build([("A", 2), ("B", 2)]).dual().describe() == "A2xC2"


def test_a_block_gauge():
    rs = build("A", 2)
    assert weights_equal(rs, (1, 0, -1), (2, 1, 0))
    assert not weights_equal(rs, (1, 0, 0), (0, 1, 0))
    assert rs.canonical((1, 0, -1)) == (Q(2), Q(1), Q(0))


def test_fundamental_roundtrip():
    for rs in SMALL_SYSTEMS:
        coeffs = tuple(range(1, rs.rank + 1))
        w = rs.from_fundamental(coeffs)
        assert rs.fundamental_coefficients(w) == tuple(Q(c) for c in coeffs)


@settings(max_examples=150, deadline=None)
@given(
    idx=st.integers(min_value=0, max_value=len(SMALL_SYSTEMS) - 1),
    data=st.data(),
)
def test_from_fundamental_dominant_property(idx, data):
    rs = SMALL_SYSTEMS[idx]
    coeffs = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=4), min_size=rs.rank, max_size=rs.rank
        )
    )
    w = rs.from_fundamental(coeffs)
    assert rs.is_dominant(w)
    assert weights_equal(rs, rs.dominant_representative(w), w)
