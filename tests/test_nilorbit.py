"""Partition validation, gradings, and centralizers of nilpotent orbits."""
import itertools

from fractions import Fraction as Q

import pytest

from goldiebound import (
    ambient_root_system,
    centralizer_dim,
    h_and_grading,
    orbit_datum,
    reductive_centralizer,
    tQ_embedding,
    transpose,
    validate_partition,
)
from goldiebound.errors import (
    ParityViolation,
    SizeMismatch,
    UnsupportedOrbit,
    UnsupportedType,
)

from oracles import centralizer_dims_by_matrices


def all_partitions(total):
    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return list(gen(total, total))


def valid_partitions(family, total):
    out = []
    for parts in all_partitions(total):
        try:
            out.append(validate_partition(family, parts))
        except (ParityViolation, SizeMismatch):
            continue
    return out


# -- validation -----------------------------------------------------------------


def test_validate_accepts_classical_cases():
    assert validate_partition("sp", (2, 2, 2)).N == 6
    assert validate_partition("so", (2, 2, 1)).N == 5
    assert validate_partition("so", (3, 1, 1)).N == 5
    assert validate_partition("sp", (4, 2), size=6).parts == (4, 2)


def test_validate_rejects_bad_parity():
    with pytest.raises(ParityViolation):
        validate_partition("sp", (3, 1))  # odd sp part with odd multiplicity
    with pytest.raises(ParityViolation):
        validate_partition("so", (2, 2, 2, 1))  # even so part, odd multiplicity


def test_validate_rejects_bad_sizes():
    with pytest.raises(SizeMismatch):
        validate_partition("sp", (2, 2), size=6)
    with pytest.raises(SizeMismatch):
        validate_partition("sp", (3, 3, 1))  # odd total for sp
    with pytest.raises(SizeMismatch):
        validate_partition("sp", (1, 2))  # not weakly decreasing
    with pytest.raises(UnsupportedType):
        validate_partition("gl", (2, 1))


def test_transpose():
    assert transpose((4, 2)) == (2, 2, 1, 1)
    assert transpose((2, 2, 2)) == (3, 3)
    assert transpose((1, 1, 1)) == (3,)


# -- centralizer dimension --------------------------------------------------------


def test_centralizer_dim_closed_forms():
    for n in range(2, 13):
        assert centralizer_dim(validate_partition("sp", (2,) * n)) == n * n
    for n in range(1, 7):
        p = validate_partition("sp", (1,) * (2 * n))
        assert centralizer_dim(p) == 2 * n * n + n  # the whole algebra
    assert centralizer_dim(validate_partition("so", (2, 2, 1))) == 6
    assert centralizer_dim(validate_partition("so", (5,))) == 2
    assert centralizer_dim(validate_partition("so", (3, 1, 1))) == 4


def test_centralizer_dim_against_matrix_oracle():
    for total in range(2, 9):
        for family in ("sp", "so"):
            if family == "sp" and total % 2 == 1:
                continue
            for p in valid_partitions(family, total):
                dim_g, dim_z, dim_z0 = centralizer_dims_by_matrices(family, p.parts)
                assert centralizer_dim(p) == dim_z, (family, p.parts)
                rank = total // 2
                expected_g = (
                    rank * (2 * rank + 1)
                    if family == "sp"
                    else (total * (total - 1)) // 2
                )
                assert dim_g == expected_g
                # degree-zero part of the centralizer = its reductive quotient
                factors, _ = reductive_centralizer(p)
                reductive = sum(
                    m * (m - 1) // 2 if kind == "O" else m * (m + 1) // 2
                    for kind, m in factors
                )
                assert dim_z0 == reductive, (family, p.parts)


def test_centralizer_dim_parity_matches_rank():
    for total in range(2, 13):
        for family in ("sp", "so"):
            if family == "sp" and total % 2 == 1:
                continue
            for p in valid_partitions(family, total):
                rank = total // 2
                assert (centralizer_dim(p) - rank) % 2 == 0, (family, p.parts)


# -- h and grading ------------------------------------------------------------------


def test_h_for_two_row_partitions():
    for n in range(2, 8):
        h, even, _ = h_and_grading(validate_partition("sp", (2,) * n))
        assert h == tuple(Q(1) if i % 2 == 0 else Q(-1) for i in range(n))
        assert even


def test_h_for_zero_orbit():
    h, even, grading = h_and_grading(validate_partition("sp", (1,) * 8))
    assert h == (Q(0),) * 4
    assert even
    assert grading == {0: 36}  # everything in degree zero


def test_h_examples():
    h, even, _ = h_and_grading(validate_partition("sp", (4, 2)))
    assert h == (Q(3), Q(-1), Q(1))
    assert even  # all parts share a parity
    h, even, _ = h_and_grading(validate_partition("so", (3, 1, 1)))
    assert h == (Q(2), Q(0))
    assert even  # all parts odd
    h, even, _ = h_and_grading(validate_partition("so", (2, 2, 1)))
    assert h == (Q(1), Q(-1))
    assert not even  # mixed parities
    h, even, _ = h_and_grading(validate_partition("so", (5,)))
    assert h == (Q(4), Q(-2))
    assert even


def test_grading_sums_to_algebra_dimension():
    for family, total in [("sp", 8), ("sp", 10), ("so", 7), ("so", 9), ("so", 8)]:
        for p in valid_partitions(family, total):
            if family == "so" and total % 2 == 0 and total < 6:
                continue
            _, _, grading = h_and_grading(p)
            rs = ambient_root_system(p)
            assert sum(grading.values()) == len(rs.all_roots) + rs.rank
            # eigenvalue symmetry of the adjoint action
            assert all(grading.get(-k) == v for k, v in grading.items())


def test_grading_matches_matrix_oracle_for_even_orbits():
    # dim z = dim g(0) exactly when the orbit is even
    for family, parts in [
        ("sp", (2, 2)),
        ("sp", (2, 2, 2)),
        ("sp", (2, 2, 2, 2)),
        ("so", (3, 3, 1)),
        ("sp", (4, 4)),
    ]:
        p = validate_partition(family, parts)
        _, even, grading = h_and_grading(p)
        assert even
        assert grading[0] == centralizer_dim(p)


# -- reductive centralizer -----------------------------------------------------------


def test_reductive_centralizer_cases():
    factors, order = reductive_centralizer(validate_partition("sp", (2,) * 5))
    assert factors == (("O", 5),)
    assert order == 2
    factors, order = reductive_centralizer(validate_partition("sp", (1,) * 6))
    assert factors == (("Sp", 6),)
    assert order == 1
    factors, order = reductive_centralizer(validate_partition("so", (3, 1, 1)))
    assert factors == (("O", 1), ("O", 2))
    assert order == 4
    factors, order = reductive_centralizer(validate_partition("sp", (4, 2, 2, 1, 1)))
    assert factors == (("O", 1), ("O", 2), ("Sp", 2))
    assert order == 4


def test_orbit_datum_bundle():
    p = validate_partition("sp", (2,) * 4)
    datum = orbit_datum(p)
    assert datum.partition == p
    assert datum.centralizer_dim == 16
    assert datum.reductive_factors == (("O", 4),)
    assert datum.component_group_order == 2
    assert datum.is_even
    assert datum.h == (Q(1), Q(-1), Q(1), Q(-1))


# -- slice torus embedding ------------------------------------------------------------


def test_tQ_embedding_two_row():
    E = tQ_embedding(validate_partition("sp", (2,) * 4))
    assert E == (0, 0, 1, 1)
    E = tQ_embedding(validate_partition("sp", (2,) * 5))
    assert E == (0, 0, 1, 1, None)  # odd leftover coordinate is orthogonal to t_Q


def test_tQ_embedding_zero_orbit_is_identity():
    E = tQ_embedding(validate_partition("sp", (1,) * 6))
    assert E == (0, 1, 2)


def test_tQ_embedding_unsupported():
    with pytest.raises(UnsupportedOrbit):
        tQ_embedding(validate_partition("sp", (4, 2)))
    with pytest.raises(UnsupportedOrbit):
        tQ_embedding(validate_partition("so", (3, 3)))
