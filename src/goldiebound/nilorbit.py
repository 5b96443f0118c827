"""Nilpotent orbits of sp_N and so_N via partitions: gradings and centralizers."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    InvariantViolation,
    NotDivisible,
    ParityViolation,
    SizeMismatch,
    UnsupportedOrbit,
    UnsupportedType,
)
from .rootsys import Q, RootSystem, Vec, vdot

FAMILIES = ("sp", "so")


@dataclass(frozen=True)
class Partition:
    """A validated nilpotent-orbit partition for sp_N or so_N."""

    family: str
    parts: tuple[int, ...]

    @property
    def N(self) -> int:
        return sum(self.parts)


def validate_partition(family: str, parts: Sequence[int], size: Optional[int] = None) -> Partition:
    """Check the family's parity rule and optional total size, then freeze."""
    if family not in FAMILIES:
        raise UnsupportedType(f"family {family!r} not supported; expected 'sp' or 'so'")
    parts = tuple(int(p) for p in parts)
    if not parts or any(p <= 0 for p in parts):
        raise SizeMismatch("partition parts must be positive integers")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise SizeMismatch("partition parts must be weakly decreasing")
    total = sum(parts)
    if size is not None and size != total:
        raise SizeMismatch(f"parts sum to {total}, expected {size}")
    if family == "sp" and total % 2 != 0:
        raise SizeMismatch("sp_N needs N even")
    multiplicity: dict[int, int] = {}
    for p in parts:
        multiplicity[p] = multiplicity.get(p, 0) + 1
    bad_parity = 1 if family == "sp" else 0
    for p, m in multiplicity.items():
        if p % 2 == bad_parity and m % 2 != 0:
            kind = "odd" if family == "sp" else "even"
            raise ParityViolation(
                f"{family}_{total}: {kind} part {p} must have even multiplicity, got {m}"
            )
    return Partition(family, parts)


def transpose(parts: Sequence[int]) -> tuple[int, ...]:
    parts = list(parts)
    return tuple(sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1))


def ambient_root_system(p: Partition) -> RootSystem:
    """Root system of the ambient algebra: C for sp_N, B/D for so_N."""
    if p.family == "sp":
        return RootSystem((("C", p.N // 2),))
    if p.N % 2 == 1:
        return RootSystem((("B", (p.N - 1) // 2),))
    return RootSystem((("D", p.N // 2),))


def centralizer_dim(p: Partition) -> int:
    """Dimension of the full centralizer of a nilpotent with these Jordan blocks."""
    squares = sum(c * c for c in transpose(p.parts))
    odd = sum(1 for part in p.parts if part % 2 == 1)
    if p.family == "sp":
        doubled = squares + odd
    else:
        doubled = squares - odd
    if doubled % 2:
        raise NotDivisible(f"twice the centralizer dimension of {p.parts} is odd: {doubled}")
    return doubled // 2


def is_even_orbit(p: Partition) -> bool:
    return len({part % 2 for part in p.parts}) == 1


def h_and_grading(p: Partition) -> tuple[Vec, bool, dict[int, int]]:
    """Semisimple grading element h, evenness flag, and graded dimensions.

    Each part k contributes the eigenvalue string k-1, k-3, ..., 1-k.  The
    strings pair off into +/- eigenvalue pairs; one coordinate is kept per
    pair, with an alternating global sign so that the partition (2, ..., 2)
    yields h = (1, -1, 1, -1, ...).  Leftover zero eigenvalues pair into zero
    coordinates (for odd N one unpaired zero stays outside the coordinates).
    """
    rs = ambient_root_system(p)
    coords: list[Fraction] = []
    zeros = 0
    for part in p.parts:
        if part % 2 == 1:
            zeros += 1
        for value in range(part - 1, 0, -2):
            sign = 1 if len(coords) % 2 == 0 else -1
            coords.append(Q(sign * value))
    coords.extend([Q(0)] * (zeros // 2))
    h = tuple(coords)
    if len(h) != rs.rank:
        raise InvariantViolation(f"h has {len(h)} coordinates, expected rank {rs.rank}")
    grading: dict[int, int] = {0: rs.rank}
    for alpha in rs.all_roots:
        value = vdot(alpha.coords, h)
        if value.denominator != 1:
            raise NotDivisible(f"a root pairs to the non-integer {value} with h")
        grading[int(value)] = grading.get(int(value), 0) + 1
    even = is_even_orbit(p)
    if even != all(k % 2 == 0 for k in grading):
        raise InvariantViolation(f"evenness of {p.parts} disagrees with its grading")
    return h, even, grading


def reductive_centralizer(p: Partition) -> tuple[tuple[tuple[str, int], ...], int]:
    """Reductive quotient of the centralizer as O/Sp factors, with pi_0 order.

    Each distinct part d of multiplicity m contributes one factor on an
    m-dimensional space: for sp_N, O(m) when d is even and Sp(m) when d is
    odd; for so_N the roles swap.  The component group has order 2^(number
    of orthogonal factors), counting the component groups of the O(m).
    """
    multiplicity: dict[int, int] = {}
    for part in p.parts:
        multiplicity[part] = multiplicity.get(part, 0) + 1
    factors = []
    for d in sorted(multiplicity, reverse=True):
        m = multiplicity[d]
        if p.family == "sp":
            kind = "O" if d % 2 == 0 else "Sp"
        else:
            kind = "O" if d % 2 == 1 else "Sp"
        factors.append((kind, m))
    component_order = 2 ** sum(1 for kind, _ in factors if kind == "O")
    return tuple(factors), component_order


def tQ_embedding(p: Partition) -> tuple[Optional[int], ...]:
    """The slice-torus inclusion t_Q -> t as a coordinate map.

    Entry i is the eta coordinate that eps_i carries, or None when eps_i is
    orthogonal to t_Q.  Implemented for the sp orbits (2, ..., 2) -- where t_Q
    is the Cartan of O(n), eta_j -> eps_{2j} + eps_{2j+1} (0-based), so entry i
    is i // 2 and an odd leftover coordinate carries None -- and for the zero
    orbit (1, ..., 1), where t_Q is all of t and entry i is i.
    """
    if p.family != "sp":
        raise UnsupportedOrbit(f"no slice torus implemented for {p.family} orbits")
    rank = p.N // 2
    if all(part == 1 for part in p.parts):
        return tuple(range(rank))
    if all(part == 2 for part in p.parts):
        m = len(p.parts) // 2
        return tuple(i // 2 if i < 2 * m else None for i in range(rank))
    raise UnsupportedOrbit(
        f"no slice torus implemented for sp partition {p.parts}; "
        "supported: (2,...,2) and the zero orbit"
    )


@dataclass(frozen=True)
class OrbitDatum:
    """Bundle of the orbit invariants used downstream.

    ``grading`` lists the (h-degree, dimension) pairs of the grading of g, by
    degree.
    """

    partition: Partition
    h: Vec
    centralizer_dim: int
    reductive_factors: tuple[tuple[str, int], ...]
    component_group_order: int
    is_even: bool
    grading: tuple[tuple[int, int], ...]


def orbit_datum(p: Partition) -> OrbitDatum:
    h, even, grading = h_and_grading(p)
    factors, component_order = reductive_centralizer(p)
    return OrbitDatum(
        p, h, centralizer_dim(p), factors, component_order, even, tuple(sorted(grading.items()))
    )
