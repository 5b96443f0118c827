"""Classical root systems (types A-D and products) in exact rational coordinates.

Weights and roots are tuples of `Fraction` in the standard orthonormal basis
(epsilon coordinates).  An A_n factor occupies n+1 coordinates whose weights
are read modulo the all-ones vector; B_n/C_n/D_n factors occupy n coordinates.
Each root also carries its support: its at most two nonzero coordinates, as
(index, integer coefficient) pairs.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import DimensionMismatch, NotDivisible, NotDominant, UnsupportedType

Q = Fraction
Scalar = Union[int, Fraction]
Vec = tuple[Fraction, ...]

FAMILIES = ("A", "B", "C", "D")
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
# Low-rank classical types and the factors they are isomorphic to (D1 is a torus).
ALIASES = {
    ("B", 1): (("A", 1),),
    ("C", 1): (("A", 1),),
    ("D", 1): (),
    ("D", 2): (("A", 1), ("A", 1)),
    ("D", 3): (("A", 3),),
}


def normalize_factors(factors: Sequence[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """Expand low-rank aliases and sort, for type comparisons."""
    out: list[tuple[str, int]] = []
    for factor in factors:
        out.extend(ALIASES.get(factor, (factor,)))
    return tuple(sorted(out))


def vec(values: Iterable[Scalar]) -> Vec:
    """Coerce an iterable of rationals to a weight vector."""
    return tuple(Q(v) for v in values)


def vsub(x: Vec, y: Vec) -> Vec:
    if len(x) != len(y):
        raise DimensionMismatch(f"cannot subtract vectors of length {len(x)} and {len(y)}")
    return tuple(a - b for a, b in zip(x, y))


def vscale(c: Scalar, x: Vec) -> Vec:
    return tuple(Q(c) * a for a in x)


def vdot(x: Vec, y: Vec) -> Fraction:
    if len(x) != len(y):
        raise DimensionMismatch(f"cannot pair vectors of length {len(x)} and {len(y)}")
    return sum((a * b for a, b in zip(x, y)), Q(0))


def rational_str(x: Union[int, Fraction]) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def weight_str(w: Sequence) -> str:
    return ",".join(rational_str(c) for c in w)


class Root(NamedTuple):
    """A root: its coordinate vector, its sign and its support.

    ``support`` lists the root's nonzero epsilon coordinates as (index,
    integer coefficient) pairs, for example ((i, 1), (j, -1)) for e_i - e_j or
    ((i, 2),) for the long root 2 e_i of type C.  Every classical root has at
    most two, so a pairing with a root reads at most two coordinates.
    """

    coords: Vec
    positive: bool
    support: tuple[tuple[int, int], ...]

    def pair(self, other: Union["Root", Sequence]) -> Scalar:
        """(self, other), read through the support; a `Root` is read through its own."""
        if isinstance(other, Root):
            return sum(c * d for i, c in self.support for j, d in other.support if i == j)
        return sum(c * other[i] for i, c in self.support)

    def negated(self) -> "Root":
        return Root(
            tuple(-c for c in self.coords),
            not self.positive,
            tuple((i, -c) for i, c in self.support),
        )


def coroot_pairing(lam: Vec, alpha: Union[Root, Vec]) -> Fraction:
    """Evaluate <lam, alpha^vee> = 2 (lam, alpha) / (alpha, alpha).

    A `Root` is paired through its support; a plain vector over the whole rank.
    """
    if not isinstance(alpha, Root):
        return 2 * vdot(lam, alpha) / vdot(alpha, alpha)
    if len(lam) != len(alpha.coords):
        raise DimensionMismatch(
            f"cannot pair vectors of length {len(lam)} and {len(alpha.coords)}"
        )
    # (lam, alpha) = num / den in integers; only the result is built as a Fraction
    num, den, norm = 0, 1, 0
    for i, c in alpha.support:
        x = lam[i]
        num, den = num * x.denominator + c * x.numerator * den, den * x.denominator
        norm += c * c
    return Q(2 * num, den * norm)


def _block_positive_roots(family: str, rank: int, dim: int) -> list[tuple[tuple[int, int], ...]]:
    """The supports of one factor's positive roots, in block coordinates."""
    if family == "A":
        return [((i, 1), (j, -1)) for i in range(dim) for j in range(i + 1, dim)]
    roots = [
        support
        for i in range(rank)
        for j in range(i + 1, rank)
        for support in (((i, 1), (j, -1)), ((i, 1), (j, 1)))
    ]
    if family in ("B", "C"):
        roots.extend(((i, 1 if family == "B" else 2),) for i in range(rank))
    return roots


def _block_simple_roots(family: str, rank: int) -> list[tuple[tuple[int, int], ...]]:
    """The supports of one factor's simple roots, in block coordinates."""
    simple = [((i, 1), (i + 1, -1)) for i in range(rank - 1)]
    if family == "A":
        simple.append(((rank - 1, 1), (rank, -1)))
    elif family == "B":
        simple.append(((rank - 1, 1),))
    elif family == "C":
        simple.append(((rank - 1, 2),))
    else:
        simple.append(((rank - 2, 1), (rank - 1, 1)))
    return simple


def _block_rho(family: str, rank: int) -> list[Fraction]:
    if family == "A":
        return [Q(rank - 2 * i, 2) for i in range(rank + 1)]
    if family == "B":
        return [Q(2 * (rank - i) - 1, 2) for i in range(rank)]
    if family == "C":
        return [Q(rank - i) for i in range(rank)]
    return [Q(rank - 1 - i) for i in range(rank)]


def _block_weight(family: str, rank: int, c: Vec) -> list[Fraction]:
    """sum_k c_k omega_k of one factor, in closed form.

    Coordinate i is the sum of the c_k over the omega_k = e_1 + ... + e_k with
    k > i, plus half the spin coefficients: c_n / 2 in B_n; (c_(n-1) + c_n) / 2,
    or (c_n - c_(n-1)) / 2 on the last coordinate, in D_n.  An A_n block's
    last coordinate is 0, the canonical gauge.
    """
    spins = {"B": 1, "D": 2}.get(family, 0)  # the trailing spin coefficients
    steps = list(c[: rank - spins]) + [Q(0)] * (spins + (family == "A"))  # padded to the block
    coords = list(itertools.accumulate(reversed(steps)))[::-1]
    if family == "B":
        coords = [x + c[-1] / 2 for x in coords]
    elif family == "D":
        coords = [x + (c[-2] + c[-1]) / 2 for x in coords[:-1]] + [(c[-1] - c[-2]) / 2]
    return coords


@dataclass(frozen=True)
class RootSystem:
    """A finite product of classical simple root systems."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.factors:
            raise UnsupportedType("a root system needs at least one factor")
        for family, rank in self.factors:
            if family not in FAMILIES:
                raise UnsupportedType(
                    f"family {family!r} not supported; expected one of {', '.join(FAMILIES)}"
                )
            if not isinstance(rank, int) or rank < 1:
                raise UnsupportedType(f"rank must be a positive integer, got {rank!r}")
            if rank < _MIN_RANK[family]:
                alias = ALIASES[family, rank]  # every rank below the minimum has one
                names = " x ".join(f"{f}{r}" for f, r in alias)
                hint = f"is isomorphic to {names}; build {', '.join(map(repr, alias))} instead"
                raise UnsupportedType(
                    f"{family}{rank} rejected: {family}{rank} "
                    + (hint if alias else "is a torus direction, not a simple factor; drop it")
                )

    # -- shape ---------------------------------------------------------------

    @cached_property
    def rank(self) -> int:
        return sum(rank for _, rank in self.factors)

    @cached_property
    def ambient_dim(self) -> int:
        return sum(rank + 1 if family == "A" else rank for family, rank in self.factors)

    @cached_property
    def blocks(self) -> tuple[tuple[str, int, int, int], ...]:
        """Per-factor coordinate blocks as (family, rank, offset, block_dim)."""
        out = []
        offset = 0
        for family, rank in self.factors:
            dim = rank + 1 if family == "A" else rank
            out.append((family, rank, offset, dim))
            offset += dim
        return tuple(out)

    def describe(self) -> str:
        return "x".join(f"{family}{rank}" for family, rank in self.factors)

    def __str__(self) -> str:
        return self.describe()

    def _check_dim(self, w: Sequence) -> Vec:
        w = vec(w)
        if len(w) != self.ambient_dim:
            raise DimensionMismatch(
                f"{self.describe()} lives in dimension {self.ambient_dim}, got vector of length {len(w)}"
            )
        return w

    def _split(self, w: Vec) -> list[Vec]:
        return [w[offset : offset + dim] for _, _, offset, dim in self.blocks]

    @staticmethod
    def _join(parts: Iterable[Sequence[Fraction]]) -> Vec:
        out: list[Fraction] = []
        for part in parts:
            out.extend(part)
        return tuple(out)

    # -- roots ---------------------------------------------------------------

    @cached_property
    def positive_roots(self) -> tuple[Root, ...]:
        roots: list[Root] = []
        zero = Q(0)
        for family, rank, offset, dim in self.blocks:
            for support in _block_positive_roots(family, rank, dim):
                support = tuple((offset + i, c) for i, c in support)
                coords = [zero] * self.ambient_dim
                for i, c in support:
                    coords[i] = Q(c)
                roots.append(Root(tuple(coords), True, support))
        return tuple(roots)

    @cached_property
    def all_roots(self) -> tuple[Root, ...]:
        return self.positive_roots + tuple(r.negated() for r in self.positive_roots)

    @cached_property
    def simple_roots(self) -> tuple[Root, ...]:
        positive = {r.support: r for r in self.positive_roots}
        return tuple(
            positive[tuple((offset + i, c) for i, c in support)]
            for family, rank, offset, _ in self.blocks
            for support in _block_simple_roots(family, rank)
        )

    @cached_property
    def rho(self) -> Vec:
        """Half the sum of the positive roots, in closed form per factor:
        (n/2, n/2 - 1, ..., -n/2) for A_n, (n - 1/2, ..., 1/2) for B_n,
        (n, ..., 1) for C_n and (n - 1, ..., 0) for D_n."""
        return self._join(_block_rho(family, rank) for family, rank in self.factors)

    def dual(self) -> "RootSystem":
        """The dual root system: B and C swap, A and D are self-dual."""
        swap = {"A": "A", "B": "C", "C": "B", "D": "D"}
        return RootSystem(tuple((swap[family], rank) for family, rank in self.factors))

    # -- weight arithmetic ----------------------------------------------------

    def canonical(self, w: Sequence) -> Vec:
        """Normalize each A-block to the last-coordinate-zero gauge."""
        w = self._check_dim(w)
        parts = []
        for (family, _, _, _), part in zip(self.blocks, self._split(w)):
            if family == "A":
                shift = part[-1]
                part = tuple(c - shift for c in part)
            parts.append(part)
        return self._join(parts)

    def fundamental_coefficients(self, w: Sequence) -> tuple[Fraction, ...]:
        """Pairings of w with the simple coroots, in simple-root order."""
        w = self._check_dim(w)
        return tuple(coroot_pairing(w, alpha) for alpha in self.simple_roots)

    def from_fundamental(self, coeffs: Sequence[Scalar]) -> Vec:
        """The weight sum_k c_k omega_k, one closed form per factor
        (`_block_weight`), A-blocks in the canonical gauge."""
        coeffs = vec(coeffs)
        if len(coeffs) != self.rank:
            raise DimensionMismatch(
                f"{self.describe()} has rank {self.rank}, got {len(coeffs)} coefficients"
            )
        out, start = [], 0
        for family, rank in self.factors:
            out.extend(_block_weight(family, rank, coeffs[start : start + rank]))
            start += rank
        return tuple(out)

    def is_dominant(self, w: Sequence) -> bool:
        return all(p >= 0 for p in self.fundamental_coefficients(w))

    def dominant_representative(self, w: Sequence) -> Vec:
        """The unique dominant weight in the Weyl orbit of w."""
        w = self._check_dim(w)
        parts = []
        for (family, rank, _, _), part in zip(self.blocks, self._split(w)):
            if family == "A":
                ordered = sorted(part, reverse=True)
                shift = ordered[-1]
                parts.append(tuple(c - shift for c in ordered))
            elif family in ("B", "C"):
                parts.append(tuple(sorted((abs(c) for c in part), reverse=True)))
            else:  # D: sign changes come in pairs, so the sign of the last
                # coordinate is an invariant unless some coordinate vanishes.
                negatives = sum(1 for c in part if c < 0)
                ordered = sorted((abs(c) for c in part), reverse=True)
                if negatives % 2 == 1 and ordered[-1] != 0:
                    ordered[-1] = -ordered[-1]
                parts.append(tuple(ordered))
        return self._join(parts)

    def weyl_group_order(self) -> int:
        order = 1
        for family, rank in self.factors:
            if family == "A":
                order *= math.factorial(rank + 1)
            elif family in ("B", "C"):
                order *= 2**rank * math.factorial(rank)
            else:
                order *= 2 ** (rank - 1) * math.factorial(rank)
        return order

    def stabilizer_order(self, w: Sequence) -> int:
        """Order of the stabilizer of w in the Weyl group."""
        dom = self.dominant_representative(w)
        order = 1
        for (family, rank, _, _), part in zip(self.blocks, self._split(dom)):
            counts: dict[Fraction, int] = {}
            for c in part:
                counts[c] = counts.get(c, 0) + 1
            if family == "A":
                for m in counts.values():
                    order *= math.factorial(m)
            elif family in ("B", "C"):
                zeros = counts.pop(Q(0), 0)
                for m in counts.values():
                    order *= math.factorial(m)
                order *= math.factorial(zeros) * 2**zeros
            else:
                zeros = counts.pop(Q(0), 0)
                # In type D the dominant coordinates are distinct in absolute
                # value except for repeats, and only even sign flips act.
                abs_counts: dict[Fraction, int] = {}
                for c, m in counts.items():
                    abs_counts[abs(c)] = abs_counts.get(abs(c), 0) + m
                for m in abs_counts.values():
                    order *= math.factorial(m)
                if zeros:
                    order *= math.factorial(zeros) * 2 ** (zeros - 1)
        return order

    def orbit_size(self, w: Sequence) -> int:
        size, rem = divmod(self.weyl_group_order(), self.stabilizer_order(w))
        if rem:
            raise NotDivisible(f"the Weyl orbit of ({weight_str(w)}) has no integer size")
        return size

    def is_minuscule(self, w: Sequence) -> bool:
        """True when every coroot pairing of the dominant weight w is 0 or 1."""
        w = self._check_dim(w)
        if not self.is_dominant(w):
            raise NotDominant(f"({weight_str(w)}) is not dominant for {self.describe()}")
        return all(coroot_pairing(w, r) <= 1 for r in self.positive_roots)


def build(factors: Union[str, Sequence[tuple[str, int]]], rank: Optional[int] = None) -> RootSystem:
    """Build a root system from ('B', 3), [('A', 2), ('B', 2)] or build('B', 3)."""
    if isinstance(factors, str):
        if rank is None:
            raise UnsupportedType("build('B') needs a rank: build('B', 3)")
        return RootSystem(((factors, rank),))
    return RootSystem(tuple((family, int(r)) for family, r in factors))
