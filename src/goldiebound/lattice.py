"""Root/weight lattice membership, central characters, and integral subsystems."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import NotInWeightLattice
from .rootsys import Root, RootSystem, Vec, normalize_factors, vdot, weight_str


def class_group(family: str, rank: int) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """P/Q of one simple factor, as the moduli of its cyclic components, and
    the class of each fundamental weight omega_1..omega_rank (Bourbaki order)."""
    if family == "A":
        return (rank + 1,), [(i,) for i in range(1, rank + 1)]
    if family == "B":
        return (2,), [(0,)] * (rank - 1) + [(1,)]
    if family == "C":
        return (2,), [(i % 2,) for i in range(1, rank + 1)]
    if rank % 2:  # D_n, n odd: Z/4
        return (4,), [(2 * (i % 2),) for i in range(1, rank - 1)] + [(3,), (1,)]
    return (2, 2), [(i % 2, i % 2) for i in range(1, rank - 1)] + [(1, 0), (0, 1)]


def class_residue(rs: RootSystem, coeffs: Sequence) -> tuple[tuple[int, ...], ...]:
    """The class in P/Q of sum c_i omega_i (integer c_i), one tuple per simple factor."""
    out, start = [], 0
    for family, rank in rs.factors:
        moduli, images = class_group(family, rank)
        part = coeffs[start : start + rank]
        start += rank
        sums = [sum(c * g[j] for c, g in zip(part, images)) for j in range(len(moduli))]
        out.append(tuple(int(total % m) for total, m in zip(sums, moduli)))
    return tuple(out)


@dataclass(frozen=True)
class SchurClass:
    """A coset of the root lattice inside the weight lattice.

    ``residue`` is the coset in P/Q, as `class_residue` gives it.  ``rep`` is
    its one dominant member that is minuscule or zero, which is also its
    dominant member of least height.
    """

    root_system: RootSystem
    residue: tuple[tuple[int, ...], ...]
    rep: Vec

    def is_trivial(self) -> bool:
        return not any(map(any, self.residue))


def schur_class_of(rs: RootSystem, lam: Sequence) -> SchurClass:
    """The root-lattice coset of lam, with its minuscule-or-zero representative."""
    coeffs = rs.fundamental_coefficients(lam)
    if any(c.denominator != 1 for c in coeffs):
        lam = weight_str(rs.canonical(lam))
        raise NotInWeightLattice(f"({lam}) is not in the weight lattice of {rs.describe()}")
    residue = class_residue(rs, coeffs)
    rep: list[int] = []
    for (family, rank), part in zip(rs.factors, residue):
        # In every classical family the first omega_i of a nonzero class is minuscule.
        first = class_group(family, rank)[1].index(part) if any(part) else rank
        rep.extend(int(i == first) for i in range(rank))
    return SchurClass(rs, residue, rs.from_fundamental(rep))


@dataclass(frozen=True)
class IntegralSubsystem:
    """Roots of rs pairing integrally with a weight, plus derived data.

    ``dim`` is the dimension of the corresponding reductive subalgebra:
    the number of integral roots plus the full rank.  ``type_guess`` is the
    factor decomposition of the integral subsystem, read in closed form from
    the classes of the weight's coordinates mod Z, with low-rank aliases
    expanded, a rank-2 B or C factor named B2 and the factors sorted; it is
    None exactly when no root is integral.
    """

    roots: tuple[Root, ...]
    dim: int
    type_guess: Optional[RootSystem]


def integral_subsystem(rs: RootSystem, lam: Sequence) -> IntegralSubsystem:
    """The subsystem of roots of rs whose evaluation (lam, alpha) is integral.

    Membership is linear in alpha, so the result is closed under addition and
    negation within the ambient root system.
    """
    lam = rs._check_dim(lam)
    positive = [r for r in rs.positive_roots if vdot(lam, r.coords).denominator == 1]
    roots = tuple(positive) + tuple(r.negated() for r in positive)
    dim = len(roots) + rs.rank
    return IntegralSubsystem(roots, dim, _integral_type(rs, lam))


def _integral_type(rs: RootSystem, lam: Vec) -> Optional[RootSystem]:
    """The type of the integral subsystem of lam, from its coordinates mod Z.

    e_i - e_j is integral when lam_i = lam_j mod Z, e_i + e_j when lam_i =
    -lam_j mod Z, e_i (type B) when lam_i is in Z and 2 e_i (type C) when
    2 lam_i is.
    So in type A each class of m coordinates spans A_(m-1).  In types B, C
    and D the class 0 spans B_m, C_m or D_m, the class 1/2 spans C_m in type C
    and D_m in types B and D, and each other pair {a, -a} spans A_(m-1), m
    counting the coordinates of both classes.
    """
    found = []
    for family, _, offset, dim in rs.blocks:
        counts: dict = {}
        for c in lam[offset : offset + dim]:
            a = c % 1 if family == "A" else min(c % 1, -c % 1)
            counts[a] = counts.get(a, 0) + 1
        for a, m in counts.items():
            if family != "A" and a == 0:
                found.append((family, m))
            elif family != "A" and 2 * a == 1:
                found.append(("C" if family == "C" else "D", m))
            elif m > 1:
                found.append(("A", m - 1))
    factors = normalize_factors([("B", 2) if f == ("C", 2) else f for f in found])
    return RootSystem(factors) if factors else None
