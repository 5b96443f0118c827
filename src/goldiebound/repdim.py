"""Weyl dimensions and the divisor invariant d(psi) of a central character.

d(psi) is the greatest common divisor of the dimensions of the irreducible
representations whose highest weight lies in a fixed root-lattice coset psi.
It equals the index of the corresponding homogeneous Azumaya algebra.
`orbit_certificate` gives a proven divisor of every dimension in the class, a
closed form per simple factor read from the class's residue in P/Q; `d_psi`
enumerates witnesses until their gcd meets it, so every value it returns is
exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    BudgetExceeded,
    InvariantViolation,
    NotDivisible,
    NotDominant,
    NotInWeightLattice,
    UnsupportedType,
)
from .lattice import SchurClass, class_group, class_residue, in_weight_lattice, _level_tuples
from .rootsys import RootSystem, Vec, weight_str

CERTIFIED = "certified"

DEFAULT_BOUND = 8
DEFAULT_NODE_LIMIT = 200_000


def _doubled(w: Vec) -> list[int]:
    """2 w as integers; every weight and rho has half-integral coordinates."""
    out = []
    for c in w:
        twice, rem = divmod(2 * c.numerator, c.denominator)
        if rem:
            raise InvariantViolation(f"2 ({weight_str(w)}) is not an integer vector")
        out.append(twice)
    return out


def weyl_dim(rs: RootSystem, lam: Sequence) -> int:
    """Dimension of the irreducible module with dominant highest weight lam.

    Weyl's formula as one integer product over the positive roots alpha,
    prod (2 lam + 2 rho, alpha) / prod (2 rho, alpha), with one exact division
    at the end (Humphreys, Introduction to Lie Algebras and Representation
    Theory, 24.3).  The coroot scale 2 / (alpha, alpha) cancels root by root,
    and each pairing reads the two coordinates of the root's support.
    """
    lam = rs.canonical(lam)
    if not rs.is_dominant(lam):
        raise NotDominant(f"({weight_str(lam)}) is not dominant for {rs.describe()}")
    if not in_weight_lattice(rs, lam):
        raise NotInWeightLattice(
            f"({weight_str(lam)}) is not in the weight lattice of {rs.describe()}"
        )
    two_rho = _doubled(rs.rho)
    shifted = [a + b for a, b in zip(_doubled(lam), two_rho)]
    numerator = denominator = 1
    for alpha in rs.positive_roots:
        numerator *= sum(c * shifted[i] for i, c in alpha.support)
        denominator *= sum(c * two_rho[i] for i, c in alpha.support)
    dim, rem = divmod(numerator, denominator)
    if rem:
        raise NotDivisible(f"the Weyl product for ({weight_str(lam)}) is not an integer")
    if dim <= 0:
        raise InvariantViolation(f"the Weyl product for ({weight_str(lam)}) is not positive")
    return dim


def orbit_certificate(rs: RootSystem, psi: SchurClass) -> int:
    """A proven divisor of every dimension in the class psi.

    dim V = sum m(mu) |W mu| over the dominant weights mu of V, all in psi, and
    mu = sum c_i omega_i has |W mu| = |W| / |W_J| with J = {i : c_i = 0}.  So
    the gcd of |W| / |W_J| over the supports that the class realizes divides
    d(psi).  That gcd is a product over the simple factors, read here from
    psi.residue in closed form: (n+1)/gcd(n+1, k) for the class k of A_n, 2^n
    for the spin class of B_n, 2^(n-1) for the half-spin classes of D_n and
    2^(v2(n)+1) for the class of omega_1 of C_n and D_n.  These are the
    maximal indexes of Tits algebras (Merkurjev, "Maximal indexes of Tits
    algebras", Doc. Math. 1, 1996).  `tests/oracles.py` keeps the walk over
    supports that computes the gcd directly, as a referee.
    """
    certificate = 1
    for (family, rank), part in zip(rs.factors, psi.residue):
        if not any(part):
            continue
        if family == "A":
            certificate *= (rank + 1) // math.gcd(rank + 1, part[0])
        elif family == "B":
            certificate *= 2**rank
        elif part == class_group(family, rank)[1][0]:  # the class of omega_1, C_n or D_n
            certificate *= 2 * (rank & -rank)
        else:  # a half-spin class of D_n
            certificate *= 2 ** (rank - 1)
    return certificate


@dataclass(frozen=True)
class DPsiResult:
    """Outcome of a d(psi) computation.

    ``status`` is always "certified": the witnesses' gcd met the orbit
    certificate, so the value is exact.  ``witnesses`` records the (weight,
    dimension) pairs at which the running gcd strictly dropped.
    ``bound_used`` is the level at which the certificate was met.
    """

    value: int
    status: str
    witnesses: tuple[tuple[Vec, int], ...]
    bound_used: int


def d_psi(
    rs: RootSystem,
    psi: SchurClass,
    *,
    bound: int = DEFAULT_BOUND,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> DPsiResult:
    """GCD of the dimensions of the irreducibles with highest weight in psi.

    Dominant weights are enumerated level by level up to ``bound``
    (fundamental coefficient sum), and class members are kept as witnesses
    until their gcd meets `orbit_certificate`.  If the bound or
    ``node_limit`` runs out first, BudgetExceeded states the proven interval.
    """
    if psi.root_system != rs:
        raise NotInWeightLattice("class does not belong to this root system")
    if bound < 0 or node_limit < 0:
        raise UnsupportedType(f"bound and node_limit must be >= 0, got {bound} and {node_limit}")
    certificate = orbit_certificate(rs, psi)
    running = 0
    witnesses: list[tuple[Vec, int]] = []
    candidates = ((level, c) for level in range(bound + 1) for c in _level_tuples(level, rs.rank))
    levels_done = bound + 1
    for nodes, (level, coeffs) in enumerate(candidates, 1):
        if nodes > node_limit:
            levels_done = level
            break
        if class_residue(rs, coeffs) != psi.residue:
            continue
        mu = rs.from_fundamental(coeffs)
        dim = weyl_dim(rs, mu)
        if dim % certificate:
            raise NotDivisible(
                f"certificate {certificate} does not divide dim V({weight_str(mu)}) = {dim}"
            )
        merged = math.gcd(running, dim)
        if merged != running:
            witnesses.append((mu, dim))
            running = merged
        if running == certificate:
            return DPsiResult(running, CERTIFIED, tuple(witnesses), level)
    upper = f" | {running}" if running else ""
    raise BudgetExceeded(
        f"d(psi) of the class of ({weight_str(psi.rep)}) in {rs.describe()}: budget ran out "
        f"(bound {bound}, node limit {node_limit}) with {levels_done} of {bound + 1} levels done; "
        f"proven: {certificate} | d(psi){upper}"
    )
