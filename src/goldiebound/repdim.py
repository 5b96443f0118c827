"""Weyl dimensions and the divisor invariant d(psi) of a central character.

d(psi) is the greatest common divisor of the dimensions of the irreducible
representations whose highest weight lies in a fixed root-lattice coset psi.
It equals the index of the corresponding homogeneous Azumaya algebra.
`orbit_certificate` gives a proven divisor of every dimension in the class, a
closed form per simple factor read from the class's residue in P/Q.  `d_psi`
takes closed-form members of the class, one short list per simple factor with
closed-form dimensions (hook-content, exterior powers, spin), and keeps those
that lower the gcd until it meets the certificate, so every value it returns
is exact and neither a search nor a Weyl product is made.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InvariantViolation, NotDivisible, NotDominant, NotInWeightLattice
from .lattice import SchurClass, class_group
from .rootsys import RootSystem, Vec, weight_str

CERTIFIED = "certified"


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
    coeffs = rs.fundamental_coefficients(lam)
    if any(c < 0 for c in coeffs):
        raise NotDominant(f"({weight_str(lam)}) is not dominant for {rs.describe()}")
    if any(c.denominator != 1 for c in coeffs):
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


def _factor_certificate(family: str, rank: int, part: tuple[int, ...]) -> int:
    """`orbit_certificate` of the class ``part`` of one simple factor."""
    if not any(part):
        return 1
    if family == "A":
        return (rank + 1) // math.gcd(rank + 1, part[0])
    if family == "B":
        return 2**rank
    if part == class_group(family, rank)[1][0]:  # the class of omega_1, C_n or D_n
        return 2 * (rank & -rank)
    return 2 ** (rank - 1)  # a half-spin class of D_n


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
    return math.prod(
        _factor_certificate(family, rank, part)
        for (family, rank), part in zip(rs.factors, psi.residue)
    )


def _class_members(family: str, rank: int, part: tuple[int, ...]) -> list[tuple[tuple, int]]:
    """Dominant members of the class ``part`` of one simple factor, as
    (fundamental coefficients, dimension) pairs, whose dimensions have gcd
    `_factor_certificate`.  Each dimension is a classical closed form (Fulton
    and Harris, Representation Theory, sections 6, 17 and 19):

    - the trivial class: the zero weight, 1;
    - the class k of A_n: the hooks (k - j) omega_1 + omega_j, j = k, ..., 1,
      C(n + 1 + k - j, k) C(k - 1, j - 1) by the hook-content formula;
    - a spin class: omega_n of B_n, 2^n; omega_(n-1) or omega_n of D_n, 2^(n-1);
    - the class of omega_1 of C_n: the odd omega_i, C(2n, i) - C(2n, i - 2);
    - the class of omega_1 of D_n: the odd omega_i with i <= n - 2, C(2n, i),
      and 2 omega_n, C(2n, n) / 2, for n odd.
    """

    def omega(i: int, c: int = 1) -> tuple[int, ...]:  # c omega_i; omega(0) is the zero weight
        return tuple(c * (m == i) for m in range(1, rank + 1))

    if not any(part):
        return [(omega(0), 1)]
    images = class_group(family, rank)[1]
    if family == "A":
        k = part[0]
        hooks = ((j, tuple(map(sum, zip(omega(1, k - j), omega(j))))) for j in range(k, 0, -1))
        return [(c, math.comb(rank + 1 + k - j, k) * math.comb(k - 1, j - 1)) for j, c in hooks]
    if family == "B" or part != images[0]:  # a spin or half-spin class
        return [(omega(images.index(part) + 1), 2 ** (rank - (family == "D")))]
    two_n, odd = 2 * rank, range(1, rank + 1 if family == "C" else rank - 1, 2)
    if family == "C":  # the kernel of the contraction Lambda^i V -> Lambda^(i-2) V
        return [
            (omega(i), math.comb(two_n, i) - (math.comb(two_n, i - 2) if i > 1 else 0))
            for i in odd
        ]
    members = [(omega(i), math.comb(two_n, i)) for i in odd]  # Lambda^i V
    return members + [(omega(rank, 2), math.comb(two_n, rank) // 2)] if rank % 2 else members


@dataclass(frozen=True)
class DPsiResult:
    """Outcome of a d(psi) computation.

    ``status`` is always "certified": the witnesses' gcd met the orbit
    certificate, so the value is exact.  ``witnesses`` records the (weight,
    dimension) pairs at which the running gcd strictly dropped.
    ``bound_used`` is the level (fundamental-coefficient sum) of the last
    witness.
    """

    value: int
    status: str
    witnesses: tuple[tuple[Vec, int], ...]
    bound_used: int


def _by_level(member: tuple) -> tuple[int, tuple[int, ...]]:
    return sum(member[0]), member[0]


def _gcd_drops(members, certificate: int, what: str) -> list[tuple]:
    """The members, taken in order, whose dimension (their last entry)
    strictly lowers the running gcd, up to the one that brings it to
    ``certificate``; InvariantViolation if none does."""
    drops, running = [], 0
    for member in members:
        if math.gcd(running, member[-1]) != running:
            running = math.gcd(running, member[-1])
            drops.append(member)
            if running == certificate:
                return drops
    raise InvariantViolation(f"{what} have gcd {running}, not the certificate {certificate}")


def d_psi(rs: RootSystem, psi: SchurClass) -> DPsiResult:
    """GCD of the dimensions of the irreducibles with highest weight in psi.

    Each simple factor's closed-form members and dimensions (`_class_members`)
    are taken by level (fundamental-coefficient sum), then by coefficient
    tuple, and kept while they strictly lower the factor's gcd, until it
    meets the factor's certificate.  The products of the kept members, in the
    same order, give the witnesses the same way; the gcd of the products is
    the product of the factors' gcds, so it meets `orbit_certificate`.  No
    Weyl product is taken, and only the kept witnesses are built as weights.
    A gcd that misses its certificate raises InvariantViolation.
    """
    if psi.root_system != rs:
        raise NotInWeightLattice("class does not belong to this root system")
    kept_per_factor = []
    for (family, rank), part in zip(rs.factors, psi.residue):
        members = sorted(_class_members(family, rank, part), key=_by_level)
        what = f"the closed-form members of the class {part} of {family}{rank}"
        kept_per_factor.append(_gcd_drops(members, _factor_certificate(family, rank, part), what))
    products = sorted(
        (
            (sum((c for c, _ in combo), ()), math.prod(dim for _, dim in combo))
            for combo in itertools.product(*kept_per_factor)
        ),
        key=_by_level,
    )
    certificate = orbit_certificate(rs, psi)
    drops = _gcd_drops(products, certificate, "the products of the factors' members")
    witnesses = tuple((rs.from_fundamental(c), dim) for c, dim in drops)
    return DPsiResult(certificate, CERTIFIED, witnesses, sum(drops[-1][0]))
