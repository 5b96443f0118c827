"""Root/weight lattice membership, central characters, and integral subsystems."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import NotDivisible, NotInWeightLattice
from .rootsys import (
    Root,
    RootSystem,
    Vec,
    coroot_pairing,
    rational_str,
    vdot,
    vsub,
    weight_str,
    zero_vec,
)


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


def in_weight_lattice(rs: RootSystem, w: Sequence) -> bool:
    """True when every simple coroot pairing of w is an integer."""
    return all(p.denominator == 1 for p in rs.fundamental_coefficients(w))


def in_root_lattice(rs: RootSystem, w: Sequence) -> bool:
    """True when w lies in the weight lattice with residue 0 in P/Q."""
    coeffs = rs.fundamental_coefficients(w)
    return in_weight_lattice(rs, w) and not any(map(any, class_residue(rs, coeffs)))


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


def _level_tuples(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _level_tuples(total - first, parts - 1):
            yield (first,) + rest


def schur_class_of(rs: RootSystem, lam: Sequence) -> SchurClass:
    """The root-lattice coset of lam, with its minuscule-or-zero representative."""
    if not in_weight_lattice(rs, lam):
        lam = weight_str(rs.canonical(lam))
        raise NotInWeightLattice(f"({lam}) is not in the weight lattice of {rs.describe()}")
    residue = class_residue(rs, rs.fundamental_coefficients(lam))
    rep: list[int] = []
    for (family, rank), part in zip(rs.factors, residue):
        # In every classical family the first omega_i of a nonzero class is minuscule.
        first = class_group(family, rank)[1].index(part) if any(part) else rank
        rep.extend(int(i == first) for i in range(rank))
    return SchurClass(rs, residue, rs.from_fundamental(rep))


def trivial_class(rs: RootSystem) -> SchurClass:
    return schur_class_of(rs, zero_vec(rs.ambient_dim))


@dataclass(frozen=True)
class IntegralSubsystem:
    """Roots of rs pairing integrally with a weight, plus derived data.

    ``dim`` is the dimension of the corresponding reductive subalgebra:
    the number of integral roots plus the full rank.  ``type_guess`` is the
    factor decomposition of the integral subsystem, or None when a component
    does not match a classical diagram.
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
    return IntegralSubsystem(roots, dim, _classify([r.coords for r in positive]))


def _classify(positive: list[Vec]) -> Optional[RootSystem]:
    """Identify the type of a closed subsystem from its positive roots."""
    if not positive:
        return None
    members = set(positive)
    simple = []
    for alpha in positive:
        if not any(vsub(alpha, beta) in members for beta in positive if beta != alpha):
            simple.append(alpha)
    # Split the simple roots into connected components of the Coxeter diagram.
    n = len(simple)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if vdot(simple[i], simple[j]) != 0:
                adj[i][j] = adj[j][i] = True
    unseen = set(range(n))
    factors: list[tuple[str, int]] = []
    while unseen:
        stack = [unseen.pop()]
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in list(unseen):
                if adj[i][j]:
                    unseen.remove(j)
                    stack.append(j)
        factor = _classify_component([simple[i] for i in comp])
        if factor is None:
            return None
        factors.append(factor)
    factors.sort()
    return RootSystem(tuple(factors))


def _classify_component(simple: list[Vec]) -> Optional[tuple[str, int]]:
    k = len(simple)
    if k == 1:
        return ("A", 1)
    pair = [[0] * k for _ in range(k)]  # Cartan integers <alpha_i, alpha_j^vee>
    for i in range(k):
        for j in range(k):
            if i != j:
                p = coroot_pairing(simple[i], simple[j])
                if p.denominator != 1:
                    raise NotDivisible(f"Cartan integer {rational_str(p)} is not an integer")
                pair[i][j] = int(p)
    degree = [sum(1 for j in range(k) if pair[i][j] != 0) for i in range(k)]
    if any(d > 3 for d in degree):
        return None
    forks = [i for i in range(k) if degree[i] == 3]
    ends = [i for i in range(k) if degree[i] == 1]

    if not forks:
        if len(ends) != 2:
            return None
        # Walk the path from one end to the other.
        order = [ends[0]]
        while len(order) < k:
            nxt = [
                j
                for j in range(k)
                if pair[order[-1]][j] != 0 and j not in order[-2:]
            ]
            if len(nxt) != 1:
                return None
            order.append(nxt[0])
        bonds = [pair[order[i]][order[i + 1]] * pair[order[i + 1]][order[i]] for i in range(k - 1)]
        if any(b not in (1, 2) for b in bonds):
            return None
        doubles = [i for i, b in enumerate(bonds) if b == 2]
        if not doubles:
            return ("A", k)
        if len(doubles) > 1 or doubles[0] not in (0, k - 2):
            return None
        if k == 2:
            return ("B", 2)
        # Orient so the double bond joins order[-2] and order[-1].
        if doubles[0] == 0:
            order.reverse()
        # <alpha_{k-2}, alpha_{k-1}^vee> = -2 means the end root is short.
        return ("B", k) if pair[order[-2]][order[-1]] == -2 else ("C", k)

    if len(forks) != 1:
        return None
    if any(pair[i][j] * pair[j][i] not in (0, 1) for i in range(k) for j in range(i + 1, k)):
        return None
    # Branch lengths from the fork node; type D has two branches of length 1.
    fork = forks[0]
    lengths = []
    for start in (j for j in range(k) if pair[fork][j] != 0):
        length = 1
        prev, cur = fork, start
        while degree[cur] == 2:
            nxt = [j for j in range(k) if pair[cur][j] != 0 and j != prev]
            if len(nxt) != 1 or degree[nxt[0]] == 3:
                return None
            prev, cur = cur, nxt[0]
            length += 1
        if degree[cur] != 1:
            return None
        lengths.append(length)
    if sorted(lengths)[:2] == [1, 1] and sum(lengths) == k - 1 and k >= 4:
        return ("D", k)
    return None
