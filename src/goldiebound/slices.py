"""Slice-torus restrictions for nilpotent orbits: the delta shift and friends.

A `SliceContext` fixes an orbit, the coordinate map t_Q -> t of the torus of
the reductive centralizer Q, and a generic parameter nu in t_Q.  The negative
system cut out by nu, computed once per context, determines the shift delta;
restricting lam - rho - delta to t_Q produces the character that drives the
dimension bound downstream.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import DimensionMismatch, NonGenericNu, NotDominant, NotEvenOrbit
from .nilorbit import OrbitDatum, ambient_root_system, tQ_embedding
from .rootsys import Q, Root, RootSystem, Vec, vec, vsub, weight_str


@dataclass(frozen=True)
class SliceContext:
    """An orbit, its slice torus t_Q and a parameter nu in t_Q.

    `embedding[i]` is the eta coordinate that eps_i carries, or None when eps_i
    is orthogonal to t_Q (see `nilorbit.tQ_embedding`).
    """

    g: RootSystem
    orbit: OrbitDatum
    nu: Vec
    embedding: tuple[Optional[int], ...]

    def __post_init__(self):
        if len(self.embedding) != self.g.ambient_dim:
            raise DimensionMismatch(
                f"the coordinate map has {len(self.embedding)} entries, but "
                f"{self.g.describe()} has {self.g.ambient_dim} coordinates"
            )
        for j in self.embedding:
            if j is not None and not 0 <= j < len(self.nu):
                raise DimensionMismatch(f"{j} is not a slot of nu = ({weight_str(self.nu)})")

    @property
    def slice_rank(self) -> int:
        return len(self.nu)

    @cached_property
    def nu_pairings(self) -> tuple[Fraction, ...]:
        """<alpha, nu> for each positive root alpha of g, nu read through the embedding."""
        nu_t = tuple(Q(0) if j is None else self.nu[j] for j in self.embedding)
        return tuple(alpha.pair(nu_t) for alpha in self.g.positive_roots)

    @cached_property
    def negative_system(self) -> tuple[Root, ...]:
        """The roots of g that pair negatively with nu: one of +-alpha for each
        positive root alpha that nu does not kill."""
        return tuple(
            alpha if v < 0 else alpha.negated()
            for alpha, v in zip(self.g.positive_roots, self.nu_pairings)
            if v != 0
        )

    @cached_property
    def delta(self) -> Vec:
        """`delta` of this context, computed once."""
        return delta(self)

    def nu_centralizer_roots(self) -> list[Root]:
        """The positive roots that pair to zero with nu."""
        return [alpha for alpha, v in zip(self.g.positive_roots, self.nu_pairings) if v == 0]


def restrict_to_tQ(lam: Sequence, ctx: SliceContext) -> Vec:
    """Pull a weight on t back to t_Q: each coordinate adds into its eta slot."""
    lam = ctx.g._check_dim(lam)
    out = [Q(0)] * ctx.slice_rank
    for c, j in zip(lam, ctx.embedding):
        if j is not None:
            out[j] += c
    return tuple(out)


def slice_context(orbit: OrbitDatum, nu: Optional[Sequence] = None) -> SliceContext:
    """Build the context, defaulting nu to (m, m-1, ..., 1), and check genericity.

    nu is generic when every root that survives restriction to t_Q pairs
    nonzero with it; otherwise the negative system would be ambiguous and
    NonGenericNu is raised.
    """
    g = ambient_root_system(orbit.partition)
    embedding = tQ_embedding(orbit.partition)
    m = len(set(embedding) - {None})
    if nu is None:
        nu = tuple(Q(m - i) for i in range(m))
    else:
        nu = vec(nu)
        if len(nu) != m:
            raise NonGenericNu(f"nu must have {m} coordinates, got {len(nu)}")
    ctx = SliceContext(g, orbit, nu, embedding)
    for alpha in ctx.nu_centralizer_roots():
        slots = [0] * m
        for i, c in alpha.support:
            if embedding[i] is not None:
                slots[embedding[i]] += c
        if any(slots):
            raise NonGenericNu(
                f"root ({weight_str(alpha.coords)}) survives restriction but pairs to zero "
                f"with nu = ({weight_str(nu)})"
            )
    return ctx


def _half_root_sum(
    ctx: SliceContext, roots: Iterable[Root], weight: Callable[[Fraction], int]
) -> Vec:
    """Half of sum weight(degree) * alpha over the roots, the degree being the
    h-degree: the supports add up in integers, halved once at the end."""
    total = [0] * ctx.g.ambient_dim
    for alpha in roots:
        w = weight(alpha.pair(ctx.orbit.h))
        for i, c in alpha.support:
            total[i] += w * c
    return tuple(Q(t, 2) for t in total)


def delta(ctx: SliceContext) -> Vec:
    """The shift: half the h-degree -1 part plus the full h-degree <= -2 part
    of the nu-negative system, summed over the root supports in integers."""
    return _half_root_sum(ctx, ctx.negative_system, lambda d: 1 if d == -1 else 2 if d <= -2 else 0)


def rho_zero(ctx: SliceContext) -> Vec:
    """Half the sum of the positive roots of h-degree zero, over their supports."""
    return _half_root_sum(ctx, ctx.g.positive_roots, lambda d: int(d == 0))


def underline_character(lam: Sequence, ctx: SliceContext) -> Vec:
    """Restriction of lam - rho - delta to t_Q."""
    lam = ctx.g._check_dim(lam)
    return restrict_to_tQ(vsub(vsub(lam, ctx.g.rho), ctx.delta), ctx)


def even_identity_check(ctx: SliceContext) -> bool:
    """For even orbits: delta and half the nonzero-degree negative system
    agree after restriction to t_Q; both are sums over root supports."""
    if not ctx.orbit.is_even:
        raise NotEvenOrbit(f"partition {ctx.orbit.partition.parts} is not even")
    half_nonzero = _half_root_sum(ctx, ctx.negative_system, lambda d: int(d != 0))
    return restrict_to_tQ(ctx.delta, ctx) == restrict_to_tQ(half_nonzero, ctx)


def principal_in_nu_centralizer(ctx: SliceContext) -> bool:
    """True when the nu-centralizer is a torus times rank-one factors in which
    the orbit's nilpotent is principal.

    The roots pairing to zero with nu form the semisimple part of z_g(nu);
    for a generic nu they are the roots killed by restriction.  Each such sp
    root predicts the Jordan blocks of a principal nilpotent on the natural
    module (two blocks of size 2 for eps_i - eps_j, one for 2 eps_i);
    untouched coordinates predict size-1 blocks.  The check succeeds when all
    components have rank one and the predicted blocks match the partition.
    """
    n = ctx.g.ambient_dim
    zero_roots = ctx.nu_centralizer_roots()
    for i, a in enumerate(zero_roots):
        for b in zero_roots[i + 1 :]:
            if a.pair(b) != 0:
                return False  # a component of rank >= 2
    blocks: list[int] = []
    touched: set[int] = set()
    for a in zero_roots:
        touched.update(i for i, _ in a.support)
        blocks.extend([2, 2] if len(a.support) == 2 else [2])
    untouched = n - len(touched)
    blocks.extend([1] * (2 * untouched))
    predicted = tuple(sorted(blocks, reverse=True))
    return predicted == ctx.orbit.partition.parts


@dataclass(frozen=True)
class IrreducibilityVerdict:
    """Outcome of the sufficient-condition test for V to be Q-irreducible."""

    irreducible: bool
    highest_weight: Optional[Vec]
    reason: Optional[str]


def irreducibility_verdict(
    ctx: SliceContext,
    omega: Sequence,
    q: RootSystem,
    underline_dim_one: bool,
) -> IrreducibilityVerdict:
    """Apply the three sufficient conditions in order; report the first failure.

    (i) the restricted module is one-dimensional, (ii) no orthogonal factor
    O(2) occurs in the reductive centralizer (O(1) factors are harmless),
    (iii) omega is minuscule for q.
    """
    omega = q.canonical(omega)
    if not q.is_dominant(omega):
        raise NotDominant(f"({weight_str(omega)}) is not dominant for {q.describe()}")
    if not underline_dim_one:
        return IrreducibilityVerdict(
            False, None, "(i) restricted module not known to be one-dimensional"
        )
    for kind, size in ctx.orbit.reductive_factors:
        if kind == "O" and size == 2:
            return IrreducibilityVerdict(
                False, None, "(ii) reductive centralizer has an O(2) factor"
            )
    if not q.is_minuscule(omega):
        return IrreducibilityVerdict(
            False, None, f"(iii) ({weight_str(omega)}) is not minuscule for {q.describe()}"
        )
    return IrreducibilityVerdict(True, omega, None)
