"""End-to-end Goldie-rank bound for the minimal-slice family of sp_2n.

`premet_example(n)` walks the whole chain for the orbit (2, ..., 2) of sp_2n
with highest weight rho/2: integral subsystem, slice data, the restricted
character, the minuscule module V of the centralizer quotient Q = O(n), its
class invariant d(psi), and finally the bound Grk <= dim V / d(psi) together
with the codimension of the corresponding primitive ideal's associated
variety cross-section.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InvariantViolation, NonGenericNu, NotDivisible, PipelineError, UnsupportedType
from .lattice import integral_subsystem, schur_class_of
from .nilorbit import OrbitDatum, Partition, orbit_datum, validate_partition
from .repdim import DPsiResult, d_psi, weyl_dim
from .rootsys import Q, RootSystem, Vec, normalize_factors, vec, vscale, weight_str
from .slices import (
    SliceContext,
    even_identity_check,
    irreducibility_verdict,
    principal_in_nu_centralizer,
    slice_context,
    underline_character,
)


def goldie_bound(dim_v: int, d: int) -> int:
    """The bound dim V / d, required to be an exact integer."""
    if d <= 0 or dim_v % d != 0:
        raise NotDivisible(f"{d} does not divide dim V = {dim_v}")
    return dim_v // d


@dataclass(frozen=True)
class BoundReport:
    """Everything the worked example computes, with its internal checks."""

    n: int
    g: RootSystem
    partition: Partition
    lam: Vec
    q: RootSystem
    omega: Vec
    omega_eta: Vec
    dim_v: int
    d_v: DPsiResult
    grk_bound: int
    a_orbit_size: int
    ideal_codim: int
    tightness: str
    verdicts: tuple[tuple[str, bool, str], ...]

    def __post_init__(self):
        if self.dim_v % self.d_v.value != 0:
            raise NotDivisible(f"{self.d_v.value} does not divide dim V = {self.dim_v}")
        if self.grk_bound != self.dim_v // self.d_v.value:
            raise InvariantViolation(f"Grk bound {self.grk_bound} is not dim V / d(psi)")
        if self.ideal_codim != self.a_orbit_size * self.dim_v**2:
            raise InvariantViolation(f"codimension {self.ideal_codim} is not a_orbit * (dim V)^2")


def _q_and_weight(n: int, omega_eta: Vec) -> tuple[RootSystem, Vec]:
    """The root system of [Q, Q] for Q = O(n) and omega_eta moved into it.

    For small n the Cartan types are aliases: so_3 = sl_2 and so_4 = sl_2 x
    sl_2, with the eta coordinates carried along the isomorphism.
    """
    m = n // 2
    if n % 2 == 1:
        if m >= 2:
            return RootSystem((("B", m),)), omega_eta
        (c,) = omega_eta
        return RootSystem((("A", 1),)), (c, -c)
    if m >= 3:
        return RootSystem((("D", m),)), omega_eta
    c1, c2 = omega_eta
    a, b = (c1 + c2) / 2, (c1 - c2) / 2
    return RootSystem((("A", 1), ("A", 1))), (a, -a, b, -b)


def premet_example(n: int, *, nu: Optional[Sequence] = None) -> BoundReport:
    """Run the sp_2n worked example for the orbit (2, ..., 2) at lam = rho/2.

    A given nu must lie in the dominant chamber nu_1 > ... > nu_m > 0 of t_Q,
    m = n // 2: the restricted character is computed against the standard
    positive system, which only that chamber's nu-negative system matches.
    """
    if n < 3:
        raise UnsupportedType("the worked example needs n >= 3")
    if nu is not None:
        nu = vec(nu)
        if len(nu) != n // 2 or not all(a > b for a, b in zip(nu, nu[1:] + (0,))):
            chamber = " > ".join(f"nu_{i}" for i in range(1, n // 2 + 1))
            raise NonGenericNu(
                f"nu = ({weight_str(nu)}) is not in the dominant chamber {chamber} > 0 of t_Q"
            )
    verdicts: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str):
        verdicts.append((name, ok, detail))
        if not ok:
            raise PipelineError(name, detail)

    g = RootSystem((("C", n),))
    lam = vscale(Q(1, 2), g.rho)

    sub = integral_subsystem(g.dual(), lam)
    check(
        "integral subsystem dimension",
        sub.dim == n * n,
        f"dim = {sub.dim}, expected n^2 = {n * n}",
    )
    expected = RootSystem(normalize_factors((("B", n // 2), ("D", (n + 1) // 2))))
    check(
        "integral subsystem type",
        sub.type_guess == expected,
        f"type = {sub.type_guess}, expected {expected}",
    )

    partition = validate_partition("sp", (2,) * n)
    orbit = orbit_datum(partition)
    ctx = slice_context(orbit, nu)
    factors = " x ".join(f"{kind}({size})" for kind, size in orbit.reductive_factors)
    check(
        "reductive centralizer",
        orbit.reductive_factors == (("O", n),) and orbit.component_group_order == 2,
        f"Q = {factors}, pi_0 order {orbit.component_group_order}",
    )
    agree = even_identity_check(ctx)
    relation = "agree" if agree else "differ"
    check(
        "even identity",
        agree,
        f"delta and half the nonzero-degree nu-negative roots {relation} on t_Q",
    )

    m = n // 2
    omega_eta = underline_character(lam, ctx)
    check(
        "restricted character",
        omega_eta == (Q(1, 2),) * m,
        f"omega_eta = ({weight_str(omega_eta)}), expected (1/2, ..., 1/2)",
    )

    q, omega = _q_and_weight(n, omega_eta)
    verdict = irreducibility_verdict(ctx, omega, q, principal_in_nu_centralizer(ctx))
    check(
        "irreducibility over Q",
        verdict.irreducible,
        verdict.reason or f"V({weight_str(omega)}) is irreducible over Q",
    )

    dim_v = weyl_dim(q, omega)
    psi = schur_class_of(q, omega)
    d_result = d_psi(q, psi)
    check(
        "class divisor",
        d_result.value > 0 and dim_v % d_result.value == 0,
        f"d(psi) = {d_result.value} ({d_result.status}), dim V = {dim_v}",
    )

    grk = goldie_bound(dim_v, d_result.value)
    a_orbit = 2 if n % 2 == 0 else 1
    codim = a_orbit * dim_v**2
    tightness = (
        "exact: Goldie rank is at least 1, so the bound 1 is attained"
        if grk == 1
        else "upper bound only"
    )
    return BoundReport(
        n=n,
        g=g,
        partition=partition,
        lam=lam,
        q=q,
        omega=omega,
        omega_eta=omega_eta,
        dim_v=dim_v,
        d_v=d_result,
        grk_bound=grk,
        a_orbit_size=a_orbit,
        ideal_codim=codim,
        tightness=tightness,
        verdicts=tuple(verdicts),
    )


def premet_table(start: int, stop: int) -> list[BoundReport]:
    """Reports for every n in [start, stop], each at its default nu."""
    if start < 3 or stop < start:
        raise UnsupportedType("table range must satisfy 3 <= start <= stop")
    return [premet_example(n) for n in range(start, stop + 1)]
