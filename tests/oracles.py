"""Independent oracles the tests check the library against.

Everything here recomputes results from first principles by brute force:
explicit signed-permutation Weyl groups, Freudenthal's multiplicity recursion,
Weyl's product in `Fraction`s over dense coordinates, coordinate-box lattice
scans, and exact linear algebra on honest matrices for centralizers of
nilpotents.  None of it shares code paths with the library beyond the basic
vector helpers, with two exceptions.  The section on library forms keeps
what the library no longer carries: the dense 0/1 matrix of the slice-torus
inclusion t_Q -> t with its matrix products, the dense root sums behind
delta, rho_0 and the even identity, the dense principal-nilpotent test, the
level-by-level class enumerator and the d(psi) search built on it, the
checked vector sum `vadd`, `zero_vec`, weight- and root-lattice membership,
the trivial class, gauge-blind weight equality and the long and short root
classes.
The last section keeps two searches the library replaced by closed forms, the
Dynkin-diagram recognizer of integral subsystems and the support walk behind
the class certificate, as referees.  They take root systems, partitions and
the P/Q class tables from the library and nothing else.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Optional

from goldiebound.errors import DimensionMismatch, NotDivisible, NotDominant, NotInWeightLattice
from goldiebound.lattice import (
    SchurClass,
    class_group,
    class_residue,
    schur_class_of,
)
from goldiebound.nilorbit import Partition
from goldiebound.repdim import DPsiResult, weyl_dim
from goldiebound.rootsys import (
    Root,
    RootSystem,
    Vec,
    coroot_pairing,
    rational_str,
    vdot,
    vsub,
    weight_str,
)

Q = Fraction


# -- exact linear algebra -----------------------------------------------------


def exact_rank(rows: list[list[Fraction]]) -> int:
    rows = [list(map(Q, r)) for r in rows if any(r)]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def solve_exact(columns: list[list[Fraction]], rhs: list[Fraction]):
    """Coefficients x with sum_j x_j * columns[j] = rhs, or None if unsolvable."""
    nrows = len(rhs)
    ncols = len(columns)
    aug = [[Q(columns[j][i]) for j in range(ncols)] + [Q(rhs[i])] for i in range(nrows)]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        lead = aug[rank][col]
        aug[rank] = [a / lead for a in aug[rank]]
        for i in range(nrows):
            if i != rank and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, nrows):
        if aug[i][ncols] != 0:
            return None
    x = [Q(0)] * ncols
    for row, col in enumerate(pivots):
        x[col] = aug[row][ncols]
    return x


# -- brute-force Weyl groups --------------------------------------------------


def _block_elements(family: str, rank: int, dim: int):
    if family == "A":
        return [(perm, (1,) * dim) for perm in itertools.permutations(range(dim))]
    perms = list(itertools.permutations(range(rank)))
    signs = list(itertools.product((1, -1), repeat=rank))
    if family == "D":
        signs = [s for s in signs if s.count(-1) % 2 == 0]
    return [(perm, s) for perm in perms for s in signs]


def weyl_elements(rs):
    """All Weyl-group elements of rs as per-block (permutation, signs) data."""
    blocks = []
    for family, rank, offset, dim in rs.blocks:
        blocks.append(_block_elements(family, rank, dim))
    return list(itertools.product(*blocks))


def weyl_apply(rs, element, v: tuple) -> tuple:
    out = []
    for (family, rank, offset, dim), (perm, signs) in zip(rs.blocks, element):
        part = v[offset : offset + dim]
        out.extend(signs[i] * part[perm[i]] for i in range(dim))
    return tuple(out)


def brute_orbit(rs, v: tuple) -> set:
    return {weyl_apply(rs, g, tuple(map(Q, v))) for g in weyl_elements(rs)}


# -- independent lattice / dominance rules (epsilon coordinates) --------------


def scan_is_dominant(family: str, part: tuple) -> bool:
    if family == "A":
        return all(part[i] >= part[i + 1] for i in range(len(part) - 1))
    if family in ("B", "C"):
        return all(part[i] >= part[i + 1] for i in range(len(part) - 1)) and part[-1] >= 0
    return all(part[i] >= part[i + 1] for i in range(len(part) - 1)) and part[-2] >= -part[-1]


def scan_in_weight_lattice(family: str, part: tuple) -> bool:
    if family in ("A", "C"):
        return all(c.denominator == 1 for c in part)
    denominators = {c.denominator for c in part}
    return denominators <= {1} or denominators <= {1, 2} and all(
        c.denominator == 2 for c in part
    )


def scan_in_root_lattice(family: str, part: tuple) -> bool:
    if any(c.denominator != 1 for c in part):
        return False
    total = sum(part)
    if family == "A":
        return total % len(part) == 0
    if family in ("C", "D"):
        return total % 2 == 0
    return True


def scan_level(family: str, part: tuple) -> Fraction:
    """Sum of fundamental coefficients of a dominant weight, per family."""
    if family == "A":
        return part[0] - part[-1]
    if family == "B":
        return part[0] + part[-1]
    if family == "C":
        return part[0]
    return part[0] + part[-2]


def scan_dominant_in_class(family: str, rank: int, rep: tuple, bound: int) -> list[tuple]:
    """All dominant weights of the class with level <= bound, by grid scan."""
    grid = [Q(k, 2) for k in range(-2 * bound, 2 * bound + 1)]
    dim = rank + 1 if family == "A" else rank
    found = []
    for part in itertools.product(grid, repeat=dim):
        if family == "A" and part[-1] != 0:
            continue
        if not scan_is_dominant(family, part):
            continue
        if not scan_in_weight_lattice(family, part):
            continue
        diff = tuple(a - b for a, b in zip(part, rep))
        if family == "A" and diff[-1] != 0:
            diff = tuple(c - diff[-1] for c in diff)
        if not scan_in_root_lattice(family, diff):
            continue
        if scan_level(family, part) > bound:
            continue
        found.append(part)
    return found


def scan_height(family: str, part: tuple) -> Fraction:
    """Pairing with half the sum of the positive coroots, per family.

    That half sum is rho of the dual family: (n, ..., 1) for B_n,
    (n - 1/2, ..., 1/2) for C_n, (n-1, ..., 0) for D_n and the centred
    (n/2, ..., -n/2) for A_n, which ignores the all-ones direction.
    """
    n = len(part)
    if family == "A":
        dual_rho = [Q(n - 1 - 2 * i, 2) for i in range(n)]
    elif family == "B":
        dual_rho = [Q(n - i) for i in range(n)]
    elif family == "C":
        dual_rho = [Q(2 * (n - i) - 1, 2) for i in range(n)]
    else:
        dual_rho = [Q(n - 1 - i) for i in range(n)]
    return sum((c * x for c, x in zip(dual_rho, part)), Q(0))


def scan_dominant_in_product_class(rs, member: tuple, bounds: list[int]) -> list[tuple]:
    """Dominant weights in the class of member, each factor block scanned to its own bound.

    A class of a product is the product of the classes of its factor blocks.
    """
    blocks = [
        scan_dominant_in_class(family, rank, tuple(member[offset : offset + dim]), bound)
        for (family, rank, offset, dim), bound in zip(rs.blocks, bounds)
    ]
    return [sum(parts, ()) for parts in itertools.product(*blocks)]


# -- library forms kept for the tests ------------------------------------------


def dense_tQ_embedding(p: Partition) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of the slice-torus inclusion t_Q -> t, rows indexed by epsilon coordinates.

    For the sp orbit (2, ..., 2), eta_j -> eps_{2j} + eps_{2j+1} (0-based),
    and an odd leftover coordinate is orthogonal to t_Q; for the zero orbit
    t_Q is all of t.
    """
    if p.family != "sp":
        raise ValueError(f"no slice torus for {p.family} partitions")
    rank = p.N // 2
    if all(part == 1 for part in p.parts):
        return tuple(tuple(Q(int(i == j)) for j in range(rank)) for i in range(rank))
    if any(part != 2 for part in p.parts):
        raise ValueError(f"no slice torus for {p.family} partition {p.parts}")
    m = len(p.parts) // 2
    return tuple(tuple(Q(int(i // 2 == j)) for j in range(m)) for i in range(rank))


def dense_restrict(lam: tuple, matrix) -> tuple:
    """Pull a weight on t back to t_Q: the product lam * matrix."""
    columns = len(matrix[0]) if matrix else 0
    return tuple(
        sum((lam[i] * matrix[i][j] for i in range(len(lam))), Q(0)) for j in range(columns)
    )


def dense_push_nu(nu: tuple, matrix) -> tuple:
    """The parameter nu as a point of t: the product matrix * nu."""
    return tuple(sum((row[j] * nu[j] for j in range(len(nu))), Q(0)) for row in matrix)


def dense_delta(ctx) -> tuple:
    """The shift delta, summed root by root over dense coordinates."""
    half = zero_vec(ctx.g.ambient_dim)
    whole = zero_vec(ctx.g.ambient_dim)
    for alpha in ctx.negative_system:
        degree = vdot(alpha.coords, ctx.orbit.h)
        if degree == -1:
            half = tuple(a + b for a, b in zip(half, alpha.coords))
        elif degree <= -2:
            whole = tuple(a + b for a, b in zip(whole, alpha.coords))
    return tuple(a / 2 + b for a, b in zip(half, whole))


def dense_rho_zero(ctx) -> tuple:
    """Half the sum of the positive roots of h-degree zero, over dense coordinates."""
    total = zero_vec(ctx.g.ambient_dim)
    for alpha in ctx.g.positive_roots:
        if vdot(alpha.coords, ctx.orbit.h) == 0:
            total = tuple(a + b for a, b in zip(total, alpha.coords))
    return tuple(a / 2 for a in total)


def dense_half_nonzero(ctx) -> tuple:
    """Half the sum of the nu-negative roots of nonzero h-degree, over dense coordinates."""
    total = zero_vec(ctx.g.ambient_dim)
    for alpha in ctx.negative_system:
        if vdot(alpha.coords, ctx.orbit.h) != 0:
            total = tuple(a + b for a, b in zip(total, alpha.coords))
    return tuple(a / 2 for a in total)


def dense_principal_in_nu_centralizer(ctx) -> bool:
    """The principal-nilpotent test of `slices`, read off dense root vectors."""
    zero_roots = [alpha.coords for alpha in ctx.nu_centralizer_roots()]
    for i, a in enumerate(zero_roots):
        for b in zero_roots[i + 1 :]:
            if vdot(a, b) != 0:
                return False
    blocks = []
    touched = set()
    for a in zero_roots:
        support = [i for i, c in enumerate(a) if c != 0]
        touched.update(support)
        blocks.extend([2, 2] if len(support) == 2 else [2])
    blocks.extend([1] * (2 * (ctx.g.ambient_dim - len(touched))))
    return tuple(sorted(blocks, reverse=True)) == ctx.orbit.partition.parts


def _level_tuples(total: int, parts: int):
    """Every tuple of ``parts`` non-negative integers summing to ``total``, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _level_tuples(total - first, parts - 1):
            yield (first,) + rest


def zero_vec(dim: int) -> Vec:
    return (Q(0),) * dim


def vadd(x: Vec, y: Vec) -> Vec:
    if len(x) != len(y):
        raise DimensionMismatch(f"cannot add vectors of length {len(x)} and {len(y)}")
    return tuple(a + b for a, b in zip(x, y))


def in_weight_lattice(rs: RootSystem, w) -> bool:
    """True when every simple coroot pairing of w is an integer."""
    return all(p.denominator == 1 for p in rs.fundamental_coefficients(w))


def in_root_lattice(rs: RootSystem, w) -> bool:
    """True when w lies in the weight lattice with residue 0 in P/Q."""
    coeffs = rs.fundamental_coefficients(w)
    return in_weight_lattice(rs, w) and not any(map(any, class_residue(rs, coeffs)))


def trivial_class(rs: RootSystem) -> SchurClass:
    return schur_class_of(rs, zero_vec(rs.ambient_dim))


def enumerated_d_psi(
    rs: RootSystem, psi: SchurClass, bound: int = 8, node_limit: int = 200_000
) -> DPsiResult:
    """d(psi) by the level-by-level enumeration the library made before its
    closed-form witnesses.

    Fundamental-coefficient tuples are walked by level up to ``bound``,
    lexicographically within a level, at most ``node_limit`` of them.  A class
    member is a witness when its dimension strictly lowers the running gcd,
    and the walk stops once the gcd meets `walk_certificate`: the status is
    then "certified".  If the budget runs out first, the status is "bounded"
    and the value is the running gcd, a multiple of d(psi) (0 when no member
    was reached).
    """
    certificate = walk_certificate(rs, psi)
    running, witnesses, level = 0, [], 0
    tuples = (
        (level, coeffs) for level in range(bound + 1) for coeffs in _level_tuples(level, rs.rank)
    )
    for level, coeffs in itertools.islice(tuples, node_limit):
        if class_residue(rs, coeffs) != psi.residue:
            continue
        mu = rs.from_fundamental(coeffs)
        dim = weyl_dim(rs, mu)
        if math.gcd(running, dim) != running:
            running = math.gcd(running, dim)
            witnesses.append((mu, dim))
        if running == certificate:
            return DPsiResult(running, "certified", tuple(witnesses), level)
    return DPsiResult(running, "bounded", tuple(witnesses), level)


def enumerate_dominant_in_class(rs: RootSystem, psi: SchurClass, bound: int) -> list[Vec]:
    """Dominant weights of psi with fundamental-coefficient level <= bound.

    Weights are listed level by level (level = sum of the coefficients in the
    fundamental-weight basis), lexicographically within a level.
    """
    out: list[Vec] = []
    for level in range(bound + 1):
        batch = [
            rs.from_fundamental(coeffs)
            for coeffs in _level_tuples(level, rs.rank)
            if class_residue(rs, coeffs) == psi.residue
        ]
        out.extend(sorted(batch))
    return out


def weights_equal(rs: RootSystem, x, y) -> bool:
    """Equality of weights, blind to the all-ones direction of each A-block."""
    return rs.canonical(x) == rs.canonical(y)


def root_length(rs: RootSystem, alpha: Root) -> Optional[str]:
    """"long" or "short" in types B and C, None in the simply laced types A and D."""
    index = next(i for i, c in enumerate(alpha.coords) if c)
    family = next(f for f, _, offset, dim in rs.blocks if offset <= index < offset + dim)
    if family in ("A", "D"):
        return None
    longest = 2 if family == "B" else 4
    return "long" if vdot(alpha.coords, alpha.coords) == longest else "short"


# -- Freudenthal dimension oracle ----------------------------------------------


def _vsub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def _vdot(x, y):
    return sum((a * b for a, b in zip(x, y)), Q(0))


def _project_zero_sum(rs, v: tuple) -> tuple:
    """Shift each A-block to sum zero (the gauge in which norms are honest)."""
    out = list(v)
    for family, rank, offset, dim in rs.blocks:
        if family == "A":
            mean = sum(out[offset : offset + dim]) / dim
            for i in range(offset, offset + dim):
                out[i] -= mean
    return tuple(out)


def weight_multiplicities(rs, lam) -> dict:
    """Multiplicities of the dominant weights of V(lam), by Freudenthal."""
    lam = rs.canonical(lam)
    rho = rs.rho
    positive = [r.coords for r in rs.positive_roots]
    simple = [r.coords for r in rs.simple_roots]
    rho_check = [
        tuple(2 * c / _vdot(a, a) for c in a) for a in positive
    ]
    rho_check_vec = tuple(
        sum(col) / 2 for col in zip(*rho_check)
    )
    height = lambda v: _vdot(v, rho_check_vec)
    units = [tuple(int(i == k) for i in range(rs.rank)) for k in range(rs.rank)]
    min_step = min(height(rs.from_fundamental(unit)) for unit in units)
    max_level = int(height(lam) / min_step) + 1

    def level_tuples(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in level_tuples(total - first, parts - 1):
                yield (first,) + rest

    candidates = []
    for level in range(max_level + 1):
        for coeffs in level_tuples(level, rs.rank):
            mu = rs.from_fundamental(coeffs)
            diff = _project_zero_sum(rs, _vsub(lam, mu))
            coeffs_in_simple = solve_exact([list(a) for a in simple], list(diff))
            if coeffs_in_simple is None:
                continue
            if all(c.denominator == 1 and c >= 0 for c in coeffs_in_simple):
                candidates.append(mu)

    c2 = lambda v: _vdot(
        _project_zero_sum(rs, vadd(v, rho)), _project_zero_sum(rs, vadd(v, rho))
    )
    candidates.sort(key=height, reverse=True)
    mults: dict = {}
    for mu in candidates:
        if mu == lam:
            mults[mu] = 1
            continue
        total = Q(0)
        for alpha in positive:
            k = 1
            while True:
                nu = rs.canonical(vadd(mu, tuple(k * c for c in alpha)))
                dom = rs.dominant_representative(nu)
                if dom not in mults or mults[dom] == 0:
                    break
                total += mults[dom] * _vdot(nu, alpha)
                k += 1
        denom = c2(lam) - c2(mu)
        mult = 2 * total / denom
        assert mult.denominator == 1
        mults[mu] = int(mult)
    return {mu: m for mu, m in mults.items() if m}


def freudenthal_dim(rs, lam) -> int:
    mults = weight_multiplicities(rs, lam)
    return sum(m * len(brute_orbit(rs, mu)) for mu, m in mults.items())


def fraction_weyl_dim(rs, lam) -> int:
    """Weyl's product of coroot pairings in `Fraction`s, over dense coordinates.

    rho is half the sum of the positive roots' coordinates, and each pairing is
    a dot product over the whole rank, so neither the roots' supports nor the
    closed form of rho enters.
    """
    lam = rs.canonical(lam)
    if not rs.is_dominant(lam):
        raise NotDominant(f"({weight_str(lam)}) is not dominant for {rs.describe()}")
    if not in_weight_lattice(rs, lam):
        raise NotInWeightLattice(
            f"({weight_str(lam)}) is not in the weight lattice of {rs.describe()}"
        )
    rho = (Q(0),) * rs.ambient_dim
    for alpha in rs.positive_roots:
        rho = vadd(rho, alpha.coords)
    rho = tuple(c / 2 for c in rho)
    shifted = vadd(lam, rho)
    dim = Q(1)
    for alpha in rs.positive_roots:
        dim *= coroot_pairing(shifted, alpha.coords) / coroot_pairing(rho, alpha.coords)
    if dim.denominator != 1:
        raise NotDivisible(f"the Weyl product for ({weight_str(lam)}) is not an integer")
    return int(dim)


# -- honest matrix centralizers -----------------------------------------------


def _single_block(k: int):
    """Shift nilpotent on w_0..w_{k-1} and the form beta_k((-1)^i at i+j=k-1)."""
    e = [[Q(0)] * k for _ in range(k)]
    for i in range(1, k):
        e[i - 1][i] = Q(1)
    form = [[Q(0)] * k for _ in range(k)]
    for i in range(k):
        form[i][k - 1 - i] = Q((-1) ** i)
    return e, form


def nilpotent_and_form(family: str, parts: tuple):
    """A nilpotent with the given Jordan type preserving a form of the right
    symmetry: skew for sp, symmetric for so."""
    want_symmetric = family == "so"
    blocks = []  # (e_block, form_block)
    leftovers: dict[int, int] = {}
    for k in parts:
        beta_symmetric = k % 2 == 1
        if beta_symmetric == want_symmetric:
            blocks.append(_single_block(k))
        else:
            leftovers[k] = leftovers.get(k, 0) + 1
    for k, count in sorted(leftovers.items()):
        assert count % 2 == 0, "parity-mismatched parts must pair up"
        e1, beta = _single_block(k)
        for _ in range(count // 2):
            # paired block on (u1, u2): B((u1,u2),(v1,v2)) = beta(u1,v2) - beta(u2,v1)
            size = 2 * k
            e = [[Q(0)] * size for _ in range(size)]
            form = [[Q(0)] * size for _ in range(size)]
            for i in range(k):
                for j in range(k):
                    e[i][j] = e1[i][j]
                    e[k + i][k + j] = e1[i][j]
                    form[i][k + j] = beta[i][j]
                    form[k + i][j] = -beta[i][j]
            blocks.append((e, form))
    n = sum(len(b[0]) for b in blocks)
    e = [[Q(0)] * n for _ in range(n)]
    J = [[Q(0)] * n for _ in range(n)]
    offset = 0
    for eb, fb in blocks:
        k = len(eb)
        for i in range(k):
            for j in range(k):
                e[offset + i][offset + j] = eb[i][j]
                J[offset + i][offset + j] = fb[i][j]
        offset += k
    for i in range(n):
        for j in range(n):
            assert J[i][j] == (J[j][i] if want_symmetric else -J[j][i])
    return e, J


def _grading_diagonal(parts: tuple, family: str) -> list[Fraction]:
    """Diagonal h with [h, e] = 2e for the block nilpotent above."""
    want_symmetric = family == "so"
    diag: list[Fraction] = []
    leftovers: dict[int, int] = {}
    for k in parts:
        if (k % 2 == 1) == want_symmetric:
            diag.extend(Q(k - 1 - 2 * i) for i in range(k))
        else:
            leftovers[k] = leftovers.get(k, 0) + 1
    for k, count in sorted(leftovers.items()):
        for _ in range(count // 2):
            diag.extend(Q(k - 1 - 2 * i) for i in range(k))
            diag.extend(Q(k - 1 - 2 * i) for i in range(k))
    return diag


def _flatten_constraints(n: int, constraint_rows):
    """Rows of a linear system in the n*n entries of X."""
    return [[row[i][j] for i in range(n) for j in range(n)] for row in constraint_rows]


def _mat_mul(A, B):
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(n)), Q(0)) for j in range(n)] for i in range(n)]


@functools.cache
def centralizer_dims_by_matrices(family: str, parts: tuple):
    """(dim g, dim z_g(e), dim z_g(e) in degree 0) by exact nullspace counts.

    Cached: two test modules check every partition with N <= 8 against it.
    """
    e, J = nilpotent_and_form(family, parts)
    n = len(e)
    # Constraint rows: one per matrix entry of X^T J + J X and of X e - e X.
    # Entry (i, j) of X^T J + J X is sum_k X[k][i] J[k][j] + J[i][k] X[k][j].
    def form_rows():
        rows = []
        for i in range(n):
            for j in range(n):
                row = [[Q(0)] * n for _ in range(n)]
                for k in range(n):
                    row[k][i] += J[k][j]
                    row[k][j] += J[i][k]
                rows.append(row)
        return rows

    def commute_rows(M):
        rows = []
        for i in range(n):
            for j in range(n):
                row = [[Q(0)] * n for _ in range(n)]
                # (X M - M X)[i][j] = sum_k X[i][k] M[k][j] - M[i][k] X[k][j]
                for k in range(n):
                    row[i][k] += M[k][j]
                    row[k][j] -= M[i][k]
                rows.append(row)
        return rows

    g_rows = _flatten_constraints(n, form_rows())
    dim_g = n * n - exact_rank(g_rows)
    z_rows = g_rows + _flatten_constraints(n, commute_rows(e))
    dim_z = n * n - exact_rank(z_rows)
    h = _grading_diagonal(parts, family)
    H = [[h[i] if i == j else Q(0) for j in range(n)] for i in range(n)]
    z0_rows = z_rows + _flatten_constraints(n, commute_rows(H))
    dim_z0 = n * n - exact_rank(z0_rows)
    # sanity: e really has the requested Jordan type and lies in g
    Et = [[e[j][i] for j in range(n)] for i in range(n)]
    lhs = [[sum((Et[i][k] * J[k][j] + J[i][k] * e[k][j] for k in range(n)), Q(0)) for j in range(n)] for i in range(n)]
    assert all(c == 0 for row in lhs for c in row)
    assert _jordan_type(e) == tuple(sorted(parts, reverse=True))
    assert all(
        sum((H[i][k] * e[k][j] - e[i][k] * H[k][j] for k in range(n)), Q(0)) == 2 * e[i][j]
        for i in range(n)
        for j in range(n)
    )
    return dim_g, dim_z, dim_z0


def _jordan_type(e) -> tuple:
    n = len(e)
    ranks = [n]
    power = [row[:] for row in e]
    while any(c != 0 for row in power for c in row):
        ranks.append(exact_rank([row[:] for row in power]))
        power = _mat_mul(power, e)
    ranks.append(0)
    # number of blocks of size >= s is rank(e^(s-1)) - rank(e^s)
    sizes = []
    for s in range(1, len(ranks)):
        count = (ranks[s - 1] - ranks[s]) - (ranks[s] - ranks[s + 1] if s + 1 < len(ranks) else 0)
        sizes.extend([s] * count)
    return tuple(sorted(sizes, reverse=True))


# -- searches the library replaced by closed forms -----------------------------


def diagram_type(positive: list[Vec]) -> Optional[RootSystem]:
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


def _parabolic_order(family: str, rank: int, nodes: frozenset) -> int:
    """Order of the parabolic subgroup W_J of one simple factor, J a set of
    nodes (0-based, Bourbaki order), as a product over the runs of J."""
    spine = rank - 2 if family == "D" else rank  # D_n forks into nodes n-2 and n-1
    order, run = 1, 0
    for i in range(spine):
        if i in nodes:
            run += 1
        else:
            order, run = order * math.factorial(run + 1), 0
    if family == "A":
        return order * math.factorial(run + 1)
    if family in ("B", "C"):  # a last run reaching the special end is of type B/C
        return order * 2**run * math.factorial(run)
    # D_n: the last run joined by both fork ends is of type D, by one of type A.
    ends = len(nodes & {rank - 2, rank - 1})
    return order * (2 ** (run + 1) if ends == 2 else 1) * math.factorial(run + 1 + min(ends, 1))



def walk_certificate(rs: RootSystem, psi: SchurClass) -> int:
    """A proven divisor of every dimension in the class psi.

    dim V = sum m(mu) |W mu| over the dominant weights mu of V, all in psi, and
    mu = sum c_i omega_i has |W mu| = |W| / |W_J| with J = {i : c_i = 0}.  Some
    mu in psi has support K = the complement of J exactly when the classes of
    omega_i, i in K, generate a subgroup of P/Q containing psi.  So the gcd of
    |W| / |W_J| over those J divides d(psi); it is a product over the factors.
    A larger K gives a multiple, so the search stops at the first K reaching
    psi and skips nodes that do not enlarge the subgroup: every minimal K stays.
    """
    certificate = 1
    for (family, rank), target in zip(rs.factors, psi.residue):
        moduli, images = class_group(family, rank)
        nodes = frozenset(range(rank))
        weyl = _parabolic_order(family, rank, nodes)
        divisor = 0
        stack = [((), frozenset({(0,) * len(moduli)}), 0)]  # support, its subgroup, next node
        while stack:
            support, span, start = stack.pop()
            if target in span:
                parabolic = _parabolic_order(family, rank, nodes.difference(support))
                divisor = math.gcd(divisor, weyl // parabolic)
                continue
            for i in range(start, rank):
                larger = frozenset(  # every element's order divides the largest modulus
                    tuple((s + k * x) % m for s, x, m in zip(element, images[i], moduli))
                    for element in span
                    for k in range(max(moduli))
                )
                if larger != span:
                    stack.append((support + (i,), larger, i + 1))
        certificate *= divisor
    return certificate
