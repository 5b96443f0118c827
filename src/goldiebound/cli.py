"""Command-line interface.

Exit codes: 0 on success, 2 on validation/domain errors (including usage).
The retired options --bound and --window are accepted and ignored.
"""
from __future__ import annotations

import functools
import sys
from fractions import Fraction

import click

from .errors import GoldieBoundError, UnsupportedType
from .lattice import integral_subsystem, schur_class_of
from .nilorbit import orbit_datum, validate_partition
from .pipeline import premet_example, premet_table
from .repdim import d_psi, weyl_dim
from .serialize import (
    canonical_json,
    dpsi_json,
    rational_str,
    report_json,
    report_pretty,
    report_tsv_rows,
    weight_json,
    weight_str,
)
from .slices import even_identity_check, rho_zero, restrict_to_tQ, slice_context
from .syntax import parse_partition, parse_root_system, parse_weight


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except GoldieBoundError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["pretty", "json", "tsv"]),
    default="pretty",
    show_default=True,
    help="Output format.",
)


def _retired_option(name: str):
    """An integer option that d_psi no longer takes, accepted and ignored so
    that older command lines keep working."""
    return click.option(name, type=int, hidden=True, expose_value=False)


class _WeightCommand(click.Command):
    """A command whose WEIGHT may start with a minus sign, as in `-1,2`.

    Click reads any token that starts with '-' as an option.  Before parsing,
    the tokens are regrouped as options with their values, then '--', then the
    arguments in order; a token is an argument when it is not an option value
    and either does not start with '-' or starts with '-' and a digit.  A
    misspelled option stays among the options, so it is still a usage error.
    """

    def parse_args(self, ctx, args):
        takes_value = {
            name
            for param in self.params
            if isinstance(param, click.Option) and not param.is_flag
            for name in param.opts
        }
        options, arguments = [], []
        rest = iter(args)
        for arg in rest:
            if arg == "--":
                arguments.extend(rest)
            elif arg[:1] != "-" or arg[1:2].isdigit():
                arguments.append(arg)
            else:
                options.append(arg)
                if arg in takes_value:
                    value = next(rest, None)
                    if value is None:  # let click report the missing value
                        return super().parse_args(ctx, args)
                    options.append(value)
        return super().parse_args(ctx, options + ["--"] + arguments)


def _emit_table(fmt: str, payload, tsv_lines, pretty_lines):
    if fmt == "json":
        click.echo(canonical_json(payload))
    elif fmt == "tsv":
        for line in tsv_lines:
            click.echo(line)
    else:
        for line in pretty_lines:
            click.echo(line)


@click.group()
def main():
    """Exact Goldie-rank bounds from Lie-theoretic combinatorics."""


@main.command("dim", cls=_WeightCommand)
@click.argument("root_system")
@click.argument("weight")
@_format_option
@_guard
def dim_cmd(root_system: str, weight: str, fmt: str):
    """Weyl dimension of the irreducible with highest weight WEIGHT."""
    rs = parse_root_system(root_system)
    w = parse_weight(weight, rs)
    value = weyl_dim(rs, w)
    _emit_table(
        fmt,
        {"root_system": rs.describe(), "weight": weight_json(w), "dim": str(value)},
        ["root_system\tweight\tdim", f"{rs.describe()}\t{weight_str(w)}\t{value}"],
        [f"dim V({weight_str(w)}) over {rs.describe()} = {value}"],
    )


@main.command("orbit-size", cls=_WeightCommand)
@click.argument("root_system")
@click.argument("weight")
@_format_option
@_guard
def orbit_size_cmd(root_system: str, weight: str, fmt: str):
    """Size of the Weyl-group orbit of WEIGHT (normalized to dominant first)."""
    rs = parse_root_system(root_system)
    w = parse_weight(weight, rs)
    dom = rs.dominant_representative(w)
    size = rs.orbit_size(w)
    _emit_table(
        fmt,
        {
            "root_system": rs.describe(),
            "weight": weight_json(w),
            "dominant": weight_json(dom),
            "orbit_size": str(size),
        },
        [
            "root_system\tweight\tdominant\torbit_size",
            f"{rs.describe()}\t{weight_str(w)}\t{weight_str(dom)}\t{size}",
        ],
        [f"|W.({weight_str(w)})| over {rs.describe()} = {size} (dominant: {weight_str(dom)})"],
    )


def _dpsi_command(name: str, doc: str):
    @main.command(name, cls=_WeightCommand, help=doc)
    @click.argument("root_system")
    @click.argument("weight")
    @_retired_option("--bound")
    @_retired_option("--window")
    @_format_option
    @_guard
    def cmd(root_system: str, weight: str, fmt: str):
        rs = parse_root_system(root_system)
        w = parse_weight(weight, rs)
        psi = schur_class_of(rs, w)
        result = d_psi(rs, psi)
        payload = {
            "root_system": rs.describe(),
            "class_rep": weight_json(psi.rep),
            name.replace("-", "_"): dpsi_json(result),
        }
        _emit_table(
            fmt,
            payload,
            [
                "root_system\tclass_rep\tvalue\tstatus\tbound_used",
                f"{rs.describe()}\t{weight_str(psi.rep)}\t{result.value}\t{result.status}\t{result.bound_used}",
            ],
            [
                f"class of ({weight_str(psi.rep)}) in {rs.describe()}:",
                f"  value = {result.value} ({result.status}, levels <= {result.bound_used})",
                "  witnesses: "
                + "; ".join(f"({weight_str(w_)}) dim {d}" for w_, d in result.witnesses),
            ],
        )

    return cmd


_dpsi_command("dpsi", "GCD of irreducible dimensions over the root-lattice coset of WEIGHT.")
_dpsi_command("index", "Azumaya index of the class of WEIGHT (same invariant as dpsi).")


@main.command("integral", cls=_WeightCommand)
@click.argument("root_system")
@click.argument("weight")
@_format_option
@_guard
def integral_cmd(root_system: str, weight: str, fmt: str):
    """Subsystem of roots pairing integrally with WEIGHT, with its type."""
    rs = parse_root_system(root_system)
    w = rs._check_dim(parse_weight(weight, rs))
    sub = integral_subsystem(rs, w)
    type_name = sub.type_guess.describe() if sub.type_guess else None
    positive = sorted(r.coords for r in sub.roots if r.positive)
    _emit_table(
        fmt,
        {
            "root_system": rs.describe(),
            "weight": weight_json(w),
            "dim": sub.dim,
            "type": type_name,
            "positive_roots": [weight_json(c) for c in positive],
        },
        [
            "root_system\tweight\tdim\ttype\tpositive_roots",
            f"{rs.describe()}\t{weight_str(w)}\t{sub.dim}\t{type_name or 'none'}\t"
            + ";".join(weight_str(c) for c in positive),
        ],
        [
            f"integral subsystem of {rs.describe()} at ({weight_str(w)}):",
            f"  dim = {sub.dim}",
            f"  type = {type_name or 'none'}",
            "  positive roots: " + ", ".join(f"({weight_str(c)})" for c in positive),
        ],
    )


@main.command("orbit")
@click.argument("family", type=click.Choice(["sp", "so"]))
@click.argument("partition")
@_format_option
@_guard
def orbit_cmd(family: str, partition: str, fmt: str):
    """Invariants of the nilpotent orbit with the given PARTITION."""
    p = validate_partition(family, parse_partition(partition))
    datum = orbit_datum(p)
    factors = " x ".join(f"{kind}({size})" for kind, size in datum.reductive_factors)
    _emit_table(
        fmt,
        {
            "family": family,
            "partition": list(p.parts),
            "N": p.N,
            "h": weight_json(datum.h),
            "is_even": datum.is_even,
            "centralizer_dim": datum.centralizer_dim,
            "reductive_factors": [[kind, size] for kind, size in datum.reductive_factors],
            "component_group_order": datum.component_group_order,
            "grading": [[degree, dim] for degree, dim in datum.grading],
        },
        [
            "family\tpartition\th\tis_even\tcentralizer_dim\treductive\tcomponent_group_order",
            f"{family}\t{','.join(map(str, p.parts))}\t{weight_str(datum.h)}\t{datum.is_even}\t"
            f"{datum.centralizer_dim}\t{factors}\t{datum.component_group_order}",
        ],
        [
            f"{family}_{p.N}, partition {p.parts}:",
            f"  h = ({weight_str(datum.h)})  (even orbit: {datum.is_even})",
            f"  centralizer dimension = {datum.centralizer_dim}",
            f"  reductive centralizer = {factors}, component group order {datum.component_group_order}",
            "  graded dimensions: " + ", ".join(f"{k}: {v}" for k, v in datum.grading),
        ],
    )


@main.command("delta")
@click.argument("family", type=click.Choice(["sp", "so"]))
@click.argument("partition")
@click.option("--nu", "nu_text", default=None, help="Slice parameter, e.g. '2,1'.")
@_format_option
@_guard
def delta_cmd(family: str, partition: str, nu_text, fmt: str):
    """The delta shift of the orbit's slice, and its restriction to t_Q."""
    p = validate_partition(family, parse_partition(partition))
    try:
        nu = [Fraction(c) for c in nu_text.split(",")] if nu_text else None
    except (ValueError, ZeroDivisionError) as exc:
        raise UnsupportedType(f"cannot parse --nu {nu_text!r}: {exc}") from None
    ctx = slice_context(orbit_datum(p), nu)
    d = ctx.delta
    d_restricted = restrict_to_tQ(d, ctx)
    r0 = rho_zero(ctx)
    r0_restricted = restrict_to_tQ(r0, ctx)
    even_ok = even_identity_check(ctx) if ctx.orbit.is_even else None
    _emit_table(
        fmt,
        {
            "family": family,
            "partition": list(p.parts),
            "nu": weight_json(ctx.nu),
            "delta": weight_json(d),
            "delta_restricted": weight_json(d_restricted),
            "rho_zero": weight_json(r0),
            "rho_zero_restricted": weight_json(r0_restricted),
            "even_identity": even_ok,
        },
        [
            "family\tpartition\tnu\tdelta\tdelta_restricted\trho_zero\teven_identity",
            f"{family}\t{','.join(map(str, p.parts))}\t{weight_str(ctx.nu)}\t{weight_str(d)}\t"
            f"{weight_str(d_restricted)}\t{weight_str(r0)}\t{even_ok}",
        ],
        [
            f"{family}_{p.N}, partition {p.parts}, nu = ({weight_str(ctx.nu)}):",
            f"  delta = ({weight_str(d)})",
            f"  delta|t_Q = ({weight_str(d_restricted)})",
            f"  rho_0 = ({weight_str(r0)}), rho_0|t_Q = ({weight_str(r0_restricted)})",
            f"  even-orbit identity: {even_ok}",
        ],
    )


@main.command("premet")
@click.argument("n", type=int)
@_retired_option("--bound")
@_retired_option("--window")
@_format_option
@_guard
def premet_cmd(n: int, fmt: str):
    """Full worked example for sp_2n, orbit (2,...,2), highest weight rho/2."""
    report = premet_example(n)
    _emit_table(
        fmt,
        report_json(report),
        report_tsv_rows([report]),
        [report_pretty(report)],
    )


@main.group("table")
def table_group():
    """Tabulated runs over a range of inputs."""


@table_group.command("premet")
@click.option("--from", "start", type=int, required=True, help="First n (>= 3).")
@click.option("--to", "stop", type=int, required=True, help="Last n.")
@_retired_option("--bound")
@_format_option
@_guard
def table_premet_cmd(start: int, stop: int, fmt: str):
    """Worked-example reports for every n in [--from, --to]."""
    reports = premet_table(start, stop)
    pretty: list[str] = []
    for r in reports:
        pretty.append(f"== n = {r.n} ==")
        pretty.append(report_pretty(r))
        pretty.append("")
    _emit_table(
        fmt,
        [report_json(r) for r in reports],
        report_tsv_rows(reports),
        pretty,
    )


if __name__ == "__main__":
    main()
