"""Command-line interface.

Each command computes its values once and returns one `serialize.Record`, or
a list of them for `table premet`.  `_command` registers it with a --format
option and writes the result through `serialize.render`, the one renderer of
json, tsv and pretty.

Exit codes: 0 on success, 2 on validation/domain errors (including usage).
The retired options --bound and --window are accepted and ignored.
"""
from __future__ import annotations

import functools
import sys
from dataclasses import replace

import click

from .errors import GoldieBoundError
from .lattice import integral_subsystem, schur_class_of
from .nilorbit import orbit_datum, validate_partition
from .pipeline import premet_example, premet_table
from .repdim import d_psi, weyl_dim
from .serialize import Record, dpsi_json, render, report_record, weight_json, weight_str
from .slices import even_identity_check, rho_zero, restrict_to_tQ, slice_context
from .syntax import parse_nu, parse_partition, parse_root_system, parse_weight

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


_RETIRED_BOUND = _retired_option("--bound")
_RETIRED_WINDOW = _retired_option("--window")


class _WeightCommand(click.Command):
    """A command whose WEIGHT may start with a minus sign, as in `-1,2`.

    Click reads any token that starts with '-' as an option.  Before parsing,
    the tokens are regrouped as options with their values, then '--', then the
    arguments in order; a token is an argument when it is not an option value
    and either does not start with '-' or starts with '-' and then a digit or
    '.', as in `-.5,.5`.  A misspelled option stays among the options, so it
    is still a usage error.
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
            elif arg[:1] != "-" or arg[1:2].isdigit() or arg[1:2] == ".":
                arguments.append(arg)
            else:
                options.append(arg)
                if arg in takes_value:
                    value = next(rest, None)
                    if value is None:  # let click report the missing value
                        return super().parse_args(ctx, args)
                    options.append(value)
        return super().parse_args(ctx, options + ["--"] + arguments)


@click.group()
def main():
    """Exact Goldie-rank bounds from Lie-theoretic combinatorics."""


@main.group("table")
def table_group():
    """Tabulated runs over a range of inputs."""


def _command(name: str, *params, group: click.Group = main, cls=None):
    """Register `build` as the command `name` of `group`, taking `params` and --format.

    `build` gets the parameters' values and returns a Record or a list of
    them, which is written to stdout in the chosen format.  A domain error is
    written to stderr instead, with exit code 2.
    """

    def register(build):
        def callback(fmt: str, **values):
            try:
                result = build(**values)
            except GoldieBoundError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(2)
            click.echo(render(result, fmt))

        for param in reversed((*params, _format_option)):
            callback = param(callback)
        return group.command(name, cls=cls, help=build.__doc__)(callback)

    return register


def _weight_command(name: str, *params):
    """A `name ROOT_SYSTEM WEIGHT` command: `build(rs, w, ...)` gets both parsed."""

    def register(build):
        @functools.wraps(build)
        def parsed(root_system: str, weight: str, **values):
            rs = parse_root_system(root_system)
            return build(rs, parse_weight(weight, rs), **values)

        args = (click.argument("root_system"), click.argument("weight"), *params)
        return _command(name, *args, cls=_WeightCommand)(parsed)

    return register


def _partition_command(name: str, *params):
    """A `name FAMILY PARTITION` command: `build(p, ...)` gets the validated partition."""

    def register(build):
        @functools.wraps(build)
        def parsed(family: str, partition: str, **values):
            return build(validate_partition(family, parse_partition(partition)), **values)

        args = (click.argument("family", type=click.Choice(["sp", "so"])), click.argument("partition"))
        return _command(name, *args, *params)(parsed)

    return register


@_weight_command("dim")
def dim_cmd(rs, w) -> Record:
    """Weyl dimension of the irreducible with highest weight WEIGHT."""
    value = weyl_dim(rs, w)
    return Record(
        {"root_system": rs.describe(), "weight": weight_json(w), "dim": str(value)},
        {"root_system": rs.describe(), "weight": weight_str(w), "dim": value},
        [f"dim V({weight_str(w)}) over {rs.describe()} = {value}"],
    )


@_weight_command("orbit-size")
def orbit_size_cmd(rs, w) -> Record:
    """Size of the Weyl-group orbit of WEIGHT (normalized to dominant first)."""
    dom = rs.dominant_representative(w)
    size = rs.orbit_size(w)
    return Record(
        {
            "root_system": rs.describe(),
            "weight": weight_json(w),
            "dominant": weight_json(dom),
            "orbit_size": str(size),
        },
        {
            "root_system": rs.describe(),
            "weight": weight_str(w),
            "dominant": weight_str(dom),
            "orbit_size": size,
        },
        [f"|W.({weight_str(w)})| over {rs.describe()} = {size} (dominant: {weight_str(dom)})"],
    )


def _dpsi_record(rs, w, key: str) -> Record:
    psi = schur_class_of(rs, w)
    result = d_psi(rs, psi)
    return Record(
        {"root_system": rs.describe(), "class_rep": weight_json(psi.rep), key: dpsi_json(result)},
        {
            "root_system": rs.describe(),
            "class_rep": weight_str(psi.rep),
            "value": result.value,
            "status": result.status,
            "bound_used": result.bound_used,
        },
        [
            f"class of ({weight_str(psi.rep)}) in {rs.describe()}:",
            f"  value = {result.value} ({result.status}, levels <= {result.bound_used})",
            "  witnesses: "
            + "; ".join(f"({weight_str(w_)}) dim {d}" for w_, d in result.witnesses),
        ],
    )


@_weight_command("dpsi", _RETIRED_BOUND, _RETIRED_WINDOW)
def dpsi_cmd(rs, w) -> Record:
    """GCD of irreducible dimensions over the root-lattice coset of WEIGHT."""
    return _dpsi_record(rs, w, "dpsi")


@_weight_command("index", _RETIRED_BOUND, _RETIRED_WINDOW)
def index_cmd(rs, w) -> Record:
    """Azumaya index of the class of WEIGHT (same invariant as dpsi)."""
    return _dpsi_record(rs, w, "index")


@_weight_command("integral")
def integral_cmd(rs, w) -> Record:
    """Subsystem of roots pairing integrally with WEIGHT, with its type."""
    sub = integral_subsystem(rs, w)
    type_name = sub.type_guess.describe() if sub.type_guess else None
    positive = sorted(r.coords for r in sub.roots if r.positive)
    return Record(
        {
            "root_system": rs.describe(),
            "weight": weight_json(w),
            "dim": sub.dim,
            "type": type_name,
            "positive_roots": [weight_json(c) for c in positive],
        },
        {
            "root_system": rs.describe(),
            "weight": weight_str(w),
            "dim": sub.dim,
            "type": type_name or "none",
            "positive_roots": ";".join(weight_str(c) for c in positive),
        },
        [
            f"integral subsystem of {rs.describe()} at ({weight_str(w)}):",
            f"  dim = {sub.dim}",
            f"  type = {type_name or 'none'}",
            "  positive roots: " + ", ".join(f"({weight_str(c)})" for c in positive),
        ],
    )


@_partition_command("orbit")
def orbit_cmd(p) -> Record:
    """Invariants of the nilpotent orbit with the given PARTITION."""
    datum = orbit_datum(p)
    factors = " x ".join(f"{kind}({size})" for kind, size in datum.reductive_factors)
    return Record(
        {
            "family": p.family,
            "partition": list(p.parts),
            "N": p.N,
            "h": weight_json(datum.h),
            "is_even": datum.is_even,
            "centralizer_dim": datum.centralizer_dim,
            "reductive_factors": [[kind, size] for kind, size in datum.reductive_factors],
            "component_group_order": datum.component_group_order,
            "grading": [[degree, dim] for degree, dim in datum.grading],
        },
        {
            "family": p.family,
            "partition": ",".join(map(str, p.parts)),
            "h": weight_str(datum.h),
            "is_even": datum.is_even,
            "centralizer_dim": datum.centralizer_dim,
            "reductive": factors,
            "component_group_order": datum.component_group_order,
        },
        [
            f"{p.family}_{p.N}, partition {p.parts}:",
            f"  h = ({weight_str(datum.h)})  (even orbit: {datum.is_even})",
            f"  centralizer dimension = {datum.centralizer_dim}",
            f"  reductive centralizer = {factors}, component group order {datum.component_group_order}",
            "  graded dimensions: " + ", ".join(f"{k}: {v}" for k, v in datum.grading),
        ],
    )


@_partition_command(
    "delta", click.option("--nu", "nu_text", default=None, help="Slice parameter, e.g. '2,1'.")
)
def delta_cmd(p, nu_text) -> Record:
    """The delta shift of the orbit's slice, and its restriction to t_Q."""
    ctx = slice_context(orbit_datum(p), parse_nu(nu_text))
    d = ctx.delta
    d_restricted = restrict_to_tQ(d, ctx)
    r0 = rho_zero(ctx)
    r0_restricted = restrict_to_tQ(r0, ctx)
    even_ok = even_identity_check(ctx) if ctx.orbit.is_even else None
    return Record(
        {
            "family": p.family,
            "partition": list(p.parts),
            "nu": weight_json(ctx.nu),
            "delta": weight_json(d),
            "delta_restricted": weight_json(d_restricted),
            "rho_zero": weight_json(r0),
            "rho_zero_restricted": weight_json(r0_restricted),
            "even_identity": even_ok,
        },
        {
            "family": p.family,
            "partition": ",".join(map(str, p.parts)),
            "nu": weight_str(ctx.nu),
            "delta": weight_str(d),
            "delta_restricted": weight_str(d_restricted),
            "rho_zero": weight_str(r0),
            "even_identity": even_ok,
        },
        [
            f"{p.family}_{p.N}, partition {p.parts}, nu = ({weight_str(ctx.nu)}):",
            f"  delta = ({weight_str(d)})",
            f"  delta|t_Q = ({weight_str(d_restricted)})",
            f"  rho_0 = ({weight_str(r0)}), rho_0|t_Q = ({weight_str(r0_restricted)})",
            f"  even-orbit identity: {even_ok}",
        ],
    )


@_command("premet", click.argument("n", type=int), _RETIRED_BOUND, _RETIRED_WINDOW)
def premet_cmd(n: int) -> Record:
    """Full worked example for sp_2n, orbit (2,...,2), highest weight rho/2."""
    return report_record(premet_example(n))


@_command(
    "premet",
    click.option("--from", "start", type=int, required=True, help="First n (>= 3)."),
    click.option("--to", "stop", type=int, required=True, help="Last n."),
    _RETIRED_BOUND,
    group=table_group,
)
def table_premet_cmd(start: int, stop: int) -> list[Record]:
    """Worked-example reports for every n in [--from, --to]."""
    records = []
    for report in premet_table(start, stop):
        record = report_record(report)
        records.append(replace(record, pretty=[f"== n = {report.n} ==", *record.pretty, ""]))
    return records


if __name__ == "__main__":
    main()
