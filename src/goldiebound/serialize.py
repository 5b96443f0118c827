"""Canonical output formats: JSON (round-trip stable), TSV, and pretty text.

Every CLI result is one `Record`: its JSON object, its TSV cells by column and
its pretty lines.  `render` is the one renderer of all three formats, so a TSV
header comes from the same mapping as its rows.

JSON conventions: rationals are "p/q" strings ("3/2", "-1/2", integers plain
"2"), possibly-large integers are decimal strings, keys are emitted sorted so
that parse + re-serialize is byte-identical.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Sequence, Union

from .pipeline import BoundReport
from .repdim import DPsiResult
from .rootsys import rational_str, weight_str


@dataclass(frozen=True)
class Record:
    """One result in every output format; TSV cells are written with `str`."""

    json: dict[str, Any]
    tsv: dict[str, Any]
    pretty: list[str]


def render(result: Union[Record, list[Record]], fmt: str) -> str:
    """A record, or a list of them, as "json", "tsv" or "pretty" text."""
    records = result if isinstance(result, list) else [result]
    if fmt == "json":
        payload = result.json if isinstance(result, Record) else [r.json for r in records]
        return canonical_json(payload)
    if fmt == "tsv":
        rows = [records[0].tsv, *(map(str, r.tsv.values()) for r in records)]
        return "\n".join("\t".join(row) for row in rows)
    return "\n".join(line for r in records for line in r.pretty)


def weight_json(w: Sequence) -> list[str]:
    return [rational_str(c) for c in w]


def dpsi_json(result: DPsiResult) -> dict[str, Any]:
    return {
        "value": str(result.value),
        "status": result.status,
        "bound_used": result.bound_used,
        "witnesses": [
            {"weight": weight_json(w), "dimension": str(dim)} for w, dim in result.witnesses
        ],
    }


def canonical_json(payload: Any) -> str:
    """Deterministic serialization: sorted keys, fixed separators."""
    return json.dumps(payload, sort_keys=True, indent=2)


def report_record(report: BoundReport) -> Record:
    d_v = report.d_v
    return Record(
        {
            "n": report.n,
            "g": report.g.describe(),
            "orbit_partition": list(report.partition.parts),
            "lambda": weight_json(report.lam),
            "q": report.q.describe(),
            "omega": weight_json(report.omega),
            "omega_eta": weight_json(report.omega_eta),
            "dim_v": str(report.dim_v),
            "d_v": dpsi_json(d_v),
            "grk_bound": str(report.grk_bound),
            "a_orbit_size": report.a_orbit_size,
            "ideal_codim": str(report.ideal_codim),
            "tightness": report.tightness,
            "verdicts": [
                {"check": name, "passed": ok, "detail": detail}
                for name, ok, detail in report.verdicts
            ],
        },
        {
            "n": report.n,
            "g": report.g.describe(),
            "q": report.q.describe(),
            "omega": weight_str(report.omega),
            "dim_v": report.dim_v,
            "d_v": d_v.value,
            "d_v_status": d_v.status,
            "grk_bound": report.grk_bound,
            "a_orbit_size": report.a_orbit_size,
            "ideal_codim": report.ideal_codim,
        },
        [
            f"g = {report.g.describe()}, orbit partition {report.partition.parts}",
            f"lambda = ({weight_str(report.lam)})",
            f"Q-side: q = {report.q.describe()}, omega = ({weight_str(report.omega)}) "
            f"[eta coordinates: ({weight_str(report.omega_eta)})]",
            f"dim V = {report.dim_v}",
            f"d(psi) = {d_v.value} ({d_v.status}, levels <= {d_v.bound_used})",
            f"Goldie rank bound: Grk <= {report.grk_bound} ({report.tightness})",
            f"component group orbit on ideals: {report.a_orbit_size}",
            f"primitive ideal codimension: {report.ideal_codim}",
            "checks:",
            *(
                f"  [{'ok' if ok else 'FAILED'}] {name}: {detail}"
                for name, ok, detail in report.verdicts
            ),
        ],
    )
