"""Canonical output formats: JSON (round-trip stable), TSV, and pretty text.

JSON conventions: rationals are "p/q" strings ("3/2", "-1/2", integers plain
"2"), possibly-large integers are decimal strings, keys are emitted sorted so
that parse + re-serialize is byte-identical.
"""
from __future__ import annotations

import json
from typing import Any, Sequence

from .pipeline import BoundReport
from .repdim import DPsiResult
from .rootsys import rational_str, weight_str


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


def report_json(report: BoundReport) -> dict[str, Any]:
    return {
        "n": report.n,
        "g": report.g.describe(),
        "orbit_partition": list(report.partition.parts),
        "lambda": weight_json(report.lam),
        "q": report.q.describe(),
        "omega": weight_json(report.omega),
        "omega_eta": weight_json(report.omega_eta),
        "dim_v": str(report.dim_v),
        "d_v": dpsi_json(report.d_v),
        "grk_bound": str(report.grk_bound),
        "a_orbit_size": report.a_orbit_size,
        "ideal_codim": str(report.ideal_codim),
        "tightness": report.tightness,
        "verdicts": [
            {"check": name, "passed": ok, "detail": detail}
            for name, ok, detail in report.verdicts
        ],
    }


def canonical_json(payload: Any) -> str:
    """Deterministic serialization: sorted keys, fixed separators."""
    return json.dumps(payload, sort_keys=True, indent=2)


REPORT_TSV_COLUMNS = (
    "n",
    "g",
    "q",
    "omega",
    "dim_v",
    "d_v",
    "d_v_status",
    "grk_bound",
    "a_orbit_size",
    "ideal_codim",
)


def report_tsv_rows(reports: Sequence[BoundReport]) -> list[str]:
    lines = ["\t".join(REPORT_TSV_COLUMNS)]
    for r in reports:
        lines.append(
            "\t".join(
                (
                    str(r.n),
                    r.g.describe(),
                    r.q.describe(),
                    weight_str(r.omega),
                    str(r.dim_v),
                    str(r.d_v.value),
                    r.d_v.status,
                    str(r.grk_bound),
                    str(r.a_orbit_size),
                    str(r.ideal_codim),
                )
            )
        )
    return lines


def report_pretty(report: BoundReport) -> str:
    lines = [
        f"g = {report.g.describe()}, orbit partition {report.partition.parts}",
        f"lambda = ({weight_str(report.lam)})",
        f"Q-side: q = {report.q.describe()}, omega = ({weight_str(report.omega)}) "
        f"[eta coordinates: ({weight_str(report.omega_eta)})]",
        f"dim V = {report.dim_v}",
        f"d(psi) = {report.d_v.value} ({report.d_v.status}, levels <= {report.d_v.bound_used})",
        f"Goldie rank bound: Grk <= {report.grk_bound} ({report.tightness})",
        f"component group orbit on ideals: {report.a_orbit_size}",
        f"primitive ideal codimension: {report.ideal_codim}",
        "checks:",
    ]
    for name, ok, detail in report.verdicts:
        status = "ok" if ok else "FAILED"
        lines.append(f"  [{status}] {name}: {detail}")
    return "\n".join(lines)
