"""Independent correctness checks for benchmark results.

Nothing here calls goldiebound.  The expected values come from closed forms
(d(psi) of the classes the workloads use, the premet example's dimensions)
and from the mathematical fields of CLI output recorded at the seed commit.
Every check returns a list of problems; an empty list means the op is right.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

# Proof metadata of a d(psi) outcome.  It says how a value was proven, not
# what the value is, and is expected to change as certificates improve.
PROOF_METADATA = frozenset({"status", "witnesses", "bound_used"})
# Free-text verdict details quote the d(psi) status, so they are left out too.
FREE_TEXT = frozenset({"detail"})


def canonical(payload) -> str:
    """Canonical JSON as the CLI documents it: sorted keys, two-space indent."""
    return json.dumps(payload, sort_keys=True, indent=2)


def mathematical_fields(payload):
    """The payload without proof metadata and free text, at any depth."""
    if isinstance(payload, dict):
        return {
            key: mathematical_fields(value)
            for key, value in payload.items()
            if key not in PROOF_METADATA and key not in FREE_TEXT
        }
    if isinstance(payload, list):
        return [mathematical_fields(value) for value in payload]
    return payload


def check_cli(entry: dict, summary: dict) -> list[str]:
    """A CLI op: exit 0, canonical JSON byte for byte, fields equal the golden.

    d(psi) values and premet reports are also checked against their closed
    forms, so a golden cannot lock in a wrong value.
    """
    if summary["exit_code"] != 0:
        return [f"exit code {summary['exit_code']}"]
    text = summary["stdout"]
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    if canonical(payload) + "\n" != text:
        problems.append("output does not survive json.loads and canonical re-serialization")
    if not isinstance(payload, dict):
        return problems + ["output is not a JSON object"]
    fields, expect = mathematical_fields(payload), entry["expect"]
    differ = sorted(k for k in fields.keys() | expect.keys() if fields.get(k) != expect.get(k))
    if differ:
        problems.append(f"fields differ from the golden recorded at the seed: {', '.join(differ)}")
    try:
        problems.extend(_check_cli_closed_form(entry, payload))
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed {entry['command']} payload: {exc!r}")
    return problems


def _check_cli_closed_form(entry: dict, payload: dict) -> list[str]:
    command = entry["command"]
    if command in ("dpsi", "index"):
        family, rank, k = entry["cls"]
        op = {"factors": [[family, rank]], "k": k}
        return check_dpsi(op, {"rep": payload["class_rep"], "value": int(payload[command]["value"])})
    if command == "premet":
        summary = {
            "n": payload["n"],
            "grk_bound": int(payload["grk_bound"]),
            "dim_v": int(payload["dim_v"]),
            "d_v": int(payload["d_v"]["value"]),
            "ideal_codim": int(payload["ideal_codim"]),
            "a_orbit_size": payload["a_orbit_size"],
            "verdicts": [[v["check"], v["passed"]] for v in payload["verdicts"]],
        }
        return check_premet(entry["n"], summary)
    return []


def check_premet(n: int, summary: dict) -> list[str]:
    """premet_example(n): Grk <= 1 with dim V = d(psi) = 2^((n-1)//2)."""
    expected = {
        "n": n,
        "grk_bound": 1,
        "dim_v": 2 ** ((n - 1) // 2),
        "d_v": 2 ** ((n - 1) // 2),
        "ideal_codim": 2 ** (n - 1),
        "a_orbit_size": 2 - n % 2,
    }
    problems = [
        f"{key} = {summary[key]}, expected {value}"
        for key, value in expected.items()
        if summary[key] != value
    ]
    verdicts = summary["verdicts"]
    if not verdicts:
        problems.append("report has no verdicts")
    problems.extend(f"verdict failed: {name}" for name, ok in verdicts if not ok)
    return problems


# -- the d(psi) classes: epsilon coordinates and closed forms ----------------


def _unit(dim: int, i: int, scale: int = 1) -> list[Fraction]:
    out = [Fraction(0)] * dim
    out[i] = Fraction(scale)
    return out


def ambient_dim(family: str, rank: int) -> int:
    return rank + 1 if family == "A" else rank


def simple_roots(family: str, rank: int) -> list[list[Fraction]]:
    """Bourbaki simple roots in epsilon coordinates."""
    dim = ambient_dim(family, rank)
    roots = []
    for i in range(rank - 1 if family != "A" else rank):
        roots.append([a - b for a, b in zip(_unit(dim, i), _unit(dim, i + 1))])
    if family == "B":
        roots.append(_unit(dim, rank - 1))
    elif family == "C":
        roots.append(_unit(dim, rank - 1, 2))
    elif family == "D":
        roots.append([a + b for a, b in zip(_unit(dim, rank - 2), _unit(dim, rank - 1))])
    return roots


def fundamental_weight(family: str, rank: int, k: int) -> list[Fraction]:
    """omega_k in epsilon coordinates (type A with last coordinate 0)."""
    half = Fraction(1, 2)
    if family == "B" and k == rank:
        return [half] * rank
    if family == "D" and k == rank:
        return [half] * rank
    if family == "D" and k == rank - 1:
        return [half] * (rank - 1) + [-half]
    dim = ambient_dim(family, rank)
    return [Fraction(1)] * k + [Fraction(0)] * (dim - k)


def dpsi_closed_form(family: str, rank: int, k: int) -> int:
    """d(psi) for the class of omega_k, where a closed form is known.

    A_n class k: (n+1)/gcd(n+1, k).  B_n spin: 2^n.  D_n half-spin: 2^(n-1).
    C_n odd class and D_n vector class: 2^(v2(n)+1).
    """
    if family == "A":
        return (rank + 1) // math.gcd(rank + 1, k)
    if family == "B" and k == rank:
        return 2**rank
    if family == "D" and k in (rank - 1, rank):
        return 2 ** (rank - 1)
    if family in ("C", "D") and k == 1:
        v2 = (rank & -rank).bit_length() - 1
        return 2 ** (v2 + 1)
    raise ValueError(f"no closed form recorded for omega_{k} of {family}{rank}")


def check_dpsi(op: dict, summary: dict) -> list[str]:
    """schur_class_of + d_psi: the minuscule representative and the closed form."""
    ((family, rank),) = op["factors"]
    k = op["k"]
    problems = []
    rep = [str(c) for c in fundamental_weight(family, rank, k)]
    if summary["rep"] != rep:
        problems.append(f"class representative {summary['rep']}, expected {rep}")
    expected = dpsi_closed_form(family, rank, k)
    if summary["value"] != expected:
        problems.append(f"d(psi) = {summary['value']}, expected {expected}")
    return problems
