"""The three workloads: their op lists, checks and input properties.

A pass is one fresh worker running one op list.  Each workload draws its op
list once from the seed; `pass_ops(i)` returns that list, for cli-mix in an
order shuffled by the seed and the pass index.  So the same seed gives the
same inputs, and every pass of a run times the same ops.  The holdout seed
draws from inputs that no other seed draws (see `HOLDOUT_SEED`).
"""
from __future__ import annotations

import json
import random
from pathlib import Path

import bench_checks as checks

GOLDENS = Path(__file__).resolve().parent / "goldens.json"

# d(psi) classes as (family, rank, k): the class of omega_k.  Spinor and
# half-spinor classes certify at once at the seed; the others enumerate to
# the full default bound.  The two largest, D6 omega_1 (3 s) and C5 omega_1
# (2 s), are left out so that a 30 s run holds about eight passes.  With 25
# ops per pass, a pass's p50 is its 13th op time and its p90 lies between its
# 23rd and 24th.
DPSI_CLASSES = (
    ("A", 1, 1), ("A", 2, 1), ("A", 2, 2), ("A", 3, 1), ("A", 3, 2),
    ("A", 4, 1), ("A", 4, 2), ("A", 5, 1), ("A", 5, 2),
    ("B", 2, 2), ("B", 3, 3), ("B", 4, 4), ("B", 5, 5), ("B", 6, 6),
    ("C", 2, 1), ("C", 3, 1), ("C", 4, 1),
    ("D", 4, 1), ("D", 5, 1),
    ("D", 4, 3), ("D", 4, 4), ("D", 5, 4), ("D", 5, 5), ("D", 6, 5), ("D", 6, 6),
)  # fmt: skip

# The holdout seed draws dpsi-enumerate members with a simple-root shift of
# magnitude 3 or 4, which no other seed draws (they shift by -2..2), and
# cli-mix queries from the holdout half of every slot of the golden pool.
HOLDOUT_SEED = 101

# cli-mix: every command gets the same number of ops per pass, spread evenly
# over its slots in the golden pool.  The d(psi) commands have eight slots of
# classes that certify at the seed and eight that enumerate, and premet has
# n = 3, 4 (stabilized) and n = 5, 6 (certified), so each of dpsi, index and
# premet splits evenly between the two.  This is a neutral rule, not a
# measured traffic mix.
COMMANDS = ("dim", "orbit-size", "integral", "orbit", "delta", "dpsi", "index", "premet")
OPS_PER_COMMAND = 16


def slot_counts(slots: list[str]) -> dict[str, int]:
    """Ops per pass from each of one command's slots, in order."""
    share, extra = divmod(OPS_PER_COMMAND, len(slots))
    return {slot: share + (i < extra) for i, slot in enumerate(slots)}


def _certifies_at_seed(family: str, rank: int, k: int) -> bool:
    return (family == "B" and k == rank) or (family == "D" and k >= rank - 1)


class PremetSweep:
    """premet_example(n) for n = 3..16 in order: the paper's chain at growing rank."""

    name = "premet-sweep"

    def __init__(self, seed: int):
        self.seed = seed  # the op list is fixed; the seed is recorded only

    def pass_ops(self, index: int) -> list[dict]:
        return [{"kind": "premet", "n": n} for n in range(3, 17)]

    def check(self, op: dict, summary: dict) -> list[str]:
        return checks.check_premet(op["n"], summary)

    def statuses(self, op: dict, summary: dict) -> list[str]:
        return [summary["status"]]

    def properties(self, passes: list[list[dict]]) -> dict:
        return {"n_range": [3, 16]}


class DpsiEnumerate:
    """schur_class_of then d_psi, each class entered through a non-representative member."""

    name = "dpsi-enumerate"

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.ops = [self._op(rng, *cls, seed == HOLDOUT_SEED) for cls in DPSI_CLASSES]

    @staticmethod
    def _op(rng, family: str, rank: int, k: int, holdout: bool) -> dict:
        reach = 4 if holdout else 2
        while True:
            shifts = [rng.randint(-reach, reach) for _ in range(rank)]
            if any(shifts) and (max(map(abs, shifts)) > 2) == holdout:
                break
        member = checks.fundamental_weight(family, rank, k)
        for c, alpha in zip(shifts, checks.simple_roots(family, rank)):
            member = [m + c * a for m, a in zip(member, alpha)]
        return {"kind": "dpsi", "factors": [[family, rank]], "k": k, "member": [str(c) for c in member]}

    def pass_ops(self, index: int) -> list[dict]:
        return list(self.ops)

    def check(self, op: dict, summary: dict) -> list[str]:
        return checks.check_dpsi(op, summary)

    def statuses(self, op: dict, summary: dict) -> list[str]:
        return [summary["status"]]

    def properties(self, passes: list[list[dict]]) -> dict:
        certify = sum(_certifies_at_seed(*cls) for cls in DPSI_CLASSES)
        return {"classes": len(DPSI_CLASSES), "certify_at_seed_share": certify / len(DPSI_CLASSES)}


class CliMix:
    """Small distinct CLI queries with --format json, drawn once per seed from the golden pool."""

    name = "cli-mix"

    def __init__(self, seed: int):
        self.seed = seed
        half = "holdout" if seed == HOLDOUT_SEED else "dev"
        with open(GOLDENS) as fh:
            queries = json.load(fh)["queries"]
        slots: dict[str, dict[str, list[dict]]] = {command: {} for command in COMMANDS}
        for entry in queries:
            variants = slots[entry["command"]].setdefault(entry["slot"], [])
            if entry["half"] == half:
                variants.append(entry)
        rng = random.Random(seed)
        self.ops = []
        for command_slots in slots.values():
            for slot, count in slot_counts(list(command_slots)).items():
                self.ops.extend({"kind": "cli", **e} for e in rng.sample(command_slots[slot], count))

    def pass_ops(self, index: int) -> list[dict]:
        ops = list(self.ops)
        random.Random(self.seed * 1_000_003 + index).shuffle(ops)
        return ops

    def check(self, op: dict, summary: dict) -> list[str]:
        return checks.check_cli(op, summary)

    def statuses(self, op: dict, summary: dict) -> list[str]:
        command = op["command"]
        if command not in ("dpsi", "index", "premet") or summary["exit_code"] != 0:
            return []
        try:
            payload = json.loads(summary["stdout"])
        except json.JSONDecodeError:
            return []  # check_cli counts the op as failed
        outcome = payload["d_v"] if command == "premet" else payload[command]
        return [outcome["status"]]

    def properties(self, passes: list[list[dict]]) -> dict:
        repeats = ops = 0
        for pass_ops in passes:
            seen = set()
            for op in pass_ops:
                repeats += op["rs"] in seen
                seen.add(op["rs"])
            ops += len(pass_ops)
        return {"ops_per_pass": len(self.ops), "rs_repeat_share": repeats / ops}


WORKLOADS = {w.name: w for w in (PremetSweep, DpsiEnumerate, CliMix)}
