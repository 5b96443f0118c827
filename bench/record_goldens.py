"""Record the cli-mix query pool and its goldens into bench/goldens.json.

    python3 bench/record_goldens.py

The pool is organised in slots.  A slot is one command on one root system,
one d(psi) class at one bound, one (family, N) of nilpotent orbits, one
delta n, or one premet n at one bound; its variants are queries of that
shape with different weights, members, partitions, nu or --window.  cli-mix takes a fixed number of variants from
every slot (`bench_workloads.slot_counts`), so each seed gets a mix of the
same shape and cost, and the seed only picks which variants fill the slots.
Each slot's variants are dealt alternately into a development half and a
holdout half, so the holdout seed runs queries no development seed runs.

Every query runs in-process with --format json and must exit 0.  Each kept
query stores the mathematical fields of its output as plain JSON
(`bench_checks.mathematical_fields`), the class or n it was built from, and
must pass `bench_checks.check_cli` as recorded: a d(psi) value that disagrees
with its closed form, or a premet report that breaks an invariant, stops the
recording.  Run it only at a commit whose output is trusted: the goldens
define what cli-mix accepts as correct.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import bench_checks as checks  # noqa: E402
from bench_workloads import COMMANDS, GOLDENS, slot_counts  # noqa: E402
from goldiebound.cli import main as cli_main  # noqa: E402

# Root systems of rank <= 8 for dim, orbit-size and integral: one slot each.
ROOT_SYSTEMS = (
    (("A", 2),), (("A", 4),), (("A", 6),), (("A", 8),),
    (("B", 2),), (("B", 4),), (("B", 6),), (("B", 8),),
    (("C", 3),), (("C", 5),), (("C", 7),),
    (("D", 4),), (("D", 6),), (("D", 8),),
    (("A", 1), ("A", 2)), (("B", 2), ("D", 4)),
)  # fmt: skip
# Nilpotent orbits: (family, N), partitions of N.
ORBITS = [("sp", n) for n in range(6, 17, 2)] + [("so", n) for n in range(7, 17)]
# delta sp 2^n with a generic --nu of length n // 2.
DELTA_N = (3, 4, 5, 6)
NU = (-8, -6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 8)
# d(psi) classes (family, rank, k, --bound or None for the default).  The
# first eight certify at once at the seed; the other eight enumerate.
DPSI_SLOTS = (
    ("B", 2, 2, None), ("B", 3, 3, None), ("B", 4, 4, None), ("B", 5, 5, None),
    ("D", 4, 3, None), ("D", 4, 4, None), ("D", 5, 4, None), ("D", 5, 5, None),
    ("A", 1, 1, None), ("A", 2, 1, None), ("A", 2, 2, None), ("C", 2, 1, None),
    ("A", 3, 1, 4), ("A", 3, 2, 5), ("C", 3, 1, 4), ("C", 2, 1, 5),
)  # fmt: skip
# premet: one slot per (n, --bound); the seed picks the --window.
PREMET_N = (3, 4, 5, 6)
PREMET_BOUNDS = (None, 4, 6, 8)
PREMET_WINDOWS = (None, 1, 2, 4)
FRACTIONS = ("0", "1/2", "1/3", "2/3", "1", "-1/2", "1/4", "3/2")
VARIANTS = 8  # per slot that cli-mix takes one query from: four per half
TRIES = 200  # candidates drawn per slot before giving up on VARIANTS


def _label(factors) -> str:
    return "x".join(f"{f}{r}" for f, r in factors)


def _weight_text(coords) -> str:
    return ",".join(str(Fraction(c)) for c in coords)


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _root_system_slots(rng):
    for factors in ROOT_SYSTEMS:
        label = _label(factors)
        rank = sum(r for _, r in factors)
        dim = sum(checks.ambient_dim(f, r) for f, r in factors)

        def dim_query():
            coeffs = rng.choices((0, 1, 2), weights=(6, 3, 1), k=rank)
            return ["dim", label, f"fw:[{','.join(map(str, coeffs))}]"]

        def orbit_size_query():
            if factors[0][0] in "BD" and rng.random() < 0.5:
                coords = [Fraction(2 * rng.randint(-3, 2) + 1, 2) for _ in range(dim)]
            else:
                coords = [rng.randint(-3, 3) for _ in range(dim)]
            return ["orbit-size", label, _weight_text(coords)]

        def integral_query():
            return ["integral", label, ",".join(rng.choices(FRACTIONS, k=dim))]

        for command, draw in (
            ("dim", dim_query),
            ("orbit-size", orbit_size_query),
            ("integral", integral_query),
        ):
            yield command, label, label, {}, [draw() for _ in range(TRIES)]


def _orbit_slots(rng):
    for family, n in ORBITS:
        parts = list(_partitions(n))
        rng.shuffle(parts)
        rs = f"C{n // 2}" if family == "sp" else f"{'B' if n % 2 else 'D'}{n // 2}"
        argvs = [["orbit", family, ",".join(map(str, p))] for p in parts]
        yield "orbit", f"{family} {n}", rs, {}, argvs


def _delta_slots(rng):
    for n in DELTA_N:
        m = n // 2
        nus = [tuple(rng.choice(NU) for _ in range(m)) for _ in range(TRIES)]
        argvs = [["delta", "sp", f"2^{n}", "--nu", _weight_text(nu)] for nu in nus]
        yield "delta", f"sp 2^{n}", f"C{n}", {}, argvs


def _class_member(rng, family, rank, k) -> str:
    member = checks.fundamental_weight(family, rank, k)
    shifts = [rng.randint(-2, 2) for _ in range(rank)]
    for c, alpha in zip(shifts, checks.simple_roots(family, rank)):
        member = [m + c * a for m, a in zip(member, alpha)]
    return _weight_text(member)


def _dpsi_slots(rng):
    for command in ("dpsi", "index"):
        for family, rank, k, bound in DPSI_SLOTS:
            label = f"{family}{rank}"
            options = [] if bound is None else ["--bound", str(bound)]
            slot = f"{label} omega_{k}" + ("" if bound is None else f" bound {bound}")
            argvs = [
                [command, label, _class_member(rng, family, rank, k), *options] for _ in range(TRIES)
            ]
            yield command, slot, label, {"cls": [family, rank, k]}, argvs


def _premet_slots(rng):
    for n, bound in itertools.product(PREMET_N, PREMET_BOUNDS):
        options = [] if bound is None else ["--bound", str(bound)]
        windows = [[] if window is None else ["--window", str(window)] for window in PREMET_WINDOWS]
        rng.shuffle(windows)
        slot = f"n {n}" + ("" if bound is None else f" bound {bound}")
        yield "premet", slot, f"C{n}", {"n": n}, [["premet", str(n), *options, *w] for w in windows]


def _with_json_format(argv: list[str]) -> list[str]:
    """Add --format json; a negative positional needs the options before `--`."""
    command, *rest = argv
    split = next((i for i, a in enumerate(rest) if a.startswith("--")), len(rest))
    positional, options = rest[:split], rest[split:]
    if any(a.startswith("-") for a in positional):
        return [command, *options, "--format", "json", "--", *positional]
    return [command, *positional, *options, "--format", "json"]


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli_main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def main():
    rng = random.Random(20180215)
    slots: dict[str, list[tuple[str, str, dict, list]]] = {c: [] for c in COMMANDS}
    for source in (_root_system_slots, _orbit_slots, _delta_slots, _dpsi_slots, _premet_slots):
        for command, slot, rs, extra, argvs in source(rng):
            slots[command].append((slot, rs, extra, argvs))

    queries, problems = [], []
    for command, command_slots in slots.items():
        counts = slot_counts([slot for slot, *_ in command_slots])
        for slot, rs, extra, argvs in command_slots:
            want, kept, seen = max(VARIANTS, 4 * counts[slot]), [], set()
            for argv in argvs:
                argv = _with_json_format(argv)
                if tuple(argv) in seen:
                    continue
                seen.add(tuple(argv))
                code, text = run(argv)
                if code != 0:
                    continue
                entry = {"argv": argv, "command": command, "slot": slot, "rs": rs, **extra}
                entry["half"] = "dev" if len(kept) % 2 == 0 else "holdout"
                entry["expect"] = checks.mathematical_fields(json.loads(text))
                wrong = checks.check_cli(entry, {"exit_code": 0, "stdout": text})
                problems.extend(f"{' '.join(argv)}: {p}" for p in wrong)
                kept.append(entry)
                if len(kept) == want:
                    break
            if len(kept) < 2 * counts[slot]:
                problems.append(f"{command} {slot}: {len(kept)} variants, need {2 * counts[slot]}")
            queries.extend(kept)
    if problems:
        sys.exit("not recorded:\n" + "\n".join(problems))
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, cwd=ROOT
    ).stdout.strip()
    with open(GOLDENS, "w") as fh:
        fh.write(f'{{"recorded_at": "{commit}",\n"queries": [\n')
        fh.write(",\n".join(json.dumps(q, sort_keys=True) for q in queries))
        fh.write("\n]}\n")
    per_command = {c: sum(q["command"] == c for q in queries) for c in COMMANDS}
    print(f"{len(queries)} queries: {per_command}")


if __name__ == "__main__":
    main()
