"""Record the CLI goldens that `tests/test_golden.py` replays byte for byte.

    PYTHONPATH=src python3 tests/golden/record.py

Each run in RUNS goes through `goldiebound.cli.main` once per output format.
Its stdout is written to `<name>-<format>.out` in this directory, and its
arguments, exit code and stderr to `runs.json`.  Re-record only for a
deliberate change of the output contract, and list every changed file in
CHANGES.md with the reason.
"""
from __future__ import annotations

import json
from pathlib import Path

from click.testing import CliRunner

from goldiebound.cli import main

GOLDEN = Path(__file__).resolve().parent
FORMATS = ("json", "tsv", "pretty")

# (name, arguments): each is recorded in every format of FORMATS.
RUNS = [
    ("integral-readme", ["integral", "B2", "1/3,0"]),
    ("integral-product", ["integral", "A2xC3", "1/2,0,1/2,1/2,1/2,0"]),
    ("integral-empty", ["integral", "B2", "1/3,1/5"]),
    ("integral-half", ["integral", "B5", "1/2,1/2,1/2,0,0"]),
    ("delta-nongeneric", ["delta", "sp", "2^4", "--nu", "1,1"]),
    ("delta-readme", ["delta", "sp", "2^5", "--nu", "2,1"]),
    ("delta-outside-chamber", ["delta", "sp", "2^4", "--nu", "-8,6"]),
    ("delta-zero-orbit", ["delta", "sp", "1^6"]),
    ("delta-unsupported", ["delta", "sp", "4,2"]),
    ("orbit-readme", ["orbit", "sp", "2^4"]),
    ("dim-readme", ["dim", "B3", "1/2,1/2,1/2"]),
    ("orbit-size-readme", ["orbit-size", "B3", "1/2,1/2,1/2"]),
]
for command in ("dpsi", "index"):
    RUNS += [
        (f"{command}-B4-spin", [command, "B4", "1/2,1/2,1/2,1/2"]),
        (f"{command}-D4-vector", [command, "D4", "1,0,0,0"]),
        (f"{command}-A5-omega2", [command, "A5", "fw:[0,1,0,0,0]"]),
        (f"{command}-A2xD4", [command, "A2xD4", "fw:[1,0,0,0,0,1]"]),
    ]
RUNS += [(f"premet-{n}", ["premet", str(n)]) for n in range(3, 9)]
RUNS += [("table-premet-3-8", ["table", "premet", "--from", "3", "--to", "8"])]
RUNS += [
    ("dim-A35", ["dim", "A35", "fw:[1" + ",0" * 33 + ",2]"]),
    ("dim-D30", ["dim", "D30", "fw:[1" + ",0" * 28 + ",2]"]),
    ("dim-A2xD4", ["dim", "A2xD4", "fw:[1,1,0,0,0,1]"]),
    ("dim-not-dominant", ["dim", "B2", "0,1"]),
    ("dim-not-in-lattice", ["dim", "C2", "1/2,1/2"]),
    # the retired --bound is accepted and ignored
    ("dpsi-budget", ["dpsi", "A3", "1,1,0,0", "--bound", "1"]),
    ("index-budget", ["index", "A3", "1,1,0,0", "--bound", "1"]),
    ("premet-budget", ["premet", "5", "--bound", "0"]),
    ("dpsi-negative-bound", ["dpsi", "B2", "1/2,1/2", "--bound", "-1"]),
    # exit 2: invalid input
    ("orbit-invalid", ["orbit", "sp", "3,1"]),
    ("orbit-size-mismatch", ["orbit-size", "B2", "1,2,3"]),
    ("integral-mismatch", ["integral", "B2", "1/2"]),
    ("premet-too-small", ["premet", "2"]),
    ("table-premet-too-small", ["table", "premet", "--from", "2", "--to", "4"]),
    ("table-premet-3-16", ["table", "premet", "--from", "3", "--to", "16"]),
    # a weight with a leading minus sign is an argument, not an option
    ("orbit-size-negative", ["orbit-size", "B2", "-1,2"]),
    ("integral-negative", ["integral", "B2", "-1/3,0"]),
    # d(psi) at growing rank and over three factors
    ("dpsi-A4-omega3", ["dpsi", "A4", "fw:[0,0,1,0]"]),
    ("dpsi-A11-omega4", ["dpsi", "A11", "fw:[0,0,0,1" + ",0" * 7 + "]"]),
    ("dpsi-C8-omega1", ["dpsi", "C8", "1" + ",0" * 7]),
    ("dpsi-D9-omega1", ["dpsi", "D9", "1" + ",0" * 8]),
    ("dpsi-A5xA5xA5", ["dpsi", "A5xA5xA5", "fw:[" + ",".join(["0,0,1,0,0"] * 3) + "]"]),
    # exit 2: invalid input
    ("index-not-in-lattice", ["index", "C2", "1/2,1/2"]),
    ("delta-unparsable-nu", ["delta", "sp", "2^4", "--nu", "1,oops"]),
    ("delta-nu-length", ["delta", "sp", "2^4", "--nu", "2,1,1"]),
    # the so family, and a non-even orbit with odd grading degrees
    ("orbit-so", ["orbit", "so", "3,1,1"]),
    ("orbit-sp-odd", ["orbit", "sp", "2,1,1"]),
]
# every command's help text: --help exits 0 before --format is read
RUNS += [
    (f"{'-'.join(command)}-help", [*command, "--help"])
    for command in (
        ["dim"], ["orbit-size"], ["dpsi"], ["index"], ["integral"],
        ["orbit"], ["delta"], ["premet"], ["table", "premet"],
    )
]


def replay(args: list[str]):
    """One CLI invocation, on an 80-column terminal so that help text wraps the same everywhere."""
    return CliRunner(env={"COLUMNS": "80"}).invoke(main, args)


def record() -> list[dict]:
    index = []
    for name, args in RUNS:
        for fmt in FORMATS:
            full = args + ["--format", fmt]
            result = replay(full)
            stdout = f"{name}-{fmt}.out"
            (GOLDEN / stdout).write_text(result.stdout)
            index.append(
                {
                    "args": full,
                    "exit_code": result.exit_code,
                    "stderr": result.stderr,
                    "stdout": stdout,
                }
            )
    (GOLDEN / "runs.json").write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    return index


if __name__ == "__main__":
    print(f"recorded {len(record())} runs in {GOLDEN}")
