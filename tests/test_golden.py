"""The output contract: every recorded CLI run replays to the same bytes.

The runs and their recorder are in `tests/golden/record.py`.
"""
import json
from pathlib import Path

import click
import pytest

from golden.record import FORMATS, RUNS, replay
from goldiebound.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RECORDED = json.loads((GOLDEN / "runs.json").read_text())


@pytest.mark.parametrize(
    "run", RECORDED, ids=[run["stdout"][: -len(".out")] for run in RECORDED]
)
def test_cli_run_matches_golden(run):
    result = replay(run["args"])
    assert result.exit_code == run["exit_code"]
    assert result.stdout == (GOLDEN / run["stdout"]).read_text()
    assert result.stderr == run["stderr"]


def test_every_run_is_recorded():
    # a run added to RUNS without re-recording would never be replayed
    expected = [
        (args + ["--format", fmt], f"{name}-{fmt}.out") for name, args in RUNS for fmt in FORMATS
    ]
    assert [(run["args"], run["stdout"]) for run in RECORDED] == expected


def _leaf_commands(group: click.Group, path: tuple = ()):
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from _leaf_commands(command, path + (name,))
        else:
            yield path + (name,)


def test_every_command_has_a_run_in_each_format():
    # a command added without goldens would have no output contract
    recorded = {(tuple(run["args"][:-2]), run["args"][-1]) for run in RECORDED}
    missing = [
        (" ".join(path), fmt)
        for path in _leaf_commands(main)
        for fmt in FORMATS
        if not any(args[: len(path)] == path and f == fmt for args, f in recorded)
    ]
    assert list(_leaf_commands(main)) and missing == []
