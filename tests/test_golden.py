"""The output contract: every recorded CLI run replays to the same bytes.

The runs and their recorder are in `tests/golden/record.py`.
"""
import json
from pathlib import Path

import pytest

from golden.record import FORMATS, RUNS, replay

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
