"""The output contract: every recorded CLI run replays to the same bytes.

The runs and their recorder are in `tests/golden/record.py`.
"""
import json
from pathlib import Path

import pytest

from golden.record import replay

GOLDEN = Path(__file__).resolve().parent / "golden"
RUNS = json.loads((GOLDEN / "runs.json").read_text())


@pytest.mark.parametrize("run", RUNS, ids=[run["stdout"][: -len(".out")] for run in RUNS])
def test_cli_run_matches_golden(run):
    result = replay(run["args"])
    assert result.exit_code == run["exit_code"]
    assert result.stdout == (GOLDEN / run["stdout"]).read_text()
    assert result.stderr == run["stderr"]
