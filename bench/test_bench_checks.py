"""Negative controls for the benchmark's checker, and its output contract.

    PYTHONPATH=src python3 -m pytest bench -q

The checker must accept the program's real output and flag a tampered d(psi)
value, a flipped premet verdict and a wrong CLI field.
"""
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import bench_checks as checks  # noqa: E402
import bench_trace  # noqa: E402
import bench_worker  # noqa: E402
import goldiebound  # noqa: E402
import goldiebound.cli  # noqa: E402
import run  # noqa: E402
from bench_workloads import COMMANDS, HOLDOUT_SEED, OPS_PER_COMMAND, CliMix, DpsiEnumerate  # noqa: E402


def _cli_entry(command: str, slot: str | None = None) -> tuple[dict, dict]:
    entry = next(
        op for op in CliMix(7).ops if op["command"] == command and slot in (None, op["slot"])
    )
    return entry, bench_worker._cli(goldiebound, entry)[1]


def _retext(summary: dict, payload) -> dict:
    return {**summary, "stdout": checks.canonical(payload) + "\n"}


def test_premet_checker_flags_flipped_verdict_and_wrong_dimension():
    _, summary = bench_worker._premet(goldiebound, {"n": 5})
    assert checks.check_premet(5, summary) == []
    flipped = json.loads(json.dumps(summary))
    flipped["verdicts"][2][1] = False
    assert checks.check_premet(5, flipped)
    assert checks.check_premet(5, {**summary, "dim_v": 8})
    assert checks.check_premet(5, {**summary, "verdicts": []})


def test_dpsi_checker_flags_tampered_value_and_representative():
    ops = DpsiEnumerate(7).pass_ops(0)
    cheap = [op for op in ops if op["factors"] in ([["B", 3]], [["A", 2]], [["D", 4]])]
    assert len(cheap) == 6
    for op in cheap:
        _, summary = bench_worker._dpsi(goldiebound, op)
        assert op["member"] != [str(c) for c in checks.fundamental_weight(*op["factors"][0], op["k"])]
        assert checks.check_dpsi(op, summary) == []
        assert checks.check_dpsi(op, {**summary, "value": summary["value"] * 2})
        assert checks.check_dpsi(op, {**summary, "rep": ["0"] * len(summary["rep"])})


def test_cli_checker_flags_wrong_field_and_non_canonical_output():
    entry, summary = _cli_entry("dim")
    assert checks.check_cli(entry, summary) == []
    payload = json.loads(summary["stdout"])
    assert checks.check_cli(entry, _retext(summary, {**payload, "dim": str(int(payload["dim"]) + 1)}))
    assert checks.check_cli(entry, {**summary, "stdout": json.dumps(payload, indent=4) + "\n"})
    assert checks.check_cli(entry, {**summary, "exit_code": 2})


def test_cli_checker_ignores_proof_metadata_only():
    entry, summary = _cli_entry("dpsi", "A2 omega_1")
    payload = json.loads(summary["stdout"])
    outcome = payload["dpsi"]
    relaxed = {**outcome, "status": "certified", "witnesses": [], "bound_used": 0}
    assert checks.check_cli(entry, _retext(summary, {**payload, "dpsi": relaxed})) == []
    wrong = {**outcome, "value": str(int(outcome["value"]) + 1)}
    assert checks.check_cli(entry, _retext(summary, {**payload, "dpsi": wrong}))


def _locked_in(entry: dict, summary: dict, wrong: dict) -> list[str]:
    """Check a wrong payload against a golden tampered to match it."""
    return checks.check_cli({**entry, "expect": checks.mathematical_fields(wrong)}, _retext(summary, wrong))


def test_cli_checker_applies_closed_forms_behind_the_golden():
    # A wrong golden must not make a wrong d(psi) value or premet report pass.
    for command, slot, field in (("index", "B3 omega_3", "index"), ("premet", "n 5", "d_v")):
        entry, summary = _cli_entry(command, slot)
        assert checks.check_cli(entry, summary) == []
        payload = json.loads(summary["stdout"])
        doubled = {**payload[field], "value": str(2 * int(payload[field]["value"]))}
        assert _locked_in(entry, summary, {**payload, field: doubled})
    entry, summary = _cli_entry("premet", "n 6")
    payload = json.loads(summary["stdout"])
    flipped = [{**v, "passed": False} if i == 0 else v for i, v in enumerate(payload["verdicts"])]
    assert _locked_in(entry, summary, {**payload, "verdicts": flipped})


def test_cli_mix_shape_and_holdout():
    ops = CliMix(3).ops
    assert [sum(op["command"] == c for op in ops) for c in COMMANDS] == [OPS_PER_COMMAND] * len(COMMANDS)
    assert len({tuple(op["argv"]) for op in ops}) == len(ops)
    development = {tuple(op["argv"]) for seed in range(1, 11) for op in CliMix(seed).ops}
    assert not development & {tuple(op["argv"]) for op in CliMix(HOLDOUT_SEED).ops}
    members = {tuple(op["member"]) for seed in range(1, 11) for op in DpsiEnumerate(seed).ops}
    assert not members & {tuple(op["member"]) for op in DpsiEnumerate(HOLDOUT_SEED).ops}


def test_closed_forms():
    assert checks.dpsi_closed_form("A", 5, 2) == 3
    assert checks.dpsi_closed_form("B", 4, 4) == 16
    assert checks.dpsi_closed_form("C", 4, 1) == 8
    assert checks.dpsi_closed_form("D", 6, 1) == 4
    assert checks.dpsi_closed_form("D", 5, 4) == 16


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        bench_trace.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == ["premet-sweep", "dpsi-enumerate", "cli-mix"]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-mix", "--seed", "3", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_result_line_contract():
    result = _bench(ROOT, "--seconds", "0.1")
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 100
    assert set(last["metrics"]) == {name for name, _ in run.END_TO_END}


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.*"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    result = _bench(tmp_path, "--seconds", "1")
    assert result.returncode != 0
    assert result.stdout == ""
