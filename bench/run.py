"""Benchmark of the goldiebound chain, end to end and layer by layer.

    python3 bench/run.py --workload premet-sweep --seed 1 --seconds 30 --trace 0

Workloads: premet-sweep, dpsi-enumerate, cli-mix (see bench/README.md).
One client, closed loop, no threads: each pass is one fresh worker process
(`bench_worker.py`) running the workload's op list, and passes run one at a
time until --seconds have passed (and, untraced, at least 100 ops are done).
Every op's result is checked.  With --trace 0 the last line of stdout is
JSON with the end-to-end metrics; with --trace 1 each pass runs untraced and
then traced, and the last line carries the per-layer metrics.  Exit code 2
means the harness itself could not run (for example, no src/goldiebound).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "bench_worker.py"
sys.path.insert(0, str(BENCH))

import bench_trace  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

# Set-up-only workers: PROBES_PER_PASS before each pass until the run holds
# SETUP_SAMPLES set-up times, so that they spread over the run.  One more at
# the start is a warm-up and is not counted.
PROBES_PER_PASS = 2
SETUP_SAMPLES = 40
MIN_OPS = 100  # so that at least ten op times of the run lie beyond p90
RUN_LIMIT_S = 140  # start no pass after this, whatever MIN_OPS says
WORKER_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("certified_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


class HarnessError(Exception):
    """The benchmark could not run; no result is printed."""


def run_worker(ops: list[dict], trace: bool) -> tuple[float, dict]:
    """Start a fresh worker, time its set-up, run one pass; (setup_s, reply)."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-I", str(WORKER), str(ROOT)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    ) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            spec = json.dumps({"ops": ops, "trace": trace}) if ready == "ready\n" else ""
            out, err = proc.communicate(spec, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"worker ran longer than {WORKER_TIMEOUT_S} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    if ready != "ready\n" or proc.returncode != 0:
        raise HarnessError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return setup_s, json.loads(out.splitlines()[-1])


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run passes for `seconds`; return the raw passes and set-up samples."""
    start = time.perf_counter()
    run_worker([], False)
    setups, plain, traced = [], [], []
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        done = sum(len(ops) for ops, _ in plain)
        if plain and (elapsed >= RUN_LIMIT_S or (elapsed >= seconds and (trace or done >= MIN_OPS))):
            break
        for _ in range(PROBES_PER_PASS if len(setups) < SETUP_SAMPLES else 0):
            setups.append(run_worker([], False)[0])
        ops = workload.pass_ops(index)
        setup_s, reply = run_worker(ops, False)
        setups.append(setup_s)
        plain.append((ops, reply))
        if trace:
            traced.append((ops, run_worker(ops, True)[1]))
        index += 1
    return {"setups": setups, "plain": plain, "traced": traced}


def check_all(workload, passes) -> list[str]:
    """A readable line per failed op."""
    failures = []
    for ops, reply in passes:
        for op, result in zip(ops, reply["results"]):
            problems = [result["error"]] if "error" in result else workload.check(op, result["ok"])
            if problems:
                failures.append(f"{json.dumps(op)[:160]}: {'; '.join(problems)}")
    return failures


def _busy(reply) -> float:
    return sum(t for t in reply["times"] if t is not None)


def fast_quartile(values: list[float], better: str = "lower") -> float:
    """The first quartile of per-pass values, or the third where higher is better.

    Every pass runs the same ops in a fresh worker, so passes differ only by
    what else the machine is doing, and that only ever adds time.  The fast
    quartile follows the program's own cost and is far less moved by the
    minutes-long slow spells of a shared machine than the median is.
    """
    if len(values) < 2:
        return values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1 if better == "lower" else q3


def end_to_end(workload, raw: dict) -> dict[str, float]:
    """Op latency quantiles are taken within each pass, then over passes."""
    rates, p50, p90, rss, statuses = [], [], [], [], []
    for ops, reply in raw["plain"]:
        rss.append(reply["peak_rss_kb"] / 1024)
        for op, result in zip(ops, reply["results"]):
            if "ok" in result:
                statuses.extend(workload.statuses(op, result["ok"]))
        done = [t for t in reply["times"] if t is not None]
        if len(done) < 2:
            continue  # too few ops completed to time; the failures are counted
        rates.append(len(done) / _busy(reply))
        p50.append(statistics.median(done))
        p90.append(statistics.quantiles(done, n=10)[8])
    if not rates:
        raise HarnessError("no pass completed two ops")
    return {
        "setup_s": statistics.median(raw["setups"]),
        "ops_per_s": fast_quartile(rates, "higher"),
        "latency_p50_ms": fast_quartile(p50) * 1000,
        "latency_p90_ms": fast_quartile(p90) * 1000,
        "certified_share": statuses.count("certified") / len(statuses) if statuses else 0.0,
        "peak_rss_mb": statistics.median(rss),
    }


def per_layer(raw: dict) -> dict[str, float]:
    ratios = [
        _busy(traced) / _busy(plain)
        for (_, plain), (_, traced) in zip(raw["plain"], raw["traced"])
    ]
    spans = bench_trace.merge([reply["spans"] for _, reply in raw["traced"]])
    ops = sum(len(ops) for ops, _ in raw["traced"])
    return bench_trace.per_layer_metrics(spans, ops, statistics.median(ratios))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "goldiebound" / "__init__.py").is_file():
            raise HarnessError(f"no goldiebound sources under {ROOT / 'src'}")
        workload = WORKLOADS[args.workload](args.seed)
        raw = measure(workload, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    passes = raw["plain"] + raw["traced"]
    attempted = sum(len(ops) for ops, _ in passes)
    failures = check_all(workload, passes)
    failed = len(failures)
    for line in failures[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    try:
        if args.trace:
            units = {name: unit for name, unit, _ in bench_trace.PER_LAYER}
            values = per_layer(raw)
        else:
            units = dict(END_TO_END)
            values = end_to_end(workload, raw)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "properties": workload.properties([ops for ops, _ in raw["plain"]]),
        "passes": len(raw["plain"]),
        "traced_passes": len(raw["traced"]),
        "setup_samples": len(raw["setups"]),
        "failed_share": failed / attempted,
    }
    print(f"{workload.name}: seed {args.seed}, {record['passes']} passes, {attempted} ops")
    for name, value in values.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")
    print(f"  {'failed_share':48s} {record['failed_share']:14.6g} ratio")
    print("record " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
