"""One benchmark pass in a fresh interpreter.

run.py starts this as `python -I bench/bench_worker.py ROOT`.  The worker
imports `goldiebound` and `goldiebound.cli` from ROOT/src and prints `ready`;
the parent times set-up up to that line.  It then reads one JSON pass spec
from stdin, runs the ops one at a time (timing each call alone), and prints
one JSON reply with the op times, plain summaries of the results, its peak
RSS and, for a traced pass, the aggregated spans.  The modules imported
before `ready` besides goldiebound are ones goldiebound itself imports.
"""
import contextlib
import io
import json
import os
import sys
import time


def _premet(gb, op):
    n = op["n"]
    start = time.perf_counter()
    report = gb.premet_example(n)
    elapsed = time.perf_counter() - start
    return elapsed, {
        "n": report.n,
        "dim_v": report.dim_v,
        "d_v": report.d_v.value,
        "status": report.d_v.status,
        "grk_bound": report.grk_bound,
        "ideal_codim": report.ideal_codim,
        "a_orbit_size": report.a_orbit_size,
        "verdicts": [[name, ok] for name, ok, _ in report.verdicts],
    }


def _dpsi(gb, op):
    factors = tuple((family, rank) for family, rank in op["factors"])
    member = [gb.rootsys.Q(c) for c in op["member"]]
    start = time.perf_counter()
    rs = gb.RootSystem(factors)
    psi = gb.schur_class_of(rs, member)
    result = gb.d_psi(rs, psi)
    elapsed = time.perf_counter() - start
    return elapsed, {
        "rep": [str(c) for c in psi.rep],
        "value": result.value,
        "status": result.status,
    }


def _cli(gb, op):
    out = io.StringIO()
    code = 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            gb.cli.main(op["argv"], standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    elapsed = time.perf_counter() - start
    return elapsed, {"exit_code": code, "stdout": out.getvalue()}


RUNNERS = {"premet": _premet, "dpsi": _dpsi, "cli": _cli}


def main():
    root = os.path.abspath(sys.argv[1])
    sys.path.insert(0, os.path.join(root, "src"))
    import goldiebound
    import goldiebound.cli

    if not goldiebound.__file__.startswith(os.path.join(root, "src", "goldiebound")):
        sys.exit(f"goldiebound was imported from {goldiebound.__file__}, not from {root}/src")
    print("ready", flush=True)

    import resource

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import bench_trace

    spec = json.loads(sys.stdin.read())
    ops = spec["ops"]
    tracer = None
    if spec.get("trace"):
        tracer = bench_trace.Tracer()
        bench_trace.install(tracer)
    times, results = [], []
    for op in ops:
        try:
            elapsed, summary = RUNNERS[op["kind"]](goldiebound, op)
        except Exception as exc:  # one failed op must not end the pass
            times.append(None)
            results.append({"error": f"{type(exc).__name__}: {exc}"})
        else:
            times.append(elapsed)
            results.append({"ok": summary})
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reply = {
        "times": times,
        "results": results,
        "peak_rss_kb": peak_rss_kb,
        "spans": tracer.snapshot() if tracer else None,
    }
    sys.stdout.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
