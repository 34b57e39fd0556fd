"""One fresh interpreter of the benchmark; ``run.py`` starts these.

``setup``    times ``import repro`` plus ``build_network`` for each of the
             workload's points (and sweep_warm's cold ledger fill);
``measure``  runs untraced reps for the given time (closed loop, one client:
             the next rep starts when the previous returns);
``trace``    runs one untraced and one traced rep of the same work.

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
# The repo root, not bench/, leads the path: `bench` imports as a namespace
# package and bench/trace.py cannot shadow the standard library's `trace`.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from bench import workloads  # noqa: E402  (imports repro: part of the timed set-up)


def _cpu_s() -> float:
    """User + system CPU of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _timed_rep(workload: workloads.Workload, ctx: workloads.Context) -> dict:
    """One rep; a rep that raises is reported, not fatal, so it can be counted."""
    cpu, wall = _cpu_s(), time.perf_counter()
    try:
        points = workload.run(ctx)
    except Exception:  # the benchmark's boundary: count the failure and keep measuring
        traceback.print_exc()
        return {"error": traceback.format_exc(limit=1)}
    return {"wall_s": time.perf_counter() - wall, "cpu_s": _cpu_s() - cpu, "points": points}


def setup(workload: workloads.Workload, ctx: workloads.Context) -> dict:
    workloads.build_networks(workload, ctx.seed)
    if workload.fill is not None:
        workload.fill(ctx)
    return {"setup_s": time.perf_counter() - START}


def measure(
    workload: workloads.Workload, ctx: workloads.Context, seconds: float, min_reps: int
) -> dict:
    reps: list[dict] = []
    begin = time.perf_counter()
    while True:
        reps.append(_timed_rep(workload, ctx))
        elapsed = time.perf_counter() - begin
        # Stop before the rep that would overrun the budget.
        if len(reps) >= min_reps and elapsed + elapsed / len(reps) > seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"reps": reps, "peak_rss_mb": peak_kib / 1024}


def _invariant_check_us() -> float:
    """Cost of one direct InvariantChecker().check on a loaded FR6 network."""
    from repro import FR6, Simulator
    from repro.harness.experiment import build_network
    from repro.sim.invariants import InvariantChecker

    network = build_network(FR6, 0.50)
    simulator = Simulator(network)
    simulator.step(800)
    checker = InvariantChecker()
    calls = 200
    begin = time.perf_counter()
    for _ in range(calls):
        checker.check(network, simulator.cycle - 1)
    return (time.perf_counter() - begin) / calls * 1e6


def trace_rep(name: str, workload: workloads.Workload, ctx: workloads.Context) -> dict:
    from bench import trace

    _timed_rep(workload, ctx)  # lazy imports and first-touch costs land here, not in a ratio
    report = {"untraced": _timed_rep(workload, ctx)}
    # The cross-run numbers ride on the workload whose network they share,
    # and run before tracing leaves its garbage behind.
    if name == "fr_observed":
        report["plain"] = _timed_rep(workloads.WORKLOADS["fr_mid"], ctx)
    if name == "fr_mid":
        report["invariant_check_us"] = _invariant_check_us()
    with trace.tracing() as tracer:
        report["traced"] = _timed_rep(workload, ctx)
    report["spans"] = tracer.report()
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(workloads.PRESETS), default="full")
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--store", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(args.seed, workloads.PRESETS[args.size], args.tmp, args.store)
    if args.mode == "setup":
        report = setup(workload, ctx)
    else:
        if workload.fill is not None and not any(args.store.glob("*.json")):
            workload.fill(ctx)
        if args.mode == "measure":
            report = measure(workload, ctx, args.seconds, args.min_reps)
        else:
            report = trace_rep(args.workload, workload, ctx)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
