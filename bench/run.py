#!/usr/bin/env python3
"""The benchmark of record: run workloads, check results, print every metric.

    python bench/run.py                          every workload, end-to-end metrics
    python bench/run.py --trace 1                every workload, per-layer metrics
    python bench/run.py --workload fr_mid --seed 3 --seconds 10 --trace 0
    python bench/run.py --runs 10 --out A.jsonl  a run set for bench/compare.py
    python bench/run.py --write-expected         regenerate bench/expected.json

Each workload runs in fresh single-threaded interpreters (bench/worker.py).
Results at seeds 1 and 2 must equal bench/expected.json; at any other seed
all reps (and the traced rep) must agree with each other.  The last stdout
line of each workload is its JSON record; the exit code is non-zero when any
point failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.dont_write_bytecode = True
sys.path[0] = str(ROOT)  # see worker.py
sys.path.insert(1, str(ROOT / "src"))
if not (ROOT / "src" / "repro").is_dir():
    raise SystemExit(f"bench: no simulator to measure under {ROOT / 'src'}")

from bench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXPECTED_PATH = BENCH / "expected.json"
EXPECTED_SEEDS = (1, 2)
SETUP_SAMPLES = 5
MIN_REPS = 3
#: The contract wants every metric on every workload and none that reads 0;
#: a metric that does not apply to a workload reads this constant instead.
NOT_APPLICABLE = 1.0


def _worker(mode: str, workload: str, seed: int, size: str, tmp: Path, store: Path,
            *extra: str) -> dict[str, Any]:
    store.mkdir(exist_ok=True)
    command = [sys.executable, str(BENCH / "worker.py"), mode, workload, "--seed", str(seed),
               "--size", size, "--tmp", str(tmp), "--store", str(store), *extra]
    env = {
        **os.environ,
        # Workers write no bytecode and look for it only where none can be: a
        # run leaves src/ untouched, and set-up is always an import from
        # source, whatever __pycache__ other tools left behind.
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPYCACHEPREFIX": str(OUT / "no-bytecode-here"),
        # The ledger asks git for HEAD; the ceiling keeps that search inside the checkout.
        "GIT_CEILING_DIRECTORIES": str(ROOT.parent),
    }
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"bench: {mode} {workload} exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _check(name: str, seed: int, size: str, reps: list[dict[str, Any]]) -> tuple[int, int, list]:
    """(attempted, failed, reference points): every point of every rep against
    expected.json, or against the first rep that returned when the seed (or
    the smoke size) has no committed expectation."""
    reference = None
    if size == "full" and seed in EXPECTED_SEEDS:
        reference = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))[name][str(seed)]
    width = len(WORKLOADS[name].networks)
    failed = 0
    for rep in reps:
        points = rep.get("points")
        if points is None:
            failed += width
            continue
        if reference is None:
            reference = points
        # Slices, so a point missing on either side counts as a difference.
        failed += sum(
            1 for index in range(width)
            if points[index:index + 1] != reference[index:index + 1]
        )
    return width * len(reps), failed, reference or []


def _simulated(name: str, points: list[dict[str, Any]]) -> dict[str, float]:
    """The simulated metrics that apply to this workload."""
    metrics = {"sim_accepted_load": statistics.fmean(point["accepted_load"] for point in points)}
    latencies = [point["mean_latency"] for point in points if "mean_latency" in point]
    if latencies:
        metrics["sim_latency_cycles"] = statistics.fmean(latencies)
    paper = WORKLOADS[name].paper
    if paper is not None:
        index, field, value = paper
        metrics["paper_agreement_pct"] = 100.0 * (1.0 - abs(points[index][field] - value) / value)
    return metrics


def end_to_end(name: str, seed: int, seconds: float, size: str) -> dict[str, Any]:
    smoke = size == "smoke"
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        tmp = Path(scratch)
        setup_s = []
        for sample in range(1 if smoke else SETUP_SAMPLES):
            store = tmp / f"store{sample}"
            setup_s.append(_worker("setup", name, seed, size, tmp, store)["setup_s"])
        # The last set-up's ledger is the one sweep_warm replays.
        report = _worker("measure", name, seed, size, tmp, store, "--seconds", str(seconds),
                         "--min-reps", str(1 if smoke else MIN_REPS))
    reps = report["reps"]
    attempted, failed, points = _check(name, seed, size, reps)
    good = [rep for rep in reps if "points" in rep]
    if not good:
        raise SystemExit(f"bench: every rep of {name} raised")
    wall_s = statistics.median(rep["wall_s"] for rep in good)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": wall_s,
        "cpu_s": statistics.median(rep["cpu_s"] for rep in good),
        "effective_cycles_per_s": sum(point["cycles"] for point in points) / wall_s,
        "peak_rss_mb": report["peak_rss_mb"],
        "passed_share": 1.0 - failed / attempted,
        **_simulated(name, points),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "points": points,
            "setup_samples": setup_s, "rep_wall_s": [rep.get("wall_s") for rep in reps]}


def per_layer(name: str, seed: int, size: str) -> dict[str, Any]:
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        tmp = Path(scratch)
        report = _worker("trace", name, seed, size, tmp, tmp / "store")
    untraced, traced = report["untraced"], report["traced"]
    # The traced result must equal the untraced one, or the workload fails.
    attempted, failed, points = _check(name, seed, size, [untraced, traced])
    spans = report["spans"]
    metrics: dict[str, float] = {}
    for span, stats in spans.items():
        metrics[f"{span}.calls"] = stats["calls"]
        metrics[f"{span}.self_s"] = stats["self_s"]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def calls(span: str) -> int:
        return spans[span]["calls"]

    node_cycles = calls("core.network.step") * WORKLOADS[name].nodes
    for metric, span in (
        ("core.network.ctrl_stepped_share", "core.router.control_phase"),
        ("core.network.ni_ctrl_stepped_share", "core.interface.control_phase"),
        ("core.network.dep_stepped_share", "core.router.data_departures"),
        ("core.network.ni_data_stepped_share", "core.interface.data_phase"),
        ("core.network.arr_stepped_share", "core.router.data_arrivals"),
    ):
        metrics[metric] = share(calls(span), node_cycles)
    for metric, span in (
        ("sim.link.receive_empty_share", "sim.link.receive"),
        ("core.reservation.reserve_none_share", "core.reservation.reserve_earliest"),
    ):
        metrics[metric] = share(spans[span]["misses"], calls(span))
    created = calls("traffic.source.maybe_create") - spans["traffic.source.maybe_create"]["misses"]
    metrics["traffic.source.create_share"] = share(created, calls("traffic.source.maybe_create"))
    # cache_hit comes from the sweep's telemetry, i.e. the ledger's own counters.
    metrics["obs.ledger.hit_share"] = share(
        sum(1 for point in points if point.get("cache_hit")), len(points)
    )
    ok = "wall_s" in untraced and "wall_s" in traced
    metrics["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"] if ok else 0.0
    plain = report.get("plain", {})
    metrics["obs.observed_vs_plain_ratio"] = (
        untraced["wall_s"] / plain["wall_s"] if ok and "wall_s" in plain else 0.0
    )
    metrics["sim.invariants.check.us_per_call"] = report.get("invariant_check_us", 0.0)
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "points": points}


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str) -> dict[str, Any]:
    """One workload, one mode: print its metrics and return its record."""
    if trace:
        outcome = per_layer(name, seed, size)
    else:
        outcome = end_to_end(name, seed, seconds, size)
        print(f"{name}: seed {seed}, medians of {len(outcome['rep_wall_s'])} reps "
              f"and {len(outcome['setup_samples'])} set-ups")
    measured = outcome["metrics"]
    metrics = {}
    for metric in SPEC["per_layer" if trace else "end_to_end"]:
        value = measured.get(metric["name"], NOT_APPLICABLE)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        shown = f"{value:.6g}" if metric["name"] in measured else f"n/a (reads {value:g})"
        print(f"  {name}.{metric['name']} = {shown} {metric['unit']}")
    record = {"correct": outcome["failed"] == 0, "attempted": outcome["attempted"],
              "failed": outcome["failed"], "metrics": metrics}
    (OUT / f"{name}{'.trace' if trace else ''}.json").write_text(
        json.dumps({"workload": name, "seed": seed, **outcome, **record}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(record), flush=True)
    return record


def write_expected() -> None:
    expected: dict[str, dict[str, Any]] = {}
    for name in WORKLOADS:
        expected[name] = {}
        for seed in EXPECTED_SEEDS:
            with tempfile.TemporaryDirectory(dir=OUT) as scratch:
                tmp = Path(scratch)
                report = _worker("measure", name, seed, "full", tmp, tmp / "store")
            expected[name][str(seed)] = report["reps"][0]["points"]
            print(f"{name} seed {seed}: {len(expected[name][str(seed)])} points")
    EXPECTED_PATH.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def main() -> int:
    names = list(WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="how long the untraced reps of one workload measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: one traced rep, per-layer metrics")
    parser.add_argument("--runs", type=int, default=1, help="repeat with seed, seed+1, ...")
    parser.add_argument("--out", type=Path, help="append each record to this JSON-lines run set")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken presets, one rep, one set-up (bench/tests)")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    if args.write_expected:
        write_expected()
        return 0
    failed = 0
    for run in range(args.runs):
        seed = args.seed + run
        for name in [args.workload] if args.workload else names:
            record = run_workload(name, seed, 0.0 if args.smoke else args.seconds, args.trace,
                                  "smoke" if args.smoke else "full")
            failed += record["failed"]
            if args.out is not None:
                line = {"workload": name, "seed": seed, "trace": args.trace, **record}
                with open(args.out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(line) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
