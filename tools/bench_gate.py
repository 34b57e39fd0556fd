#!/usr/bin/env python
"""Benchmark-trajectory regression gate for the simulator.

The observability layer's ``SimProfiler`` measures simulator speed
(cycles/sec per harness phase) on every observed run, but until now the
number went nowhere: nothing was tracked, so a performance regression
would drift in silently.  This tool closes the loop:

``record``
    Run the standard benchmark workload -- the observed quick point
    (FR6, load 0.5, quick preset, seed 1) with only the profiler attached,
    so the number is the raw simulator, not the event-bus overhead --
    write the baseline (``benchmarks/results/BENCH_5.json``) and append
    one line to the trajectory log
    (``benchmarks/results/BENCH_trajectory.jsonl``).  It then runs the
    per-model quick points (VC8, WH8, and FR6 on a 16x16 mesh), writes
    them to ``benchmarks/results/BENCH_models.json``, and appends one
    trajectory line per model (tagged with a ``model`` field).  Then it
    times what observing costs -- the primary workload again, plain and
    with latency attribution attached, one line tagged ``observed`` with
    both wall times and their ratio -- and last the end-to-end number a
    user waits on -- one quick load sweep cold into a fresh run ledger,
    then replayed warm from it, one line each tagged ``sweep``.  The
    ``observed`` and ``sweep`` lines are recorded, not gated.  All files
    are committed, so the trajectory accumulates one point per re-record
    across the repo's history.

``check``
    Re-run the primary workload and compare fresh cycles/sec against the
    baseline.  Fails loudly (exit 1) when the fresh number falls below
    ``--min-ratio`` times the baseline -- the default 0.7 flags a >30%
    regression.  With ``--models`` the per-model workloads are gated the
    same way against ``BENCH_models.json``.  CI runs on shared runners
    whose absolute speed differs from the machine that recorded the
    baseline, so its invocation passes a much looser ratio; the tight
    default is for like-for-like checks on the recording machine.

Usage::

    python tools/bench_gate.py record
    python tools/bench_gate.py check
    python tools/bench_gate.py check --models
    python tools/bench_gate.py check --min-ratio 0.3   # cross-machine (CI)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

BASELINE = REPO_ROOT / "benchmarks" / "results" / "BENCH_5.json"
MODELS_BASELINE = REPO_ROOT / "benchmarks" / "results" / "BENCH_models.json"
TRAJECTORY = REPO_ROOT / "benchmarks" / "results" / "BENCH_trajectory.jsonl"
BASELINE_SCHEMA = "frfc-bench-baseline/1"
MODELS_SCHEMA = "frfc-bench-models/1"

#: The primary benchmark workload: the standard observed quick point.
WORKLOAD = {"config": "FR6", "offered_load": 0.5, "preset": "quick", "seed": 1}

#: Per-model quick points: one per flow-control scheme plus a larger mesh.
#: Loads sit below each scheme's saturation so the drain phase terminates;
#: the mesh entry stresses the worklist machinery (256 routers, most idle).
MODEL_WORKLOADS = {
    "VC8": {"config": "VC8", "offered_load": 0.4, "preset": "quick", "seed": 1},
    "WH8": {"config": "WH8", "offered_load": 0.3, "preset": "quick", "seed": 1},
    "FR6_16x16": {
        "config": "FR6",
        "offered_load": 0.4,
        "preset": "quick",
        "seed": 1,
        "mesh": [16, 16],
    },
}

#: The end-to-end workload: one quick load sweep, cold into a fresh run
#: ledger (default pool width) and then replayed warm from it.
SWEEP_WORKLOAD: dict[str, Any] = {
    "config": "FR6", "loads": [0.2, 0.3, 0.4], "preset": "quick", "seed": 1,
}


def _resolve_config(name: str) -> Any:
    from repro import FR6, VC8, WormholeConfig

    configs = {"FR6": FR6, "VC8": VC8, "WH8": WormholeConfig(buffers_per_input=8)}
    try:
        return configs[name]
    except KeyError:
        raise SystemExit(
            f"bench-gate: unknown workload config {name!r}; known: "
            + ", ".join(sorted(configs))
        ) from None


def _make_ledger(args: argparse.Namespace) -> Any:
    if args.no_ledger:
        return None
    from repro.obs.ledger import RunLedger

    return RunLedger(args.ledger)


def _record_bench(ledger: Any, label: str, report: dict[str, Any]) -> None:
    """Drop one ``kind: bench`` record into the run ledger.

    Deterministic outputs (cycles, packets) go in the result block; the
    wall-clock numbers live in the explicitly-labelled profile block, so
    re-records at the same git SHA overwrite rather than accumulate.
    """
    if ledger is None:
        return
    model = {"FR": "FR", "VC": "VC", "WH": "WH"}[str(report["workload"]["config"])[:2]]
    identity = ledger.bench_identity(model, {"label": label, **report["workload"]})
    ledger.record_bench(
        identity,
        {"cycles": report["cycles"],
         "packets_measured": report["packets_measured"]},
        profile=_bench_block(report),
    )


def run_benchmark(
    workload: dict[str, Any] | None = None, attribution: bool = False
) -> dict[str, Any]:
    """Run one workload with only the profiler attached (and, on request,
    a latency attributor on the event bus); returns the profiler's report."""
    from repro import Mesh2D, run_experiment
    from repro.obs.session import ObsSession

    if workload is None:
        workload = WORKLOAD
    mesh_dims = workload.get("mesh")
    mesh = Mesh2D(*mesh_dims) if mesh_dims else None
    session = ObsSession(
        profile=True,
        attribution_out="" if attribution else None,
        manifest_out="",
        bench_out="",
    )
    result = run_experiment(
        _resolve_config(str(workload["config"])),
        workload["offered_load"],
        preset=str(workload["preset"]),
        seed=int(workload["seed"]),
        mesh=mesh,
        obs=session,
    )
    assert session.profiler is not None
    report = session.profiler.report()
    report["workload"] = dict(workload)
    report["packets_measured"] = result.packets_measured
    return report


def run_observed() -> dict[str, Any]:
    """Wall time of ``WORKLOAD`` plain and attributed, back to back."""
    plain = run_benchmark()
    attributed = run_benchmark(attribution=True)
    return {
        "cycles": attributed["cycles"],
        "plain_wall_seconds": plain["wall_seconds"],
        "attributed_wall_seconds": attributed["wall_seconds"],
        "ratio": round(attributed["wall_seconds"] / plain["wall_seconds"], 4),
    }


def run_sweeps() -> dict[str, Any]:
    """Time ``SWEEP_WORKLOAD`` cold and warm; a profiler report, one phase each."""
    import tempfile

    from repro.harness.sweep import run_load_sweep
    from repro.obs.ledger import RunLedger
    from repro.obs.profile import SimProfiler

    profiler = SimProfiler()
    with tempfile.TemporaryDirectory() as store:
        for phase in ("cold", "warm"):
            profiler.enter_phase(phase)
            profiler.begin()
            sweep = run_load_sweep(
                _resolve_config(SWEEP_WORKLOAD["config"]),
                SWEEP_WORKLOAD["loads"],
                preset=SWEEP_WORKLOAD["preset"],
                seed=SWEEP_WORKLOAD["seed"],
                ledger=RunLedger(store),  # a fresh object, as each CLI run makes
            )
            profiler.end(sum(point.cycles_simulated for point in sweep.points))
    return profiler.report()


def git_sha() -> str:
    from repro.obs.manifest import git_sha as manifest_git_sha

    return manifest_git_sha()


def _bench_block(report: dict[str, Any]) -> dict[str, Any]:
    return {key: report[key] for key in ("cycles", "wall_seconds",
                                         "cycles_per_second", "phases")}


def _trajectory_entry(report: dict[str, Any], sha: str,
                      model: str | None = None) -> dict[str, Any]:
    entry = {
        "git_sha": sha,
        "cycles": report["cycles"],
        "wall_seconds": report["wall_seconds"],
        "cycles_per_second": report["cycles_per_second"],
        "phase_cycles_per_second": {
            name: phase["cycles_per_second"]
            for name, phase in sorted(report["phases"].items())
        },
    }
    if model is not None:
        entry["model"] = model
    return entry


def record(args: argparse.Namespace) -> int:
    sha = git_sha()
    ledger = _make_ledger(args)
    report = run_benchmark()
    _record_bench(ledger, "FR6", report)
    baseline = {
        "schema": BASELINE_SCHEMA,
        "workload": report["workload"],
        "packets_measured": report["packets_measured"],
        "git_sha": sha,
        "bench": _bench_block(report),
    }
    args.baseline.parent.mkdir(parents=True, exist_ok=True)
    with open(args.baseline, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    entries = [_trajectory_entry(report, sha)]
    print(f"bench-gate: recorded {report['cycles_per_second']:,.1f} cycles/sec "
          f"({report['cycles']} cycles, {report['wall_seconds']:.2f}s)")

    models: dict[str, Any] = {}
    for model in sorted(MODEL_WORKLOADS):
        model_report = run_benchmark(MODEL_WORKLOADS[model])
        _record_bench(ledger, model, model_report)
        models[model] = {
            "workload": model_report["workload"],
            "packets_measured": model_report["packets_measured"],
            "bench": _bench_block(model_report),
        }
        entries.append(_trajectory_entry(model_report, sha, model=model))
        print(f"  {model:>10}: {model_report['cycles_per_second']:>10,.1f} cycles/sec "
              f"({model_report['cycles']} cycles, "
              f"{model_report['wall_seconds']:.2f}s)")
    models_baseline = {"schema": MODELS_SCHEMA, "git_sha": sha, "models": models}
    with open(args.models_baseline, "w", encoding="utf-8") as handle:
        json.dump(models_baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")

    observed = run_observed()
    entries.append({"git_sha": sha, "observed": "attribution", **observed})
    print(f"  {'observed':>10}: {observed['attributed_wall_seconds']:>10.3f} s attributed / "
          f"{observed['plain_wall_seconds']:.3f} s plain = {observed['ratio']:.3f}")

    for phase, timing in run_sweeps()["phases"].items():
        entries.append({"git_sha": sha, "sweep": phase, **timing})
        print(f"  {'sweep ' + phase:>10}: {timing['wall_seconds']:>10.3f} s "
              f"({timing['cycles']} cycles replayed or simulated)")

    with open(args.trajectory, "a", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True))
            handle.write("\n")
    print(f"  baseline:   {_display(args.baseline)}")
    print(f"  models:     {_display(args.models_baseline)}")
    print(f"  trajectory: {_display(args.trajectory)} "
          f"({sum(1 for _ in open(args.trajectory))} points)")
    if ledger is not None:
        print(f"  ledger:     {_display(Path(args.ledger))} "
              f"({ledger.recorded} bench records)")
    return 0


def _display(path: Path) -> str:
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def _gate_one(label: str, baseline_bench: dict[str, Any],
              baseline_workload: dict[str, Any], report: dict[str, Any],
              min_ratio: float) -> int:
    if report["workload"] != baseline_workload:
        print(f"bench-gate: {label} baseline was recorded for a different "
              f"workload ({baseline_workload}); re-record it")
        return 1
    # The workload is deterministic, so a cycle-count drift means the
    # simulation itself changed out from under the recorded baseline.
    if report["cycles"] != baseline_bench["cycles"]:
        print(f"bench-gate: {label} workload simulated {report['cycles']} cycles "
              f"but the baseline recorded {baseline_bench['cycles']}; the "
              "benchmark workload changed -- re-record the baseline")
        return 1
    old = baseline_bench["cycles_per_second"]
    new = report["cycles_per_second"]
    ratio = new / old if old else 0.0
    print(f"bench-gate: {label} baseline {old:,.1f} cycles/sec -> fresh "
          f"{new:,.1f} (ratio {ratio:.2f}, gate {min_ratio:.2f})")
    for name in sorted(report["phases"]):
        fresh_phase = report["phases"][name]["cycles_per_second"]
        base_phase = baseline_bench["phases"].get(name, {}).get(
            "cycles_per_second", 0.0
        )
        phase_ratio = fresh_phase / base_phase if base_phase else float("nan")
        print(f"  {name:>8}: {base_phase:>12,.1f} -> {fresh_phase:>12,.1f} "
              f"(ratio {phase_ratio:.2f})")
    if ratio < min_ratio:
        print(f"bench-gate: FAIL -- {label} is {1 - ratio:.0%} slower than the "
              "recorded baseline (beyond the allowed regression). If the slowdown "
              "is intentional, re-record with `python tools/bench_gate.py record`.")
        return 1
    return 0


def check(args: argparse.Namespace) -> int:
    if not args.baseline.exists():
        print(f"bench-gate: no baseline at {args.baseline}; run `record` first")
        return 1
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    if baseline.get("schema") != BASELINE_SCHEMA:
        print(f"bench-gate: unexpected baseline schema {baseline.get('schema')!r}")
        return 1
    report = run_benchmark()
    failed = _gate_one("FR6", baseline["bench"], baseline["workload"], report,
                       args.min_ratio)
    if args.models:
        if not args.models_baseline.exists():
            print(f"bench-gate: no models baseline at {args.models_baseline}; "
                  "run `record` first")
            return 1
        with open(args.models_baseline, encoding="utf-8") as handle:
            models_baseline = json.load(handle)
        if models_baseline.get("schema") != MODELS_SCHEMA:
            print("bench-gate: unexpected models baseline schema "
                  f"{models_baseline.get('schema')!r}")
            return 1
        for model in sorted(MODEL_WORKLOADS):
            recorded = models_baseline["models"].get(model)
            if recorded is None:
                print(f"bench-gate: models baseline has no entry for {model}; "
                      "re-record it")
                failed = 1
                continue
            model_report = run_benchmark(MODEL_WORKLOADS[model])
            failed |= _gate_one(model, recorded["bench"], recorded["workload"],
                                model_report, args.min_ratio)
    if failed:
        return 1
    print("bench-gate: OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_gate", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--baseline", type=Path, default=BASELINE)
    parser.add_argument("--models-baseline", type=Path, default=MODELS_BASELINE)
    parser.add_argument("--trajectory", type=Path, default=TRAJECTORY)
    parser.add_argument(
        "--ledger",
        type=Path,
        default=REPO_ROOT / ".frfc" / "runs",
        help="run-ledger store for `kind: bench` records (default .frfc/runs)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip recording benchmark runs into the run ledger",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("record", help="run the workloads and (re)write the baselines")
    gate = sub.add_parser("check", help="run the workload and gate on the baseline")
    gate.add_argument(
        "--min-ratio",
        type=float,
        default=0.7,
        help="fail when fresh/baseline cycles/sec falls below this "
        "(default 0.7 = a >30%% regression fails)",
    )
    gate.add_argument(
        "--models",
        action="store_true",
        help="also gate the per-model quick points (VC8, WH8, FR6 on 16x16) "
        "against BENCH_models.json",
    )
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args)
    return check(args)


if __name__ == "__main__":
    sys.exit(main())
