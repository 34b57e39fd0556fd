#!/usr/bin/env python3
"""Compare two run sets written by ``bench/run.py --out``.

    python bench/compare.py A.jsonl B.jsonl        (A is the base: parent, or first set)

Per workload and end-to-end metric: both medians with their quartiles, the
ratio B/A with its base, the bound from BENCHMARK.json and a verdict:

  worse       B's median is worse than A's by more than the bound
  unresolved  a set's interquartile spread is wider than the bound (and B's
              runs are not all better than all of A's)
  better      B wins at least 9 of 10 pairs and the medians are further
              apart than A's interquartile spread
  same        none of the above

Simulated metrics and the traced ``.calls`` / ``_share`` counters repeat
exactly for a seed, so they are diffed exactly, seed by seed.  Traced times
are indicative and get a ratio but no verdict.  Exit code 1 when anything is
worse, unresolved or differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
#: End-to-end metrics that are functions of (workload, seed) alone.
EXACT = ("passed_share", "sim_accepted_load", "sim_latency_cycles", "paper_agreement_pct")

#: Per trace mode and workload, the (seed, {metric: value}) of every run, in file order.
Runs = list[tuple[int, dict[str, float]]]
RunSet = dict[int, dict[str, Runs]]


def load(path: str) -> RunSet:
    runs: RunSet = {0: defaultdict(list), 1: defaultdict(list)}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        values = {name: metric["value"] for name, metric in record["metrics"].items()}
        runs[record["trace"]][record["workload"]].append((record["seed"], values))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    worse = 1.0 if better == "lower" else -1.0  # sign of a change for the worse
    q1a, med_a, q3a = quartiles(a)
    q1b, med_b, q3b = quartiles(b)
    spread = max((q3a - q1a) / med_a, (q3b - q1b) / med_b)
    if spread > bound:
        all_better = all(worse * (y - x) < 0 for x in a for y in b)
        return "better" if all_better else "unresolved"
    change = worse * (med_b - med_a)
    if change > bound * med_a:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if worse * (y - x) < 0)  # a tie counts for neither side
    if -change > q3a - q1a and wins >= 0.9 * len(pairs):
        return "better"
    return "same"


def diff_exact(a: Runs, b: Runs, metrics: list[str]) -> tuple[int, list[str]]:
    """Seeds both sets ran, and one line per (metric, seed) whose value differs."""
    by_seed_a, by_seed_b = dict(a), dict(b)
    shared = sorted(set(by_seed_a) & set(by_seed_b))
    lines = [
        f"    DIFFERS {metric} seed {seed}: "
        f"{by_seed_a[seed][metric]!r} -> {by_seed_b[seed][metric]!r}"
        for seed in shared
        for metric in metrics
        if by_seed_a[seed][metric] != by_seed_b[seed][metric]
    ]
    return len(shared), lines


def compare(a: RunSet, b: RunSet) -> int:
    problems = 0
    timed = [m for m in SPEC["end_to_end"] if m["name"] not in EXACT]
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs_a, runs_b = a[0].get(workload, []), b[0].get(workload, [])
        if runs_a and runs_b:
            print(f"{workload}: end to end, {len(runs_a)} runs of A, {len(runs_b)} of B")
            for metric in timed:
                name = metric["name"]
                va = [values[name] for _, values in runs_a]
                vb = [values[name] for _, values in runs_b]
                q1a, med_a, q3a = quartiles(va)
                q1b, med_b, q3b = quartiles(vb)
                outcome = verdict(va, vb, metric["better"], metric["bound"])
                problems += outcome in ("worse", "unresolved")
                print(
                    f"  {name:<24} A {med_a:.5g} [{q1a:.5g}, {q3a:.5g}]  "
                    f"B {med_b:.5g} [{q1b:.5g}, {q3b:.5g}]  "
                    f"B/A {med_b / med_a:.3f} (base {med_a:.5g} {metric['unit']})  "
                    f"bound {metric['bound']}  {outcome}"
                )
            shared, differing = diff_exact(runs_a, runs_b, list(EXACT))
            print("\n".join(differing) if differing else
                  f"  {', '.join(EXACT)}: identical on {shared} shared seeds")
            problems += len(differing)
        traced_a, traced_b = a[1].get(workload, []), b[1].get(workload, [])
        if traced_a and traced_b:
            names = [m["name"] for m in SPEC["per_layer"]]
            counters = [n for n in names if n.endswith((".calls", "_share"))]
            shared, differing = diff_exact(traced_a, traced_b, counters)
            print(f"{workload}: per layer, {shared} shared seeds")
            print("\n".join(differing) if differing else
                  f"  {len(counters)} counters and shares: identical")
            problems += len(differing)
            for name in names:
                if name in counters:
                    continue
                med_a = statistics.median(values[name] for _, values in traced_a)
                med_b = statistics.median(values[name] for _, values in traced_b)
                # Only the times that matter: at least 10 ms, or any ratio.
                if max(med_a, med_b) >= 0.01 and med_a > 0:
                    print(f"  {name:<48} A {med_a:.4g}  B {med_b:.4g}  "
                          f"B/A {med_b / med_a:.3f} (base {med_a:.4g})")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(load(argv[1]), load(argv[2]))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
