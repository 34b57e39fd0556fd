"""Checks of the benchmark itself.  Not part of tier-1:

    python -m pytest bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(1, str(ROOT / "src"))

from bench import trace, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *args],
        capture_output=True, text=True, check=False, timeout=120,
    )


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace_flag, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace_flag, kind):
    began = time.perf_counter()
    done = _run("--smoke", "--trace", trace_flag)
    assert time.perf_counter() - began < 30
    assert done.returncode == 0, done.stderr
    for workload in workloads.WORKLOADS:
        for metric in SPEC[kind]:
            prefix = f"  {workload}.{metric['name']} = "
            lines = [line for line in done.stdout.splitlines() if line.startswith(prefix)]
            assert len(lines) == 1, prefix
            assert lines[0].endswith(" " + metric["unit"]), lines[0]
    records = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    assert len(records) == len(workloads.WORKLOADS)
    for record in records:
        assert set(record) == {"correct", "attempted", "failed", "metrics"}
        assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
        assert list(record["metrics"]) == [metric["name"] for metric in SPEC[kind]]


def test_every_span_resolves_against_the_source():
    for span in trace.SPANS:
        _, raw = trace.resolve(span)
        assert callable(raw) or isinstance(raw, staticmethod), span.name


def test_a_renamed_method_fails_loudly():
    gone = trace.Span("core.router.gone", "repro.core.router", "FRRouter", "no_such_phase")
    with pytest.raises(LookupError, match="no_such_phase"):
        trace.resolve(gone)


def _originals() -> list:
    return [trace.resolve(span) for span in trace.SPANS]


def test_tracing_counts_calls_and_restores_the_classes():
    from repro import FR6, Simulator
    from repro.core.router import FRRouter
    from repro.harness import experiment

    before = _originals()
    control_phase = vars(FRRouter)["control_phase"]
    with trace.tracing() as tracer:
        assert vars(FRRouter)["control_phase"] is not control_phase
        Simulator(experiment.build_network(FR6, 0.5)).step(20)
    assert vars(FRRouter)["control_phase"] is control_phase
    assert _originals() == before
    spans = tracer.report()
    assert spans["sim.kernel.step"]["calls"] == 1
    assert spans["core.network.step"]["calls"] == 20
    assert spans["harness.experiment.build_network"]["calls"] == 1
    assert spans["traffic.source.maybe_create"]["calls"] == 20 * 64
    assert 0 < spans["traffic.source.maybe_create"]["misses"] < 20 * 64
    assert all(stats["self_s"] >= 0 for stats in spans.values())


def test_tracing_restores_the_classes_when_the_run_raises():
    before = _originals()
    with pytest.raises(RuntimeError, match="boom"):
        with trace.tracing():
            raise RuntimeError("boom")
    assert _originals() == before


def test_a_wrong_result_fails_the_workload(monkeypatch):
    """Results that differ from the reference count as failed points."""
    import importlib.util

    # run.py is a script: importing it turns bytecode writing off and edits sys.path.
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    good = {"points": [{"cycles": 10, "accepted_load": 0.5}]}
    bad = {"points": [{"cycles": 11, "accepted_load": 0.5}]}
    assert run._check("fr_mid", 7, "full", [good, good])[:2] == (2, 0)
    assert run._check("fr_mid", 7, "full", [good, bad, {"error": "raised"}])[:2] == (3, 2)
    assert run._check("fr_mid", 1, "full", [good])[:2] == (1, 1)  # seed 1 has an expectation
