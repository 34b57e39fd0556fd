"""The benchmark-trajectory gate: record/check semantics.

The real workloads take seconds, so these tests stub ``run_benchmark``
with synthetic profiler reports and exercise the gate logic: baseline
writing, per-model baseline writing, trajectory appending, ratio math,
and the loud failure modes (regression, schema drift, workload drift).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture()
def gate():
    """Import tools/bench_gate.py by file path (tools/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "bench_gate_cli", REPO / "tools" / "bench_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(cps: float, cycles: int = 1844, workload: dict | None = None) -> dict:
    wall = cycles / cps
    return {
        "schema": "frfc-obs-bench/1",
        "cycles": cycles,
        "wall_seconds": round(wall, 6),
        "cycles_per_second": cps,
        "phases": {
            "warmup": {"cycles": cycles // 2, "wall_seconds": wall / 2,
                       "cycles_per_second": cps},
            "sample": {"cycles": cycles // 2, "wall_seconds": wall / 2,
                       "cycles_per_second": cps},
        },
        "workload": dict(workload) if workload is not None else {
            "config": "FR6", "offered_load": 0.5, "preset": "quick", "seed": 1,
        },
        "packets_measured": 3777,
    }


def _paths(gate, tmp_path, monkeypatch, cps: float):
    monkeypatch.setattr(
        gate, "run_benchmark", lambda workload=None: _report(cps, workload=workload)
    )
    monkeypatch.setattr(
        gate,
        "run_sweeps",
        lambda: {"phases": {
            "cold": {"cycles": 5000, "wall_seconds": 4.0, "cycles_per_second": 1250.0},
            "warm": {"cycles": 5000, "wall_seconds": 0.01, "cycles_per_second": 500000.0},
        }},
    )
    monkeypatch.setattr(
        gate,
        "run_observed",
        lambda: {"cycles": 1844, "plain_wall_seconds": 3.0,
                 "attributed_wall_seconds": 3.6, "ratio": 1.2},
    )
    monkeypatch.setattr(gate, "git_sha", lambda: "f" * 40)
    return [
        "--baseline", str(tmp_path / "BENCH_5.json"),
        "--models-baseline", str(tmp_path / "BENCH_models.json"),
        "--trajectory", str(tmp_path / "BENCH_trajectory.jsonl"),
        "--ledger", str(tmp_path / "runs"),
    ]


def test_record_writes_baseline_and_appends_trajectory(gate, tmp_path, monkeypatch, capsys):
    flags = _paths(gate, tmp_path, monkeypatch, cps=250.0)
    assert gate.main(flags + ["record"]) == 0
    assert gate.main(flags + ["record"]) == 0
    baseline = json.loads((tmp_path / "BENCH_5.json").read_text())
    assert baseline["schema"] == gate.BASELINE_SCHEMA
    assert baseline["bench"]["cycles_per_second"] == 250.0
    assert baseline["git_sha"] == "f" * 40
    lines = (tmp_path / "BENCH_trajectory.jsonl").read_text().splitlines()
    # One primary point, one per model, the observed pair and the cold and
    # warm sweep, per record; appends, never rewrites.
    per_record = 1 + len(gate.MODEL_WORKLOADS) + 1 + 2
    assert len(lines) == 2 * per_record
    entry = json.loads(lines[-per_record])
    assert entry["cycles_per_second"] == 250.0
    assert "phase_cycles_per_second" in entry
    assert "model" not in entry  # the primary point carries no model tag
    tagged = [json.loads(line) for line in lines if "model" in json.loads(line)]
    assert {e["model"] for e in tagged} == set(gate.MODEL_WORKLOADS)
    observed, cold, warm = (json.loads(line) for line in lines[-3:])
    assert observed["observed"] == "attribution"
    assert observed["ratio"] == 1.2
    assert (observed["plain_wall_seconds"], observed["attributed_wall_seconds"]) == (3.0, 3.6)
    assert (cold["sweep"], warm["sweep"]) == ("cold", "warm")
    assert observed["git_sha"] == cold["git_sha"] == warm["git_sha"] == "f" * 40
    assert cold["wall_seconds"] == 4.0 and warm["wall_seconds"] == 0.01


def test_record_drops_bench_records_into_the_ledger(gate, tmp_path, monkeypatch, capsys):
    from repro.obs.ledger import RunLedger

    flags = _paths(gate, tmp_path, monkeypatch, cps=250.0)
    assert gate.main(flags + ["record"]) == 0
    ledger = RunLedger(tmp_path / "runs")
    records, corrupt = ledger.scan()
    assert not corrupt
    assert len(records) == 1 + len(gate.MODEL_WORKLOADS)
    assert {r["kind"] for r in records} == {"bench"}
    labels = {r["identity"]["workload"]["label"] for r in records}
    assert labels == {"FR6"} | set(gate.MODEL_WORKLOADS)
    for record in records:
        # Deterministic outputs in the result block, wall clock in profile.
        assert set(record["result"]) == {"cycles", "packets_measured"}
        assert record["profile"]["cycles_per_second"] == 250.0
        ledger.verify(record, record["identity_hash"], "test")


def test_record_no_ledger_skips_recording(gate, tmp_path, monkeypatch, capsys):
    flags = _paths(gate, tmp_path, monkeypatch, cps=250.0)
    assert gate.main(flags + ["--no-ledger", "record"]) == 0
    assert not (tmp_path / "runs").exists()


def test_record_writes_models_baseline(gate, tmp_path, monkeypatch, capsys):
    flags = _paths(gate, tmp_path, monkeypatch, cps=250.0)
    assert gate.main(flags + ["record"]) == 0
    models = json.loads((tmp_path / "BENCH_models.json").read_text())
    assert models["schema"] == gate.MODELS_SCHEMA
    assert set(models["models"]) == set(gate.MODEL_WORKLOADS)
    for name, entry in models["models"].items():
        assert entry["workload"] == gate.MODEL_WORKLOADS[name]
        assert entry["bench"]["cycles_per_second"] == 250.0


def test_check_passes_within_tolerance(gate, tmp_path, monkeypatch, capsys):
    assert gate.main(_paths(gate, tmp_path, monkeypatch, 250.0) + ["record"]) == 0
    flags = _paths(gate, tmp_path, monkeypatch, 200.0)  # 0.8 ratio
    assert gate.main(flags + ["check"]) == 0
    assert "OK" in capsys.readouterr().out


def test_check_models_gates_every_model(gate, tmp_path, monkeypatch, capsys):
    assert gate.main(_paths(gate, tmp_path, monkeypatch, 250.0) + ["record"]) == 0
    flags = _paths(gate, tmp_path, monkeypatch, 200.0)  # 0.8 ratio everywhere
    assert gate.main(flags + ["check", "--models"]) == 0
    out = capsys.readouterr().out
    for model in gate.MODEL_WORKLOADS:
        assert model in out
    flags = _paths(gate, tmp_path, monkeypatch, 150.0)  # 0.6 ratio everywhere
    assert gate.main(flags + ["check", "--models"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_models_without_models_baseline_fails(gate, tmp_path, monkeypatch, capsys):
    assert gate.main(_paths(gate, tmp_path, monkeypatch, 250.0) + ["record"]) == 0
    (tmp_path / "BENCH_models.json").unlink()
    flags = _paths(gate, tmp_path, monkeypatch, 250.0)
    assert gate.main(flags + ["check", "--models"]) == 1
    assert "no models baseline" in capsys.readouterr().out


def test_check_fails_loudly_past_30_percent_regression(gate, tmp_path, monkeypatch, capsys):
    assert gate.main(_paths(gate, tmp_path, monkeypatch, 250.0) + ["record"]) == 0
    flags = _paths(gate, tmp_path, monkeypatch, 150.0)  # 0.6 ratio
    assert gate.main(flags + ["check"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_custom_ratio(gate, tmp_path, monkeypatch):
    assert gate.main(_paths(gate, tmp_path, monkeypatch, 250.0) + ["record"]) == 0
    flags = _paths(gate, tmp_path, monkeypatch, 100.0)  # 0.4 ratio
    assert gate.main(flags + ["check", "--min-ratio", "0.3"]) == 0
    assert gate.main(flags + ["check", "--min-ratio", "0.5"]) == 1


def test_check_without_baseline_fails(gate, tmp_path, monkeypatch, capsys):
    flags = _paths(gate, tmp_path, monkeypatch, 250.0)
    assert gate.main(flags + ["check"]) == 1
    assert "no baseline" in capsys.readouterr().out


def test_check_rejects_cycle_count_drift(gate, tmp_path, monkeypatch, capsys):
    """Same speed but a different simulated cycle count means the workload
    itself changed; the gate demands a fresh baseline instead of comparing
    incomparable runs."""
    assert gate.main(_paths(gate, tmp_path, monkeypatch, 250.0) + ["record"]) == 0
    flags = _paths(gate, tmp_path, monkeypatch, 250.0)
    monkeypatch.setattr(
        gate, "run_benchmark",
        lambda workload=None: _report(250.0, cycles=9999, workload=workload),
    )
    assert gate.main(flags + ["check"]) == 1
    assert "re-record" in capsys.readouterr().out


def test_committed_baseline_matches_tool_workload(gate):
    """The checked-in BENCH_5.json must describe the workload the tool runs
    (otherwise CI compares apples to oranges)."""
    baseline = json.loads((REPO / "benchmarks" / "results" / "BENCH_5.json").read_text())
    assert baseline["schema"] == gate.BASELINE_SCHEMA
    assert baseline["workload"] == gate.WORKLOAD
    assert baseline["bench"]["cycles_per_second"] > 0
    trajectory = (REPO / "benchmarks" / "results" / "BENCH_trajectory.jsonl").read_text()
    assert trajectory.strip(), "trajectory must carry at least the first point"
    for line in trajectory.splitlines():
        json.loads(line)


def test_committed_models_baseline_matches_tool_workloads(gate):
    """Same apples-to-apples contract for the per-model baselines."""
    models = json.loads(
        (REPO / "benchmarks" / "results" / "BENCH_models.json").read_text()
    )
    assert models["schema"] == gate.MODELS_SCHEMA
    assert set(models["models"]) == set(gate.MODEL_WORKLOADS)
    for name, entry in models["models"].items():
        assert entry["workload"] == gate.MODEL_WORKLOADS[name]
        assert entry["bench"]["cycles_per_second"] > 0
