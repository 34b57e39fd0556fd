"""Parallel cold sweeps: pre-warming the ledger from a process pool.

The contract: a ledgered sweep run with ``jobs=2`` is indistinguishable from
``jobs=1`` in everything it returns, prints and counts -- only the wall clock
and which process stepped the cycles differ.  A failing or dying worker is an
exception in the caller, never a hang, and whatever finished stays resumable.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.baselines.vc.config import VC8
from repro.baselines.wormhole.network import WormholeConfig
from repro.core.config import FR6
from repro.harness import figures, parallel, tables
from repro.harness.parallel import Call, prewarming
from repro.harness.presets import MeasurementPreset
from repro.harness.sweep import _worker_point, run_load_sweep, sweep_calls
from repro.obs.ledger import RunLedger, canonical_json
from repro.topology.mesh import Mesh2D

TINY = MeasurementPreset(
    name="parallel-test",
    min_warmup=80,
    warmup_window=40,
    max_warmup=200,
    sample_cycles=150,
    drain_cycles=1500,
    throughput_cycles=200,
)
#: Too short a drain for a loaded 4x4 mesh: high loads report ``saturated``.
IMPATIENT = dataclasses.replace(TINY, name="parallel-impatient", drain_cycles=5)

CONFIGS = {"FR": FR6, "VC": VC8, "WH": WormholeConfig(buffers_per_input=8)}
MESH = Mesh2D(4, 4)


def _sweep(config, loads, ledger, **kwargs):
    kwargs.setdefault("preset", TINY)
    return run_load_sweep(config, loads, mesh=MESH, ledger=ledger, **kwargs)


def _points(curve) -> list[str]:
    return [canonical_json(dataclasses.asdict(point)) for point in curve.points]


def _flags(curve) -> list[tuple[float, bool, int, bool]]:
    return [
        (t.offered_load, t.cache_hit, t.events_dropped, t.profile is not None)
        for t in curve.telemetry
    ]


def _counters(ledger: RunLedger):
    return (ledger.hits, ledger.misses, ledger.recorded, ledger.corrupt,
            ledger.last_hit, ledger.summary())


def _hashes(ledger: RunLedger) -> set[str]:
    return {path.stem for path in ledger.root.glob("*.json")}


def _no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("this path must not start a process pool")

    monkeypatch.setattr(parallel, "_fan_out", refuse)


@pytest.mark.parametrize("model", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parallel_sweep_equals_serial(model, seed, tmp_path):
    loads = [0.3, 0.15, 0.3]  # unsorted, one repeat: deduped before fanning out
    serial_ledger = RunLedger(tmp_path / "serial")
    pooled_ledger = RunLedger(tmp_path / "pooled")
    serial = _sweep(CONFIGS[model], loads, serial_ledger, seed=seed, jobs=1)
    pooled = _sweep(CONFIGS[model], loads, pooled_ledger, seed=seed, jobs=2)
    assert _points(pooled) == _points(serial)
    assert _flags(pooled) == _flags(serial)
    assert [t.cache_hit for t in pooled.telemetry] == [False, False, True]
    assert _counters(pooled_ledger) == _counters(serial_ledger)
    assert _hashes(pooled_ledger) == _hashes(serial_ledger)
    assert pooled.format_table() == serial.format_table()
    assert pooled.format_health().splitlines()[0] == serial.format_health().splitlines()[0]
    # The health table shows the worker's phase timings, not an idle session's.
    assert all(t.profile["cycles"] > 0 for t in pooled.telemetry)
    # A fresh process would now replay everything, whichever run filled the store.
    warm = RunLedger(tmp_path / "pooled")
    assert _points(_sweep(CONFIGS[model], loads, warm, seed=seed)) == _points(serial)
    assert (warm.hits, warm.recorded) == (3, 0)


def test_attribution_and_progress_stream_match_serial(tmp_path):
    import io

    from repro.obs.progress import ProgressReporter

    runs = {}
    for jobs in (1, 2):
        stream = io.StringIO()
        curve = _sweep(
            FR6, [0.15, 0.3], RunLedger(tmp_path / f"jobs{jobs}"), jobs=jobs,
            attribute=True, progress=ProgressReporter(stream=stream),
        )
        ends = [line.split(" (")[0] for line in stream.getvalue().splitlines()
                if " simulated " in line or " cached " in line]
        runs[jobs] = (_points(curve), curve.attribution, ends)
    assert runs[2] == runs[1]
    assert len(runs[2][1]) == 2 and len(runs[2][2]) == 2  # both "simulated"


def test_spawn_workers_give_the_same_records(tmp_path):
    loads = [0.15, 0.3]
    forked, spawned = RunLedger(tmp_path / "fork"), RunLedger(tmp_path / "spawn")
    reference = _sweep(FR6, loads, forked, jobs=2)
    calls = sweep_calls(FR6, loads, preset=TINY, mesh=MESH)
    with prewarming(spawned, calls, jobs=2, start_method="spawn"):
        curve = _sweep(FR6, loads, spawned, jobs=1)
    assert _points(curve) == _points(reference)
    assert _counters(spawned) == _counters(forked)
    assert _hashes(spawned) == _hashes(forked)


def test_stop_when_saturated_returns_the_serial_points(tmp_path):
    loads = [0.2, 0.7, 0.8, 0.9, 0.95]
    serial_ledger, pooled_ledger = RunLedger(tmp_path / "s"), RunLedger(tmp_path / "p")
    serial = _sweep(FR6, loads, serial_ledger, preset=IMPATIENT, jobs=1)
    pooled = _sweep(FR6, loads, pooled_ledger, preset=IMPATIENT, jobs=2)
    assert serial.points[-1].saturated and len(serial.points) < len(loads)
    assert _points(pooled) == _points(serial)
    assert _counters(pooled_ledger) == _counters(serial_ledger)
    # Speculation past the saturated point is bounded by jobs - 1 = 1 point.
    assert _hashes(serial_ledger) <= _hashes(pooled_ledger)
    assert len(_hashes(pooled_ledger)) <= len(_hashes(serial_ledger)) + 1


def test_serial_paths_never_start_a_pool(tmp_path, monkeypatch):
    _no_pool(monkeypatch)
    loads = [0.15, 0.3]
    bare = _sweep(FR6, loads, None)
    assert _points(_sweep(FR6, loads, None, jobs=2)) == _points(bare)  # no ledger
    pinned = RunLedger(tmp_path / "pinned")
    assert _points(_sweep(FR6, loads, pinned, jobs=1)) == _points(bare)
    assert _counters(pinned)[:3] == (0, 2, 2)
    heat = _sweep(FR6, loads, RunLedger(tmp_path / "heat"), jobs=2,
                  heatmap_out=str(tmp_path / "heat.json"))
    assert _points(heat) == _points(bare) and (tmp_path / "heat.json").exists()
    # A warm sweep has no cold point: default jobs, no pool, pure replay.
    warm = RunLedger(tmp_path / "pinned")
    assert _points(_sweep(FR6, loads, warm)) == _points(bare)
    assert (warm.hits, warm.misses) == (2, 0)


def _fail_at(config, load, fail_load=None, how="raise", **kwargs):
    """A worker body that simulates every point but ``fail_load``."""
    if load != fail_load:
        return _worker_point(config, load, **kwargs)
    if how == "raise":
        raise ValueError(f"no result at load {load}")
    # Die only after a sibling's record is on disk: a dead worker takes the
    # pool (and any point still running in it) down with it.
    store = kwargs["ledger"].root
    while not list(store.glob("*.json")):
        time.sleep(0.01)
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize(
    "how, error", [("raise", ValueError), ("die", BrokenProcessPool)]
)
def test_failed_worker_raises_and_finished_points_resume(tmp_path, how, error):
    loads = [0.15, 0.3]
    reference = _sweep(FR6, loads, None)
    store = tmp_path / "runs"
    calls = [
        Call(_fail_at, FR6, (load,), dict(call.kwargs, fail_load=0.3, how=how))
        for load, call in zip(loads, sweep_calls(FR6, loads, preset=TINY, mesh=MESH))
    ]
    broken = RunLedger(store)
    with pytest.raises(error):
        with prewarming(broken, calls, jobs=2):
            _sweep(FR6, loads, broken, jobs=1)
    assert broken.on_miss is None  # disarmed on the way out
    resumed_ledger = RunLedger(store)
    resumed = _sweep(FR6, loads, resumed_ledger, jobs=1)
    assert (resumed_ledger.hits, resumed_ledger.recorded) == (1, 1)
    assert _points(resumed) == _points(reference)


def _seat_report(ledger, call, cpu):
    """Stands in for ``parallel._work``: naps ``call.args[0]`` seconds and
    logs the seat it was given and when it held it (one clock for all)."""
    begin = time.monotonic()
    time.sleep(call.args[0])
    log = ledger.root / f"{os.getpid()}-{begin}.seat"
    log.write_text(json.dumps([cpu, begin, time.monotonic()]))
    return [], False


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_calls_in_flight_hold_distinct_cpus(tmp_path, monkeypatch):
    # Unseated, forked workers may share the parent's CPU beside an idle one
    # for as long as the kernel likes: a sweep's wall time became a lottery.
    monkeypatch.setattr(parallel, "_work", _seat_report)
    calls = [Call(_worker_point, FR6, (nap,)) for nap in (0.05, 0.3, 0.1, 0.05, 0.05)]
    parallel._fan_out(RunLedger(tmp_path), calls, 2, None)
    held = [json.loads(log.read_text()) for log in tmp_path.glob("*.seat")]
    cpus = sorted(os.sched_getaffinity(0))
    assert len(held) == 5
    assert {cpu for cpu, _, _ in held} == set((cpus * 2)[:2])  # freed seats are reused
    if len(cpus) > 1:
        for cpu, begin, end in held:
            beside = [c for c, b, e in held if b < end and begin < e and (b, e) != (begin, end)]
            assert cpu not in beside


def test_worker_takes_its_seat_and_its_mask_back(tmp_path, monkeypatch):
    moves = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(
        os, "sched_setaffinity", lambda pid, mask: moves.append(set(mask)), raising=False
    )
    ledger = RunLedger(tmp_path)
    call = Call(lambda config, ledger: None, FR6)
    assert parallel._work(ledger, call, 2) == ([], False)
    assert moves == [{2}, {0, 1, 2}]  # placed, not pinned
    assert parallel._work(ledger, call) == ([], False)
    assert len(moves) == 2  # no seat (no affinity on the platform): nothing to do

    def refuse(pid, mask):
        raise PermissionError("sched_setaffinity")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    assert parallel._work(ledger, call, 2) == ([], False)  # the call still runs


def test_figure_prewarms_every_curve_in_one_pool(tmp_path, monkeypatch):
    pools = []
    real = parallel._fan_out
    monkeypatch.setattr(
        parallel, "_fan_out",
        lambda ledger, calls, jobs, method: (pools.append(len(calls)),
                                             real(ledger, calls, jobs, method)),
    )
    monkeypatch.setattr(
        figures, "run_load_sweep",
        lambda config, loads, **kwargs: run_load_sweep(config, loads, mesh=MESH, **kwargs),
    )
    monkeypatch.setattr(
        figures, "sweep_calls",
        lambda config, loads, **kwargs: sweep_calls(config, loads, mesh=MESH, **kwargs),
    )
    bare = figures.figure9(preset=TINY, loads=[0.15, 0.3])
    ledger = RunLedger(tmp_path / "runs")
    pooled = figures.figure9(preset=TINY, loads=[0.15, 0.3], ledger=ledger, jobs=2)
    assert pooled.format() == bare.format()
    assert pools == [6]  # three curves, two loads, one pool
    assert _counters(ledger)[:3] == (0, 6, 6)
    warm = RunLedger(tmp_path / "runs")
    assert figures.figure9(preset=TINY, loads=[0.15, 0.3], ledger=warm).format() == bare.format()
    assert pools == [6] and (warm.hits, warm.recorded) == (6, 0)


def test_table3_rows_prewarm_and_replay(tmp_path, monkeypatch):
    quick = dataclasses.replace(TINY, max_warmup=100, throughput_cycles=100)
    monkeypatch.setattr(tables, "fast_control_configs", lambda: [FR6, VC8])
    kwargs = dict(preset=quick, packet_lengths=(5,), include_leading=False)
    bare = tables.table3(**kwargs)
    ledger = RunLedger(tmp_path / "runs")
    pooled = tables.table3(ledger=ledger, jobs=2, **kwargs)
    assert pooled.format() == bare.format()
    assert ledger.hits == 0 and ledger.recorded == ledger.misses > 4
    assert not ledger.prewarmed  # every record a worker wrote was replayed
    warm = RunLedger(tmp_path / "runs")
    assert tables.table3(ledger=warm, **kwargs).format() == bare.format()
    assert (warm.hits, warm.recorded) == (ledger.recorded, 0)


def test_cli_jobs_flag(monkeypatch, capsys):
    from repro.harness import runner

    seen = {}

    def fake_sweep(config, loads, **kwargs):
        seen.update(kwargs)
        return run_load_sweep(config, loads, mesh=MESH, preset=TINY)

    monkeypatch.setattr(runner, "run_load_sweep", fake_sweep)
    monkeypatch.setattr(runner, "_ledger", lambda args: None)
    assert runner.main(["sweep", "FR6", "--loads", "0.2", "--ledger", "x", "--jobs", "2"]) == 0
    assert seen["jobs"] == 2
    monkeypatch.undo()
    with pytest.raises(SystemExit, match="--jobs needs --ledger"):
        runner.main(["sweep", "FR6", "--jobs", "2"])
    with pytest.raises(SystemExit):  # argparse: point takes no --jobs
        runner.main(["point", "FR6", "0.2", "--ledger", "x", "--jobs", "2"])
    capsys.readouterr()
