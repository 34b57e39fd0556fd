"""The seven workloads: what one rep runs and what a result is.

All use uniform traffic, 5-flit packets and periodic injection.  Harness
entry points are called through their modules (``experiment.run_experiment``)
so that a traced run, which rebinds those module attributes, sees the calls.
Everything a rep writes goes under ``Context.tmp``.
"""

from __future__ import annotations

import io
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro import FR6, VC8, Mesh2D, WormholeConfig
from repro.harness import experiment, saturation, sweep
from repro.harness.presets import MeasurementPreset, get_preset
from repro.obs.ledger import RunLedger
from repro.obs.progress import ProgressReporter
from repro.obs.session import ObsSession

WH8 = WormholeConfig(buffers_per_input=8)
MESH8 = Mesh2D(8, 8)  # the harness default; reps rely on it, set-up names it
MESH16 = Mesh2D(16, 16)

#: One result: the fields that must repeat exactly for a given seed.
Point = dict[str, Any]


@dataclass(frozen=True)
class Presets:
    """Measurement lengths of one benchmark size."""

    point: MeasurementPreset  # the single-point workloads
    probe: MeasurementPreset  # fr_sat: min_warmup == max_warmup, so a fixed cycle count
    sweep: MeasurementPreset  # the ledger workloads: short points, so harness + ledger cost shows


_SMOKE = MeasurementPreset("bench-smoke", 40, 20, 40, 60, 2_000, 60)
PRESETS = {
    "full": Presets(
        point=get_preset("quick"),
        probe=MeasurementPreset("bench-probe", 400, 200, 400, 600, 8_000, 600),
        sweep=MeasurementPreset("bench-sweep", 300, 150, 300, 300, 2_000, 300),
    ),
    # bench/tests: every code path of the benchmark in seconds.
    "smoke": Presets(point=_SMOKE, probe=_SMOKE, sweep=_SMOKE),
}


@dataclass
class Context:
    """What a rep may depend on besides the workload itself."""

    seed: int
    presets: Presets
    tmp: Path  # scratch directory inside the checkout
    store: Path  # sweep_warm's ledger, filled during set-up


def _point(result: experiment.ExperimentResult, **extra: Any) -> Point:
    return {
        "label": f"{result.config_name}@{result.offered_load:.2f}",
        "cycles": result.cycles_simulated,
        "packets_measured": result.packets_measured,
        "mean_latency": result.mean_latency,
        "p95_latency": result.p95_latency,
        "accepted_load": result.accepted_load,
        "saturated": result.saturated,
        **extra,
    }


def fr_mid(ctx: Context) -> list[Point]:
    return [_point(experiment.run_experiment(FR6, 0.50, seed=ctx.seed, preset=ctx.presets.point))]


def fr_sat(ctx: Context) -> list[Point]:
    probe = ctx.presets.probe
    accepted = saturation.measure_throughput(FR6, 0.85, seed=ctx.seed, preset=probe)
    # A throughput probe returns the accepted load and nothing else; its
    # length is fixed by the preset.
    return [
        {
            "label": "FR6@0.85 probe",
            "cycles": probe.max_warmup + probe.throughput_cycles,
            "accepted_load": accepted,
        }
    ]


def fr_mesh16_light(ctx: Context) -> list[Point]:
    result = experiment.run_experiment(
        FR6, 0.10, seed=ctx.seed, preset=ctx.presets.point, mesh=MESH16
    )
    return [_point(result)]


def baselines_mid(ctx: Context) -> list[Point]:
    return [
        _point(experiment.run_experiment(VC8, 0.50, seed=ctx.seed, preset=ctx.presets.point)),
        _point(experiment.run_experiment(WH8, 0.30, seed=ctx.seed, preset=ctx.presets.point)),
    ]


def fr_observed(ctx: Context) -> list[Point]:
    with tempfile.TemporaryDirectory(dir=ctx.tmp) as out:
        session = ObsSession(
            metrics_out=f"{out}/metrics.csv",
            spatial_out="",
            attribution_out="",
            profile=True,
            manifest_out="",
            bench_out=f"{out}/BENCH_obs.json",
            progress=ProgressReporter(stream=io.StringIO()),
        )
        result = experiment.run_experiment(
            FR6, 0.50, seed=ctx.seed, preset=ctx.presets.point, obs=session
        )
        session.finalize(config=FR6, seed=ctx.seed, offered_load=0.50, packet_length=5)
    return [_point(result)]


def _sweeps(ctx: Context, ledger: RunLedger) -> list[Point]:
    points: list[Point] = []
    for config, loads in ((FR6, [0.20, 0.50]), (VC8, [0.20, 0.40])):
        curve = sweep.run_load_sweep(
            config, loads, seed=ctx.seed, preset=ctx.presets.sweep, ledger=ledger
        )
        points += [
            _point(result, cache_hit=record.cache_hit)
            for result, record in zip(curve.points, curve.telemetry)
        ]
    return points


def sweep_cold(ctx: Context) -> list[Point]:
    with tempfile.TemporaryDirectory(dir=ctx.tmp) as store:
        return _sweeps(ctx, RunLedger(store))


def sweep_warm(ctx: Context) -> list[Point]:
    # A fresh ledger object per rep, as each CLI invocation would make.
    return _sweeps(ctx, RunLedger(ctx.store))


def fill_store(ctx: Context) -> None:
    """The cold fill sweep_warm's set-up pays."""
    _sweeps(ctx, RunLedger(ctx.store))


@dataclass(frozen=True)
class Workload:
    run: Callable[[Context], list[Point]]
    #: (config, load, mesh) of every network a rep steps or replays; set-up
    #: builds each once, and their count is the rep's point count.
    networks: tuple[tuple[Any, float, Mesh2D], ...]
    #: (point index, result field, the paper's value at that point).
    paper: Optional[tuple[int, str, float]] = None
    fill: Optional[Callable[[Context], None]] = None

    @property
    def nodes(self) -> int:
        """Routers per network (one mesh per workload)."""
        return self.networks[0][2].num_nodes


_SWEEP_NETWORKS = ((FR6, 0.20, MESH8), (FR6, 0.50, MESH8), (VC8, 0.20, MESH8), (VC8, 0.40, MESH8))

WORKLOADS: dict[str, Workload] = {
    "fr_mid": Workload(fr_mid, ((FR6, 0.50, MESH8),), paper=(0, "mean_latency", 33.0)),
    "fr_sat": Workload(fr_sat, ((FR6, 0.85, MESH8),), paper=(0, "accepted_load", 0.77)),
    "fr_mesh16_light": Workload(fr_mesh16_light, ((FR6, 0.10, MESH16),)),
    "baselines_mid": Workload(
        baselines_mid, ((VC8, 0.50, MESH8), (WH8, 0.30, MESH8)), paper=(0, "mean_latency", 39.0)
    ),
    "fr_observed": Workload(fr_observed, ((FR6, 0.50, MESH8),), paper=(0, "mean_latency", 33.0)),
    "sweep_cold": Workload(sweep_cold, _SWEEP_NETWORKS),
    "sweep_warm": Workload(sweep_warm, _SWEEP_NETWORKS, fill=fill_store),
}


def build_networks(workload: Workload, seed: int) -> None:
    """The construction half of set-up: one network per point."""
    for config, load, mesh in workload.networks:
        experiment.build_network(config, load, seed=seed, mesh=mesh)
