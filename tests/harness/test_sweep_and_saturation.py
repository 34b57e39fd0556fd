"""Tests for load sweeps and saturation search.

``fixtures/probe.golden.json`` holds ``measure_throughput`` for FR6, VC8 and
WH8 **as the hand-written probe driver measured them** (the commit before
``measure_throughput`` became a call to ``run_experiment``), so the fold is
proven against the old driver rather than against itself.  Regenerate with
``FRFC_REGEN_GOLDEN=1 pytest tests/harness/test_sweep_and_saturation.py -k
regenerate`` only after an *intentional* change to what a probe measures.
"""

import json
import os
from pathlib import Path

import pytest

from repro.baselines.vc.config import VC8, VCConfig
from repro.baselines.wormhole.network import WormholeConfig
from repro.core.config import FR6, FRConfig
from repro.harness.presets import MeasurementPreset
from repro.harness.saturation import find_saturation, measure_throughput
from repro.harness.sweep import run_load_sweep
from repro.topology.mesh import Mesh2D

PROBE_GOLDEN = Path(__file__).parent / "fixtures" / "probe.golden.json"
PROBE_CONFIGS = {"FR6": FR6, "VC8": VC8, "WH8": WormholeConfig(buffers_per_input=8)}
PROBE_LOADS = (0.3, 0.95)  # one every model delivers, one past every model's saturation
PROBE_PRESET = MeasurementPreset(
    name="probe-golden",
    min_warmup=80,
    warmup_window=40,
    max_warmup=200,
    sample_cycles=150,
    drain_cycles=1500,
    throughput_cycles=200,
)


def _probe_golden() -> dict[str, float]:
    return {
        f"{name} load={load} seed={seed}": measure_throughput(
            config, load, seed=seed, preset=PROBE_PRESET, mesh=Mesh2D(4, 4)
        )
        for name, config in PROBE_CONFIGS.items()
        for load in PROBE_LOADS
        for seed in (1, 2)
    }


@pytest.fixture
def mesh4():
    return Mesh2D(4, 4)


class TestSweep:
    def test_latency_monotone_with_load(self, mesh4):
        sweep = run_load_sweep(
            VCConfig(), [0.1, 0.4], seed=3, preset="quick", mesh=mesh4
        )
        latencies = sweep.latencies()
        assert latencies[0] < latencies[1]

    def test_rows_and_format(self, mesh4):
        sweep = run_load_sweep(VCConfig(), [0.2], seed=3, preset="quick", mesh=mesh4)
        rows = sweep.rows()
        assert len(rows) == 1
        offered, accepted, latency = rows[0]
        assert offered == 0.2
        text = sweep.format_table()
        assert "VC8" in text
        assert "0.20" in text

    def test_latency_at_picks_closest(self, mesh4):
        sweep = run_load_sweep(
            VCConfig(), [0.1, 0.4], seed=3, preset="quick", mesh=mesh4
        )
        assert sweep.latency_at(0.45) == sweep.points[1].mean_latency

    def test_stop_when_saturated(self, mesh4):
        config = VCConfig(num_vcs=1, buffers_per_vc=2)
        sweep = run_load_sweep(
            config,
            [0.2, 0.9, 0.95, 0.99],
            seed=3,
            preset="quick",
            mesh=mesh4,
            stop_when_saturated=True,
        )
        # The sweep should have stopped at the first saturated point.
        assert len(sweep.points) < 4
        assert sweep.points[-1].saturated


def test_regenerate_probe_golden():
    if not os.environ.get("FRFC_REGEN_GOLDEN"):
        pytest.skip("set FRFC_REGEN_GOLDEN=1 to rewrite probe.golden.json")
    PROBE_GOLDEN.write_text(json.dumps(_probe_golden(), indent=2) + "\n", encoding="utf-8")


class TestSaturation:
    def test_probe_reproduces_the_parent_driver_exactly(self):
        golden = json.loads(PROBE_GOLDEN.read_text(encoding="utf-8"))
        assert _probe_golden() == golden  # float for float, no tolerance
        stable = [golden[f"{name} load=0.3 seed=1"] for name in PROBE_CONFIGS]
        assert all(accepted == pytest.approx(0.3, abs=0.03) for accepted in stable)
        past = [golden[f"{name} load=0.95 seed=1"] for name in PROBE_CONFIGS]
        assert all(accepted < 0.9 for accepted in past)

    def test_measure_throughput_tracks_offered_below_saturation(self, mesh4):
        accepted = measure_throughput(
            FRConfig(), 0.3, seed=3, preset="quick", mesh=mesh4
        )
        assert accepted == pytest.approx(0.3, abs=0.05)

    def test_find_saturation_brackets_the_knee(self, mesh4):
        result = find_saturation(
            VCConfig(num_vcs=1, buffers_per_vc=4),
            seed=3,
            preset="quick",
            mesh=mesh4,
            low=0.2,
            resolution=0.05,
        )
        assert 0.2 <= result.knee < 1.0
        assert result.plateau >= result.knee - 0.05
        assert len(result.probes) >= 3

    def test_unstable_lower_bound_rejected(self, mesh4):
        with pytest.raises(ValueError, match="stable lower bound"):
            find_saturation(
                VCConfig(num_vcs=1, buffers_per_vc=2),
                seed=3,
                preset="quick",
                mesh=mesh4,
                low=0.99,
            )
