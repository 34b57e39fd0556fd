"""Unit tests for the metrics registry and its standard instruments."""

from __future__ import annotations

import pytest

from repro.baselines.vc.network import VCNetwork
from repro.core.network import FRNetwork
from repro.obs.metrics import Gauge, MetricsRegistry
from repro.sim.kernel import Simulator


class TestInstruments:
    def test_gauge_tracks_last_and_mean(self) -> None:
        gauge = Gauge("occupancy")
        with pytest.raises(ValueError):
            gauge.mean
        gauge.set(2.0)
        gauge.set(4.0)
        assert gauge.value == 4.0
        assert gauge.mean == 3.0
        assert gauge.samples == 2


class TestMetricsRegistry:
    def test_rejects_bad_cadence(self) -> None:
        with pytest.raises(ValueError):
            MetricsRegistry(sample_every=0)

    def test_get_or_create_returns_same_instrument(self) -> None:
        registry = MetricsRegistry()
        assert registry.gauge("y") is registry.gauge("y")

    def test_duplicate_column_rejected(self) -> None:
        registry = MetricsRegistry()
        registry.add_sampler("col", lambda network, cycle: 0.0)
        with pytest.raises(ValueError, match="duplicate"):
            registry.add_sampler("col", lambda network, cycle: 1.0)

    def test_sampling_cadence_is_cycle_determined(self, mesh4, small_fr_config) -> None:
        network = FRNetwork(
            small_fr_config, mesh=mesh4, injection_rate=0.02, seed=3
        )
        registry = MetricsRegistry(sample_every=50)
        registry.install_standard_instruments(network)
        simulator = Simulator(network, observers=(registry,))
        # Chunked stepping must not change which cycles get sampled.
        simulator.step(70)
        simulator.step(130)
        cycles = [row["cycle"] for row in registry.timeseries]
        assert cycles == [0.0, 50.0, 100.0, 150.0]

    def test_standard_instruments_fr_columns(self, mesh4, small_fr_config) -> None:
        network = FRNetwork(
            small_fr_config, mesh=mesh4, injection_rate=0.05, seed=1
        )
        registry = MetricsRegistry(sample_every=20)
        registry.install_standard_instruments(network)
        Simulator(network, observers=(registry,)).step(200)
        row = registry.timeseries[-1]
        assert set(row) == {
            "cycle",
            "channel_utilization",
            "buffer_occupancy",
            "reservation_occupancy",
            "credit_stalls",
            "injection_backpressure",
        }
        busy = [r for r in registry.timeseries if r["channel_utilization"] > 0]
        assert busy, "a loaded network should show nonzero channel utilization"
        assert all(0.0 <= r["channel_utilization"] <= 1.0 for r in registry.timeseries)

    def test_standard_instruments_vc_skips_fr_columns(
        self, mesh4, small_vc_config
    ) -> None:
        network = VCNetwork(
            small_vc_config, mesh=mesh4, injection_rate=0.05, seed=1
        )
        registry = MetricsRegistry(sample_every=20)
        registry.install_standard_instruments(network)
        Simulator(network, observers=(registry,)).step(100)
        row = registry.timeseries[-1]
        assert "reservation_occupancy" not in row
        assert "credit_stalls" not in row
        assert "buffer_occupancy" in row

    def test_summary_reports_rows_and_gauge_means(self, mesh4, small_fr_config) -> None:
        network = FRNetwork(
            small_fr_config, mesh=mesh4, injection_rate=0.05, seed=1
        )
        registry = MetricsRegistry(sample_every=50)
        registry.install_standard_instruments(network)
        Simulator(network, observers=(registry,)).step(100)
        summary = registry.summary()
        assert summary["sample_every"] == 50
        assert summary["rows"] == len(registry.timeseries) == 2
        assert "buffer_occupancy" in summary["gauges"]
        assert set(summary["gauges"]["buffer_occupancy"]) == {"last", "mean"}
