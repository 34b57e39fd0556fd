"""Unit tests for the metrics registry and its standard instruments."""

from __future__ import annotations

import pytest

from repro.baselines.vc.network import VCNetwork
from repro.core.network import FRNetwork
from repro.obs.metrics import Gauge, MetricsRegistry
from repro.sim.kernel import Simulator
from repro.topology.mesh import EAST, NORTH, SOUTH, WEST


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

    def test_columns_equal_direct_network_readings(self, mesh4, small_fr_config) -> None:
        # Each standard column reduces a spatial row; a custom sampler reads
        # the same quantity straight off the routers on the same tick.
        network = FRNetwork(small_fr_config, mesh=mesh4, injection_rate=0.08, seed=2)
        registry = MetricsRegistry(sample_every=40)
        registry.install_standard_instruments(network)
        links = [
            router.data_out_links[port]
            for router in network.routers
            for port in (NORTH, EAST, SOUTH, WEST)
            if router.data_out_links[port] is not None
        ]
        sent = {"total": 0, "cycle": -1}

        def direct_utilization(net, cycle: int) -> float:
            total = sum(link.total_sent for link in links)
            busy = (total - sent["total"]) / ((cycle - sent["cycle"]) * len(links))
            sent.update(total=total, cycle=cycle)
            return busy

        direct = {
            "channel_utilization": direct_utilization,
            "buffer_occupancy": lambda net, cycle: float(
                sum(router.buffered_total() for router in net.routers)
            ),
            "reservation_occupancy": lambda net, cycle: float(
                sum(router.reservation_busy_total() for router in net.routers)
            ),
            "credit_stalls": lambda net, cycle: float(
                sum(router.schedule_stalls for router in net.routers)
            ),
            "injection_backpressure": lambda net, cycle: net.mean_source_queue_length(),
        }
        for column, sampler in direct.items():
            registry.add_sampler(f"direct_{column}", sampler)
        Simulator(network, observers=(registry,)).step(400)
        assert len(registry.timeseries) == 10
        for row in registry.timeseries:
            for column in direct:
                assert row[column] == row[f"direct_{column}"], (row["cycle"], column)

    def test_mid_run_install_rates_cover_only_cycles_seen(
        self, mesh4, small_fr_config
    ) -> None:
        network = FRNetwork(small_fr_config, mesh=mesh4, injection_rate=0.08, seed=2)
        simulator = Simulator(network)
        simulator.step(550)
        registry = MetricsRegistry(sample_every=100)
        registry.install_standard_instruments(network, simulator.cycle)
        simulator.observers = (registry,)
        simulator.step(51)
        (row,) = registry.spatial.samples
        assert (row.window_start, row.window_end) == (550, 601)
        (scalar,) = registry.timeseries
        assert scalar["channel_utilization"] == sum(row.link_flits) / (51 * len(row.link_flits))
        assert scalar["channel_utilization"] > 0.05
        assert scalar["credit_stalls"] == float(
            sum(router.schedule_stalls for router in network.routers)
        )

