"""The spatial metrics registry: cadence, window semantics, stable exports.

The per-coordinate registry inherits three contracts from the scalar one
and adds a fourth:

* construction rejects a non-positive sampling cadence;
* sampling windows are half-open ``[start, end)`` and tile the run with no
  gap or overlap (the ``tests/stats/test_window_semantics.py`` convention),
  the first opening on the cycle the instruments were installed at;
* a re-entrant attach never duplicates the boundary-cycle row;
* the CSV and heatmap exporters are byte-stable across repeated exports.
"""

from __future__ import annotations

import pytest

from repro.baselines.vc.config import VCConfig
from repro.baselines.vc.network import VCNetwork
from repro.core.config import FRConfig
from repro.core.network import FRNetwork
from repro.obs.heatmap import build_heatmap, render_ascii, render_svg, write_heatmap_json
from repro.obs.spatial import (
    SpatialMetricsRegistry,
    SpatialSample,
    format_link_utilization,
    write_spatial_csv,
)
from repro.sim.kernel import Simulator
from repro.topology.mesh import EAST, NORTH, SOUTH, WEST, Mesh2D


def _fr_network(injection_rate: float = 0.08, seed: int = 11) -> FRNetwork:
    return FRNetwork(
        FRConfig(data_buffers_per_input=6),
        mesh=Mesh2D(4, 4),
        injection_rate=injection_rate,
        seed=seed,
    )


def _router_data_links(network) -> list:
    """The router-to-router data links, found without the registry's help."""
    links = []
    for router in network.routers:
        out_links = getattr(router, "data_out_links", None) or router.out_data_links
        links += [out_links[port] for port in (NORTH, EAST, SOUTH, WEST) if out_links[port]]
    return links


def _observed(cycles: int = 300, sample_every: int = 50) -> tuple:
    network = _fr_network()
    registry = SpatialMetricsRegistry(sample_every=sample_every)
    registry.install_standard_instruments(network)
    network.set_measure_window(0, cycles)
    Simulator(network, observers=(registry,)).step(cycles)
    return network, registry


class TestConstruction:
    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_rejects_bad_cadence(self, bad: int) -> None:
        with pytest.raises(ValueError, match="cadence"):
            SpatialMetricsRegistry(sample_every=bad)

    def test_rejects_duplicate_metric(self) -> None:
        registry = SpatialMetricsRegistry()
        registry.add_node_sampler("m", "level", lambda network, cycle: [])
        with pytest.raises(ValueError, match="duplicate"):
            registry.add_node_sampler("m", "rate", lambda network, cycle: [])

    def test_rejects_unknown_kind(self) -> None:
        registry = SpatialMetricsRegistry()
        with pytest.raises(ValueError, match="kind"):
            registry.add_node_sampler("m", "gauge", lambda network, cycle: [])

    def test_rejects_double_install(self) -> None:
        network = _fr_network()
        registry = SpatialMetricsRegistry()
        registry.install_standard_instruments(network)
        with pytest.raises(RuntimeError, match="already installed"):
            registry.install_standard_instruments(network)


class TestWindowSemantics:
    def test_windows_are_half_open_and_tile_the_run(self) -> None:
        _, registry = _observed(cycles=300, sample_every=50)
        rows = registry.samples
        assert [row.cycle for row in rows] == [0, 50, 100, 150, 200, 250]
        # The sampled cycle is the last member of its window...
        for row in rows:
            assert row.window_end == row.cycle + 1
            assert row.window_start < row.window_end
        # ...and consecutive windows tile with no gap or overlap.
        for earlier, later in zip(rows, rows[1:]):
            assert later.window_start == earlier.window_end

    def test_rows_in_window_is_half_open(self) -> None:
        _, registry = _observed(cycles=300, sample_every=50)
        # Row at cycle 100 covers [51, 101); [0, 101) holds rows 0, 50, 100.
        held = registry.rows_in_window(0, 101)
        assert [row.cycle for row in held] == [0, 50, 100]
        # An end inside row 100's window excludes it (end is open).
        assert [row.cycle for row in registry.rows_in_window(0, 100)] == [0, 50]

    def test_reentrant_attach_does_not_duplicate_boundary_row(self) -> None:
        network = _fr_network()
        registry = SpatialMetricsRegistry(sample_every=50)
        registry.install_standard_instruments(network)
        simulator = Simulator(network, observers=(registry,))
        simulator.step(100)
        rows_before = len(registry.samples)
        boundary = registry.samples[-1].cycle
        # A second check() on an already-sampled boundary cycle (as a
        # re-entrant attach or chunked driver would issue) must be a no-op.
        registry.check(network, boundary)
        assert len(registry.samples) == rows_before
        assert registry.samples[-1].cycle == boundary

    def test_first_window_opens_at_a_mid_run_install(self) -> None:
        network = _fr_network(injection_rate=0.5)
        simulator = Simulator(network)
        simulator.step(550)
        links = _router_data_links(network)
        sent_at_install = sum(link.total_sent for link in links)
        registry = SpatialMetricsRegistry(sample_every=100)
        registry.install_standard_instruments(network, simulator.cycle)
        simulator.observers = (registry,)
        simulator.step(51)
        (row,) = registry.samples
        assert (row.cycle, row.window_start, row.window_end) == (600, 550, 601)
        busy = (sum(link.total_sent for link in links) - sent_at_install) / (51 * len(links))
        values = row.links["link_utilization"]
        assert sum(values) / len(values) == pytest.approx(busy)
        assert busy > 0.1

    def test_chunked_stepping_matches_one_shot(self) -> None:
        one_shot = _fr_network()
        whole = SpatialMetricsRegistry(sample_every=50)
        whole.install_standard_instruments(one_shot)
        Simulator(one_shot, observers=(whole,)).step(300)

        chunked_net = _fr_network()
        chunked = SpatialMetricsRegistry(sample_every=50)
        chunked.install_standard_instruments(chunked_net)
        simulator = Simulator(chunked_net, observers=(chunked,))
        for chunk in (7, 43, 50, 100, 100):
            simulator.step(chunk)

        assert [row.cycle for row in whole.samples] == [
            row.cycle for row in chunked.samples
        ]
        assert [row.nodes for row in whole.samples] == [
            row.nodes for row in chunked.samples
        ]
        assert [row.links for row in whole.samples] == [
            row.links for row in chunked.samples
        ]


class TestInstruments:
    def test_fr_installs_reservation_and_stall_instruments(self) -> None:
        _, registry = _observed()
        assert set(registry.node_metrics) == {
            "buffer_occupancy",
            "injection_backpressure",
            "reservation_occupancy",
            "credit_stalls",
        }
        assert registry.link_metrics == {"link_utilization": "rate"}

    def test_vc_installs_only_generic_instruments(self) -> None:
        network = VCNetwork(
            VCConfig(num_vcs=2, buffers_per_vc=4),
            mesh=Mesh2D(4, 4),
            injection_rate=0.05,
            seed=11,
        )
        registry = SpatialMetricsRegistry(sample_every=50)
        registry.install_standard_instruments(network)
        Simulator(network, observers=(registry,)).step(200)
        assert set(registry.node_metrics) == {
            "buffer_occupancy",
            "injection_backpressure",
        }
        assert registry.samples, "VC network sampled no rows"

    def test_every_row_has_one_value_per_coordinate(self) -> None:
        network, registry = _observed()
        nodes = len(network.routers)
        for row in registry.samples:
            for name, values in row.nodes.items():
                assert len(values) == nodes, name
            for name, values in row.links.items():
                assert len(values) == len(registry.link_keys), name

    def test_link_utilization_bounded_by_one(self) -> None:
        _, registry = _observed(cycles=300)
        for row in registry.samples:
            for value in row.links["link_utilization"]:
                assert 0.0 <= value <= 1.0

    def test_summary_reports_shape_and_peaks(self) -> None:
        _, registry = _observed()
        summary = registry.summary()
        assert summary["rows"] == len(registry.samples)
        assert summary["sample_every"] == 50
        assert "buffer_occupancy" in summary["node_metrics"]
        assert summary["peaks"]["buffer_occupancy"]["value"] > 0


def _busy_row(network, warm: int = 400, cycles: int = 600) -> tuple:
    """One row covering ``cycles`` cycles after ``warm`` cycles of warm-up."""
    simulator = Simulator(network)
    simulator.step(warm)
    registry = SpatialMetricsRegistry()
    registry.install_standard_instruments(network, simulator.cycle)
    simulator.step(cycles)
    return registry, registry.row(network, simulator.cycle - 1)


class TestLinkUtilizationReport:
    """``frfc utilization``'s reader: one window of the spatial row."""

    @pytest.mark.parametrize("flavour", ["fr", "vc"])
    def test_busy_fractions_are_fractions(self, flavour: str) -> None:
        if flavour == "fr":
            network = _fr_network(injection_rate=0.06, seed=3)
        else:
            network = VCNetwork(VCConfig(), mesh=Mesh2D(4, 4), injection_rate=0.06, seed=3)
        registry, row = _busy_row(network)
        assert (row.window_start, row.window_end) == (400, 1000)
        values = row.links["link_utilization"]
        # Mesh edges exist for every connected port: 4x4 has 48 channels.
        assert len(values) == len(registry.link_keys) == 48
        assert all(0.0 <= value <= 1.0 for value in values)
        assert 0.0 < sum(values) / len(values) < 1.0

    def test_heavier_load_busier_links(self) -> None:
        means = []
        for rate in (0.02, 0.10):
            _, row = _busy_row(_fr_network(injection_rate=rate, seed=3))
            values = row.links["link_utilization"]
            means.append(sum(values) / len(values))
        assert means[1] > means[0]

    def test_equal_seeds_equal_rows(self) -> None:
        _, first = _busy_row(_fr_network(seed=5))
        _, second = _busy_row(_fr_network(seed=5))
        assert first.link_flits == second.link_flits
        assert first.links == second.links

    def test_format(self) -> None:
        registry = SpatialMetricsRegistry()
        registry.link_keys = [(3, EAST), (0, NORTH), (5, WEST)]
        row = SpatialSample(cycle=99, window_start=0, window_end=100)
        row.links["link_utilization"] = [0.42, 0.1, 0.9]
        assert format_link_utilization(registry, row, count=2) == (
            "data channel utilization over 100 cycles: mean 0.473, peak 0.900\n"
            "hottest channels:\n"
            "  node   5 west   0.900\n"
            "  node   3 east   0.420"
        )

    def test_no_links_raises(self) -> None:
        registry = SpatialMetricsRegistry()
        with pytest.raises(ValueError, match="no data links"):
            format_link_utilization(registry, SpatialSample(0, 0, 1))


class TestStableExports:
    def test_spatial_csv_byte_stable(self, tmp_path) -> None:
        network, registry = _observed()
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        rows_a = write_spatial_csv(registry, network, first)
        rows_b = write_spatial_csv(registry, network, second)
        assert rows_a == rows_b > 0
        assert first.read_bytes() == second.read_bytes()

    def test_heatmap_json_byte_stable(self, tmp_path) -> None:
        network, registry = _observed()
        payload = build_heatmap(registry, network.mesh, label="stable")
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_heatmap_json(payload, first)
        write_heatmap_json(
            build_heatmap(registry, network.mesh, label="stable"), second
        )
        assert first.read_bytes() == second.read_bytes()

    def test_renderers_pure_functions_of_payload(self) -> None:
        network, registry = _observed()
        payload = build_heatmap(registry, network.mesh, label="stable")
        assert render_ascii(payload, "buffer_occupancy") == render_ascii(
            payload, "buffer_occupancy"
        )
        assert render_svg(payload, "buffer_occupancy") == render_svg(
            payload, "buffer_occupancy"
        )
