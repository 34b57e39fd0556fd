"""Spatially-resolved metrics: per-router, per-link, per-table instruments.

:mod:`repro.obs.metrics` answers *whether* the mesh is congested -- every
instrument there is a network-wide scalar.  This module answers *where*: a
:class:`SpatialMetricsRegistry` is a :class:`~repro.sim.kernel.CycleHook`
that, on the same cycle-determined cadence as the scalar registry, samples
one value **per coordinate** -- per router (input-buffer occupancy,
reservation-table busy slots, credit stalls, injection backpressure) and
per directed data link (busy fraction over the sampling window) -- into an
in-memory windowed timeseries.  The paper's own evaluation is spatial
(Section 4.2 tracks one node's buffer pool; Figure 7's saturation is driven
by center-of-mesh contention under dimension-ordered routing); this is the
per-node congestion readout behind ``frfc heatmap``.

Contracts, shared with the rest of the observability layer:

* **pure observer** -- samplers only read public router/link state; runs
  with the registry attached are digest-identical to unobserved runs
  (pinned in ``tests/obs/test_detached.py``);
* **cycle-determined cadence** -- a row is taken on cycles where
  ``cycle % sample_every == 0`` regardless of how the run was chunked into
  ``step`` calls, and a re-entrant attach never duplicates the boundary
  row;
* **half-open windows** -- each row covers the cycle window
  ``[window_start, window_end)`` with ``window_end = cycle + 1``
  (the sampled cycle is the window's last member, matching the
  ``tests/stats/test_window_semantics.py`` conventions); *rate* metrics
  (link utilization, credit stalls) are normalised over exactly that
  window, *level* metrics (occupancies) are the instantaneous value at the
  window's closing edge.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.topology.mesh import PORT_NAMES

if TYPE_CHECKING:
    from pathlib import Path

    from repro.sim.kernel import SteppableNetwork
    from repro.sim.link import Link
    from repro.sim.netbase import NetworkModel

#: Metric kinds: a *level* is an instantaneous reading at the window's
#: closing edge; a *rate* is an amount normalised over the half-open window.
LEVEL = "level"
RATE = "rate"

#: A node sampler returns one value per mesh node (row-major node order).
NodeSampler = Callable[["NetworkModel", int], list[float]]


@dataclass
class SpatialSample:
    """One sampled row: every spatial instrument at one cadence tick.

    ``nodes`` maps metric name to a row-major per-node value list;
    ``links`` maps metric name to per-link values aligned with the
    registry's ``link_keys``.  The row covers the half-open cycle window
    ``[window_start, window_end)``.
    """

    cycle: int
    window_start: int
    window_end: int
    nodes: dict[str, list[float]] = field(default_factory=dict)
    links: dict[str, list[float]] = field(default_factory=dict)


class SpatialMetricsRegistry:
    """Per-coordinate instruments plus a sampled timeseries; an observer.

    Like :class:`~repro.obs.metrics.MetricsRegistry`, the registry samples
    on cycles where ``cycle % sample_every == 0`` and guards the boundary
    cycle against re-entrant attaches, so identical seeds yield identical
    timeseries regardless of run chunking.
    """

    def __init__(self, sample_every: int = 100) -> None:
        if sample_every < 1:
            raise ValueError(f"sampling cadence must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self.samples: list[SpatialSample] = []
        self.node_metrics: dict[str, str] = {}  # name -> LEVEL | RATE
        self.link_metrics: dict[str, str] = {}
        #: Directed data links in canonical (node, port) order; link metric
        #: value lists are aligned with this.
        self.link_keys: list[tuple[int, int]] = []
        self._node_samplers: list[tuple[str, NodeSampler]] = []
        self._links: list["Link[Any]"] = []
        self._link_sent_prev: list[int] = []
        self._last_sample_cycle: int | None = None
        self._last_window_end = 0
        self._network: "NetworkModel | None" = None

    @property
    def network(self) -> "NetworkModel | None":
        """The network the instruments were installed on (None before)."""
        return self._network

    # -- instrument management ----------------------------------------------

    def add_node_sampler(self, name: str, kind: str, sampler: NodeSampler) -> None:
        """Register a per-node metric column.

        ``sampler(network, cycle)`` runs on every sampling tick and must
        return one value per mesh node in node order; ``kind`` is
        :data:`LEVEL` or :data:`RATE` (rates are reported per window by the
        sampler itself).
        """
        if kind not in (LEVEL, RATE):
            raise ValueError(f"metric kind must be 'level' or 'rate', got {kind!r}")
        if name in self.node_metrics:
            raise ValueError(f"duplicate spatial metric {name!r}")
        self.node_metrics[name] = kind
        self._node_samplers.append((name, sampler))

    def install_standard_instruments(self, network: "NetworkModel") -> None:
        """Register the built-in per-coordinate instruments for ``network``.

        Instruments needing flow-control-specific state (reservation
        tables, schedule stalls) install only where that state exists, so
        FR, VC, and wormhole models all work.
        """
        from repro.stats.utilization import _data_links

        if self._network is not None:
            raise RuntimeError("spatial registry already installed on a network")
        self._network = network
        self.add_node_sampler("buffer_occupancy", LEVEL, _node_buffer_occupancy)
        self.add_node_sampler(
            "injection_backpressure", LEVEL, _node_injection_backpressure
        )
        routers: list[Any] = getattr(network, "routers", [])
        if routers and hasattr(routers[0], "out_tables"):
            self.add_node_sampler("reservation_occupancy", LEVEL, _node_reservation_occupancy)
        if routers and hasattr(routers[0], "schedule_stalls"):
            # Snapshot at install so a mid-run attach only counts stalls
            # accrued from here on (same convention as the link counters).
            stalls = [router.schedule_stalls for router in routers]
            self.add_node_sampler("credit_stalls", RATE, _node_credit_stalls(stalls))
        links = _data_links(network)
        self.link_keys = sorted(links)
        self._links = [links[key] for key in self.link_keys]
        self._link_sent_prev = [link.total_sent for link in self._links]
        self.link_metrics["link_utilization"] = RATE

    # -- the CycleHook -------------------------------------------------------

    def check(self, network: "SteppableNetwork", cycle: int) -> None:
        """Observer entry point: sample every coordinate on the cadence."""
        if cycle % self.sample_every:
            return
        if cycle == self._last_sample_cycle:
            return  # a re-entrant attach must not duplicate the boundary row
        self._last_sample_cycle = cycle
        window_start = self._last_window_end
        window_end = cycle + 1
        self._last_window_end = window_end
        interval = window_end - window_start
        sample = SpatialSample(
            cycle=cycle, window_start=window_start, window_end=window_end
        )
        for name, sampler in self._node_samplers:
            sample.nodes[name] = sampler(network, cycle)  # type: ignore[arg-type]
        if self._links:
            prev = self._link_sent_prev
            utilization: list[float] = []
            for index, link in enumerate(self._links):
                sent = link.total_sent
                utilization.append((sent - prev[index]) / interval)
                prev[index] = sent
            sample.links["link_utilization"] = utilization
        self.samples.append(sample)

    # -- reporting -----------------------------------------------------------

    def rows_in_window(self, start: int, end: int) -> list[SpatialSample]:
        """The sampled rows whose half-open windows lie within [start, end)."""
        return [
            sample
            for sample in self.samples
            if sample.window_start >= start and sample.window_end <= end
        ]

    def sampled_window(self, window: tuple[int, int] | None) -> tuple[int, int] | None:
        """``window`` if it holds sampled rows, else None (aggregate every row):
        a measurement window shorter than the cadence still yields a frame."""
        if window is not None and not self.rows_in_window(*window):
            return None
        return window

    def summary(self) -> dict[str, Any]:
        """Shape and peak facts for the manifest."""
        report: dict[str, Any] = {
            "sample_every": self.sample_every,
            "rows": len(self.samples),
            "node_metrics": sorted(self.node_metrics),
            "link_metrics": sorted(self.link_metrics),
        }
        peaks: dict[str, dict[str, float]] = {}
        for name in sorted(self.node_metrics):
            best_value = 0.0
            best_node = -1
            for sample in self.samples:
                for node, value in enumerate(sample.nodes[name]):
                    if value > best_value:
                        best_value = value
                        best_node = node
            if best_node >= 0:
                peaks[name] = {"node": float(best_node), "value": best_value}
        if peaks:
            report["peaks"] = peaks
        return report


def write_spatial_csv(
    registry: SpatialMetricsRegistry, network: "NetworkModel", path: "str | Path"
) -> int:
    """Write the spatial timeseries as long-format CSV; returns row count.

    One output row per (sample, metric, coordinate): node metrics carry an
    empty ``port`` column, link metrics name the sending node and port.
    Byte-stable across repeated exports of the same registry.
    """
    from repro.obs.exporters import atomic_write_text

    mesh = network.mesh
    count = 0
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["cycle", "window_start", "window_end", "metric", "node", "port", "x", "y", "value"]
    )
    for sample in registry.samples:
        base = [sample.cycle, sample.window_start, sample.window_end]
        for name in sorted(sample.nodes):
            for node, value in enumerate(sample.nodes[name]):
                x, y = mesh.coordinates(node)
                writer.writerow(base + [name, node, "", x, y, _format_value(value)])
                count += 1
        for name in sorted(sample.links):
            values = sample.links[name]
            for index, (node, port) in enumerate(registry.link_keys):
                x, y = mesh.coordinates(node)
                writer.writerow(
                    base
                    + [name, node, PORT_NAMES[port], x, y, _format_value(values[index])]
                )
                count += 1
    atomic_write_text(path, buffer.getvalue())
    return count


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6f}"


# -- standard node samplers (module-level, so none references the registry) --


def _node_buffer_occupancy(network: "NetworkModel", cycle: int) -> list[float]:
    values: list[float] = []
    for router in getattr(network, "routers", []):
        values.append(float(router.buffered_total()))
    return values


def _node_reservation_occupancy(network: "NetworkModel", cycle: int) -> list[float]:
    values: list[float] = []
    for router in getattr(network, "routers", []):
        values.append(float(router.reservation_busy_total()))
    return values


def _node_injection_backpressure(network: "NetworkModel", cycle: int) -> list[float]:
    return [float(network.source_queue_length(node)) for node in network.mesh.nodes()]


def _node_credit_stalls(prev: list[int]) -> NodeSampler:
    """Per-router schedule stalls accrued in each sampling window.

    ``prev`` holds each router's count at the previous sample; the sampler
    closes over it rather than over the registry, which would then
    reference itself through its own sampler list.
    """

    def sample(network: "NetworkModel", cycle: int) -> list[float]:
        values: list[float] = []
        for index, router in enumerate(getattr(network, "routers", [])):
            total = router.schedule_stalls
            values.append(float(total - prev[index]))
            prev[index] = total
        return values

    return sample
