"""The metrics registry: gauges and a sampled timeseries.

A :class:`MetricsRegistry` is a :class:`~repro.sim.kernel.CycleHook`: handed
to the simulator as an observer, it samples its instruments every
``sample_every`` cycles and appends one row to an in-memory timeseries (the
CSV exporter's data source).  Instruments never influence the network --
they only *read* public router state, exactly like the stats collectors.

``install_standard_instruments`` wires up the four built-ins the paper's
evaluation leans on:

* ``channel_utilization`` -- mean busy fraction of the data links over the
  last sampling interval (the quantity of paper Figure 7's x-axis);
* ``buffer_occupancy`` -- total occupied input data buffers network-wide
  (Section 4.2 tracks one pool; this is the whole-network view);
* ``reservation_occupancy`` -- busy slots summed over every output
  reservation table (FR only; reservation-table pressure, Section 4.4);
* ``credit_stalls`` -- cumulative control flits that failed to schedule
  their data flits (FR only; the ``schedule_stalls`` diagnostic);
* ``injection_backpressure`` -- network-wide mean source queue length (the
  warm-up signal, here exported over time).

Every instrument here is a network-wide scalar; the per-router / per-link
resolved counterparts (and the ``frfc heatmap`` renderers on top of them)
live in :mod:`repro.obs.spatial`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.sim.kernel import SteppableNetwork
    from repro.sim.netbase import NetworkModel

#: A sampler reads the network and returns one timeseries cell.
Sampler = Callable[["NetworkModel", int], float]


@dataclass
class Gauge:
    """A point-in-time level (occupancy, queue length, utilization)."""

    name: str
    value: float = 0.0
    samples: int = 0
    total: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        self.samples += 1
        self.total += value

    @property
    def mean(self) -> float:
        if self.samples == 0:
            raise ValueError(f"gauge {self.name} never sampled")
        return self.total / self.samples


class MetricsRegistry:
    """Named instruments plus a sampled timeseries; a simulator observer.

    The registry samples on cycles where ``cycle % sample_every == 0`` --
    a purely cycle-determined cadence, so identical seeds yield identical
    timeseries regardless of how the run was chunked into ``step`` calls.
    """

    def __init__(self, sample_every: int = 100) -> None:
        if sample_every < 1:
            raise ValueError(f"sampling cadence must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self.gauges: dict[str, Gauge] = {}
        self.timeseries: list[dict[str, float]] = []
        self._samplers: list[tuple[str, Sampler]] = []
        self._last_sample_cycle: int | None = None

    # -- instrument management ----------------------------------------------

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        return self.gauges.setdefault(name, Gauge(name))

    def add_sampler(self, column: str, sampler: Sampler) -> None:
        """Register a per-sample timeseries column.

        ``sampler(network, cycle)`` runs on every sampling tick; its return
        value lands in the ``column`` of that tick's timeseries row and in
        the gauge of the same name.
        """
        if any(existing == column for existing, _ in self._samplers):
            raise ValueError(f"duplicate timeseries column {column!r}")
        self._samplers.append((column, sampler))
        self.gauge(column)

    # -- built-in instruments ------------------------------------------------

    def install_standard_instruments(self, network: "NetworkModel") -> None:
        """Register the built-in channel/buffer/reservation/stall samplers.

        Works on any network model; instruments that need flow-control
        specific state (reservation tables, schedule stalls) are installed
        only where that state exists.
        """
        from repro.stats.utilization import _data_links

        links = _data_links(network)
        state = {"sent": sum(link.total_sent for link in links.values()), "cycle": 0}

        def channel_utilization(net: "NetworkModel", cycle: int) -> float:
            sent = sum(link.total_sent for link in links.values())
            interval = cycle - state["cycle"]
            delta = sent - state["sent"]
            state["sent"] = sent
            state["cycle"] = cycle
            if interval <= 0 or not links:
                return 0.0
            return delta / (interval * len(links))

        self.add_sampler("channel_utilization", channel_utilization)
        self.add_sampler("buffer_occupancy", _buffer_occupancy)
        routers: list[Any] = getattr(network, "routers", [])
        if routers and hasattr(routers[0], "out_tables"):
            self.add_sampler("reservation_occupancy", _reservation_occupancy)
        if routers and hasattr(routers[0], "schedule_stalls"):
            self.add_sampler("credit_stalls", _credit_stalls)
        self.add_sampler("injection_backpressure", _injection_backpressure)

    # -- the CycleHook -------------------------------------------------------

    def check(self, network: "SteppableNetwork", cycle: int) -> None:
        """Observer entry point: sample on the configured cadence."""
        if cycle % self.sample_every:
            return
        if cycle == self._last_sample_cycle:
            return  # a re-entrant attach must not duplicate the boundary row
        self._last_sample_cycle = cycle
        row: dict[str, float] = {"cycle": float(cycle)}
        for column, sampler in self._samplers:
            value = sampler(network, cycle)  # type: ignore[arg-type]
            row[column] = value
            self.gauges[column].set(value)
        self.timeseries.append(row)

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Final values and means of every instrument, for the manifest."""
        report: dict[str, Any] = {
            "sample_every": self.sample_every,
            "rows": len(self.timeseries),
        }
        gauges = {
            name: {"last": g.value, "mean": g.mean}
            for name, g in sorted(self.gauges.items())
            if g.samples
        }
        if gauges:
            report["gauges"] = gauges
        return report


# -- standard samplers (module-level so they carry no per-run state) ---------


def _buffer_occupancy(network: "NetworkModel", cycle: int) -> float:
    total = 0
    for router in getattr(network, "routers", []):
        schedulers = getattr(router, "input_sched", None)
        if schedulers is not None:  # flit-reservation input pools
            total += sum(scheduler.occupancy for scheduler in schedulers)
        else:  # VC/wormhole per-port pools
            total += sum(router.pool_occupancy)
    return float(total)


def _reservation_occupancy(network: "NetworkModel", cycle: int) -> float:
    total = 0
    for router in getattr(network, "routers", []):
        for table in router.out_tables:
            if table is not None:
                total += table.busy_slots()
    return float(total)


def _credit_stalls(network: "NetworkModel", cycle: int) -> float:
    return float(sum(router.schedule_stalls for router in getattr(network, "routers", [])))


def _injection_backpressure(network: "NetworkModel", cycle: int) -> float:
    return network.mean_source_queue_length()
