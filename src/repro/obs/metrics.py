"""The metrics registry: gauges and a sampled timeseries.

A :class:`MetricsRegistry` is a :class:`~repro.sim.kernel.CycleHook`: handed
to the simulator as an observer, it samples its instruments every
``sample_every`` cycles and appends one row to an in-memory timeseries (the
CSV exporter's data source).  Instruments never influence the network --
they only *read* public router state, exactly like the stats collectors.

``install_standard_instruments`` wires up the built-ins the paper's
evaluation leans on -- ``channel_utilization`` (paper Figure 7's x-axis),
``buffer_occupancy``, ``reservation_occupancy`` and ``credit_stalls`` (FR
only) and ``injection_backpressure``.  Each is a network-wide reduction,
from integer counts, of the row that the registry's
:class:`~repro.obs.spatial.SpatialMetricsRegistry` (``spatial``, the one
reader of router and link state) takes on the same cycle; the definitions
are tabled in ``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.spatial import SpatialMetricsRegistry, SpatialSample

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
    Its ``spatial`` registry samples on the same cadence.
    """

    def __init__(self, sample_every: int = 100) -> None:
        self.spatial = SpatialMetricsRegistry(sample_every)
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

    def install_standard_instruments(self, network: "NetworkModel", start: int = 0) -> None:
        """Install ``spatial`` on ``network`` and register the reductions of
        its rows (``start`` as in
        :meth:`~repro.obs.spatial.SpatialMetricsRegistry.install_standard_instruments`).

        Works on any network model; instruments that need flow-control
        specific state (reservation tables, schedule stalls) are installed
        only where the spatial registry samples that state.
        """
        spatial = self.spatial
        spatial.install_standard_instruments(network, start)

        def reduce(reduction: Callable[[SpatialSample], float]) -> Sampler:
            # Closes over the spatial registry, never over this one.
            return lambda net, cycle: reduction(spatial.row(net, cycle))

        self.add_sampler("channel_utilization", reduce(_channel_utilization))
        self.add_sampler("buffer_occupancy", reduce(_sum_of("buffer_occupancy")))
        if "reservation_occupancy" in spatial.node_metrics:
            self.add_sampler(
                "reservation_occupancy", reduce(_sum_of("reservation_occupancy"))
            )
        if "credit_stalls" in spatial.node_metrics:
            self.add_sampler("credit_stalls", reduce(_credit_stalls(network)))
        self.add_sampler("injection_backpressure", reduce(_injection_backpressure))

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


# -- reductions of a spatial row (module-level, so none references a registry)


def _channel_utilization(row: SpatialSample) -> float:
    flits = row.link_flits
    if not flits:
        return 0.0
    return sum(flits) / ((row.window_end - row.window_start) * len(flits))


def _sum_of(name: str) -> Callable[[SpatialSample], float]:
    return lambda row: sum(row.nodes[name])


def _credit_stalls(network: "NetworkModel") -> Callable[[SpatialSample], float]:
    """The routers' stalls at install plus every row's since."""
    total = [float(sum(router.schedule_stalls for router in getattr(network, "routers", [])))]

    def reduction(row: SpatialSample) -> float:
        total[0] += sum(row.nodes["credit_stalls"])
        return total[0]

    return reduction


def _injection_backpressure(row: SpatialSample) -> float:
    lengths = row.nodes["injection_backpressure"]
    return sum(lengths) / len(lengths)
