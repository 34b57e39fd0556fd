"""One observed run, end to end: the object the harness drives.

An :class:`ObsSession` bundles the bus, collector, metrics registry, and
profiler that one instrumented run needs, derived from which outputs the
caller asked for:

* ``events_out``      -> JSONL event log (every kind);
* ``trace_out``       -> Chrome trace-event JSON (Perfetto-loadable);
* ``metrics_out``     -> CSV timeseries from the metrics registry;
* ``spatial_out``     -> long-format CSV of the per-coordinate timeseries
  sampled by a :class:`~repro.obs.spatial.SpatialMetricsRegistry`;
* ``heatmap_out``     -> ``frfc-heatmap/1`` JSON aggregating the spatial
  rows inside the measurement window (requesting either spatial output
  attaches the spatial registry);
* ``profile``         -> ``BENCH_obs.json`` with cycles/sec per phase;
* ``attribution_out`` -> per-component latency attribution JSON
  (``frfc-attribution/1``); when a trace is also requested, the trace
  gains per-packet component waterfalls;
* a manifest is always written alongside whichever artifacts exist
  (set ``manifest_out=""`` to suppress it).

Usage::

    session = ObsSession(trace_out="t.json", metrics_out="m.csv", profile=True)
    session.attach(network)
    simulator = Simulator(network, observers=session.observers,
                          profiler=session.profiler)
    ... run ...
    session.detach()
    artifacts = session.finalize(config=config, seed=seed, preset="quick")
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.obs.events import EventBus, EventCollector
from repro.obs.exporters import write_chrome_trace, write_events_jsonl, write_metrics_csv
from repro.obs.manifest import build_manifest, write_manifest

if TYPE_CHECKING:
    from repro.obs.attribution import LatencyAttributor
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.probe import NetworkProbe
    from repro.obs.profile import SimProfiler
    from repro.obs.progress import ProgressReporter
    from repro.obs.report import AttributionSummary
    from repro.obs.spatial import SpatialMetricsRegistry
    from repro.sim.kernel import CycleHook
    from repro.sim.netbase import NetworkModel


class ObsSession:
    """Configures and finalizes the observability of one run."""

    def __init__(
        self,
        events_out: str | None = None,
        trace_out: str | None = None,
        metrics_out: str | None = None,
        spatial_out: str | None = None,
        heatmap_out: str | None = None,
        profile: bool = False,
        attribution_out: str | None = None,
        manifest_out: str = "obs_manifest.json",
        bench_out: str = "BENCH_obs.json",
        sample_every: int = 100,
        capacity: int = 1_000_000,
        progress: "ProgressReporter | None" = None,
    ) -> None:
        self.events_out = events_out
        self.trace_out = trace_out
        self.metrics_out = metrics_out
        self.spatial_out = spatial_out
        self.heatmap_out = heatmap_out
        self.attribution_out = attribution_out
        self.manifest_out = manifest_out
        self.bench_out = bench_out
        # Each observer's module is imported where the observer is built, so
        # a run loads only what it asked for -- here rather than in attach(),
        # so a forked pool worker inherits every module its session needs.
        self.bus = EventBus()
        self.collector: EventCollector | None = None
        if events_out or trace_out:
            self.collector = EventCollector(capacity)
            self.bus.subscribe_all(self.collector)
        self.attributor: LatencyAttributor | None = None
        if attribution_out is not None:
            from repro.obs.attribution import LatencyAttributor

            self.attributor = LatencyAttributor(self.bus, capacity=capacity)
        self.registry: MetricsRegistry | None = None
        if metrics_out:
            from repro.obs.metrics import MetricsRegistry

            self.registry = MetricsRegistry(sample_every)
        self.spatial: SpatialMetricsRegistry | None = None
        if spatial_out is not None or heatmap_out is not None:
            from repro.obs.spatial import SpatialMetricsRegistry

            # Like attribution_out, an empty string means "sample but write
            # nothing" -- sweeps aggregate the in-memory rows themselves.
            self.spatial = SpatialMetricsRegistry(sample_every)
        self.profiler: SimProfiler | None = None
        if profile:
            from repro.obs.profile import SimProfiler

            self.profiler = SimProfiler()
        self.progress = progress
        self.window: tuple[int, int] | None = None
        self._probe: NetworkProbe | None = None
        if self.collector is not None or self.attributor is not None:
            from repro.obs.probe import NetworkProbe

            self._probe = NetworkProbe(self.bus)
        self._network: "NetworkModel | None" = None

    @property
    def observers(self) -> tuple["CycleHook", ...]:
        """After-cycle hooks to hand the simulator (metrics, progress)."""
        hooks: list["CycleHook"] = []
        if self.registry is not None:
            hooks.append(self.registry)
        if self.spatial is not None:
            hooks.append(self.spatial)
        if self.progress is not None:
            hooks.append(self.progress)
        return tuple(hooks)

    @property
    def events_dropped(self) -> int:
        """Events lost to capacity bounds so far (collector + attributor)."""
        dropped = self.collector.dropped if self.collector is not None else 0
        if self.attributor is not None:
            dropped += self.attributor.records_dropped
        return dropped

    def enter_phase(self, name: str) -> None:
        """Label the following cycles for the profiler and progress stream."""
        if self.profiler is not None:
            self.profiler.enter_phase(name)
        if self.progress is not None:
            self.progress.enter_phase(name)

    def note_window(self, start: int, end: int) -> None:
        """Record the measurement window (attribution separates warmup,
        the heatmap aggregates only measured spatial rows)."""
        self.window = (start, end)
        if self.attributor is not None:
            self.attributor.note_window(start, end)

    # -- lifecycle ----------------------------------------------------------

    def attach(self, network: "NetworkModel") -> "ObsSession":
        """Probe the network (when any event output is wanted; chainable)."""
        if self._network is not None:
            raise RuntimeError("observability session already attached")
        self._network = network
        if self.attributor is not None:
            self.attributor.configure_for(network)
        if self._probe is not None:
            self._probe.attach(network)
        if self.registry is not None:
            self.registry.install_standard_instruments(network)
        if self.spatial is not None:
            self.spatial.install_standard_instruments(network)
        return self

    def detach(self) -> None:
        """Restore the network's hooks (idempotent)."""
        if self._probe is not None:
            self._probe.detach()
            self._probe = None

    # -- artifact writing ---------------------------------------------------

    def finalize(
        self,
        config: Any,
        seed: int,
        preset: str = "",
        offered_load: float | None = None,
        packet_length: int | None = None,
        command: str = "",
        extra: Mapping[str, Any] | None = None,
    ) -> dict[str, str]:
        """Write every requested artifact; returns {artifact kind: path}."""
        self.detach()
        artifacts: dict[str, str] = {}
        run_name = "frfc"
        network = self._network
        if network is not None:
            run_name = f"frfc {network.flow_control_name}"
        if self.events_out and self.collector is not None:
            write_events_jsonl(self.collector, self.events_out)
            artifacts["events"] = self.events_out
        if self.trace_out and self.collector is not None:
            waterfall = self.attributor.records if self.attributor else None
            write_chrome_trace(
                self.collector, self.trace_out, run_name=run_name, attribution=waterfall
            )
            artifacts["trace"] = self.trace_out
        if self.metrics_out and self.registry is not None:
            write_metrics_csv(self.registry.timeseries, self.metrics_out)
            artifacts["metrics"] = self.metrics_out
        if self.spatial_out and self.spatial is not None and network is not None:
            from repro.obs.spatial import write_spatial_csv

            write_spatial_csv(self.spatial, network, self.spatial_out)
            artifacts["spatial"] = self.spatial_out
        if self.heatmap_out and self.spatial is not None and network is not None:
            if self.spatial.samples:
                from repro.obs.heatmap import build_heatmap, write_heatmap_json

                payload = build_heatmap(
                    self.spatial,
                    network.mesh,
                    label=self._summary_label(config, offered_load),
                    window=self.spatial.sampled_window(self.window),
                    context={
                        "seed": seed,
                        "preset": preset,
                        "offered_load": offered_load,
                        "packet_length": packet_length,
                    },
                )
                write_heatmap_json(payload, self.heatmap_out)
                artifacts["heatmap"] = self.heatmap_out
        if self.attribution_out and self.attributor is not None:
            summary = self.attribution_summary(
                label=self._summary_label(config, offered_load)
            )
            if summary is not None:
                from repro.obs.report import write_attribution_json

                write_attribution_json(
                    [summary],
                    self.attribution_out,
                    context={
                        "seed": seed,
                        "preset": preset,
                        "offered_load": offered_load,
                        "packet_length": packet_length,
                    },
                )
                artifacts["attribution"] = self.attribution_out
        if self.profiler is not None:
            bench = self.profiler.report()
            if extra:
                bench = {**bench, **dict(extra)}
            write_manifest(bench, self.bench_out)
            artifacts["bench"] = self.bench_out
        if self.manifest_out:
            mesh = ""
            if network is not None:
                mesh = f"{network.mesh.width}x{network.mesh.height}"
            manifest = build_manifest(
                config=config,
                seed=seed,
                preset=preset,
                offered_load=offered_load,
                packet_length=packet_length,
                mesh=mesh,
                command=command,
                artifacts=artifacts,
                metrics_summary=self.registry.summary() if self.registry else None,
                spatial_summary=self.spatial.summary() if self.spatial else None,
                events_emitted=self.bus.events_emitted if self.collector else None,
                events_dropped=self.collector.dropped if self.collector else None,
            )
            write_manifest(manifest, self.manifest_out)
            artifacts["manifest"] = self.manifest_out
        return artifacts

    def declared_artifacts(self) -> dict[str, str]:
        """The artifact paths this session was asked to produce.

        Keyed like :meth:`finalize`'s return value; used by the harness to
        record artifact provenance in the run ledger before/without calling
        ``finalize`` itself.
        """
        declared: dict[str, str] = {}
        for kind, path in (
            ("events", self.events_out),
            ("trace", self.trace_out),
            ("metrics", self.metrics_out),
            ("spatial", self.spatial_out),
            ("heatmap", self.heatmap_out),
            ("attribution", self.attribution_out),
            ("manifest", self.manifest_out),
        ):
            if path:
                declared[kind] = path
        return declared

    def attribution_summary(self, label: str = "") -> AttributionSummary | None:
        """Roll the attributor's records up (None when nothing was recorded)."""
        if self.attributor is None or not self.attributor.records:
            return None
        from repro.obs.report import AttributionSummary

        return AttributionSummary.from_attributor(self.attributor, label=label)

    @staticmethod
    def _summary_label(config: Any, offered_load: float | None) -> str:
        name = getattr(config, "name", None) or type(config).__name__
        if offered_load is None:
            return str(name)
        return f"{name} load={offered_load:.2f}"
