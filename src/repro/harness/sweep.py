"""Load sweeps: the latency-versus-offered-traffic curves of Figures 5-9."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.harness.experiment import AnyConfig, ExperimentResult, run_experiment
from repro.harness.parallel import Call, prewarming
from repro.harness.presets import MeasurementPreset

if TYPE_CHECKING:
    from repro.obs.ledger import RunLedger
    from repro.obs.progress import ProgressReporter
    from repro.obs.report import AttributionSummary
    from repro.obs.session import ObsSession


@dataclass
class PointTelemetry:
    """Per-point health facts a multi-point run must not hide.

    ``events_dropped`` > 0 means an observer's capacity bound truncated its
    stream for that point; ``profile`` is the point's SimProfiler report
    (phase wall times) when one ran; ``cache_hit`` marks points replayed
    from the run ledger instead of simulated.
    """

    offered_load: float
    cache_hit: bool = False
    events_dropped: int = 0
    profile: Optional[dict[str, Any]] = None


@dataclass
class LoadSweepResult:
    """One latency-throughput curve: a configuration swept over loads."""

    config_name: str
    packet_length: int
    points: list[ExperimentResult] = field(default_factory=list)
    #: One attribution rollup per point (populated when ``attribute`` was
    #: requested) -- where each added cycle of latency goes as load rises.
    attribution: list["AttributionSummary"] = field(default_factory=list)
    #: One health record per point (cache hits, dropped events, phase
    #: timings); populated whenever the sweep ran observed or ledgered.
    telemetry: list[PointTelemetry] = field(default_factory=list)

    def latencies(self) -> list[float]:
        return [point.mean_latency for point in self.points]

    def latency_at(self, load: float) -> float:
        """Mean latency at the sweep point closest to ``load``."""
        if not self.points:
            raise ValueError("empty sweep")
        closest = min(self.points, key=lambda p: abs(p.offered_load - load))
        return closest.mean_latency

    def rows(self) -> list[tuple[float, float, float]]:
        """(offered, accepted, latency) triples, ready for printing."""
        return [
            (p.offered_load, p.accepted_load, p.mean_latency) for p in self.points
        ]

    def format_table(self) -> str:
        lines = [
            f"{self.config_name} ({self.packet_length}-flit packets)",
            f"{'offered':>8} {'accepted':>9} {'latency':>9}",
        ]
        for offered, accepted, latency in self.rows():
            lines.append(f"{offered:>8.2f} {accepted:>9.3f} {latency:>9.1f}")
        return "\n".join(lines)

    def cache_hits(self) -> int:
        return sum(1 for record in self.telemetry if record.cache_hit)

    def events_dropped(self) -> int:
        """Total events lost across every point -- zero means lossless."""
        return sum(record.events_dropped for record in self.telemetry)

    def format_health(self) -> str:
        """Per-point source (cache/simulated), drops, and phase timings.

        The sweep-level view of what used to be buried in per-point
        manifests: a lossy or slow point is visible at a glance.
        """
        lines = [
            f"{self.config_name} sweep health "
            f"({self.cache_hits()}/{len(self.telemetry)} cache hits, "
            f"{self.events_dropped()} events dropped)",
            f"{'offered':>8} {'source':>10} {'dropped':>8} {'c/s':>9}  phases",
        ]
        for record in self.telemetry:
            source = "cache" if record.cache_hit else "simulated"
            rate = ""
            phases = ""
            if record.profile:
                rate = f"{record.profile.get('cycles_per_second', 0.0):.0f}"
                phase_map = record.profile.get("phases", {})
                phases = " ".join(
                    f"{name}={phase_map[name]['wall_seconds']:.2f}s"
                    for name in ("warmup", "sample", "drain")
                    if name in phase_map
                )
            lines.append(
                f"{record.offered_load:>8.2f} {source:>10} "
                f"{record.events_dropped:>8d} {rate:>9}  {phases}"
            )
        return "\n".join(lines)


def run_load_sweep(
    config: AnyConfig,
    loads: list[float],
    packet_length: int = 5,
    seed: int = 1,
    preset: str | MeasurementPreset = "standard",
    stop_when_saturated: bool = True,
    attribute: bool = False,
    ledger: Optional["RunLedger"] = None,
    progress: Optional["ProgressReporter"] = None,
    heatmap_out: Optional[str] = None,
    jobs: Optional[int] = None,
    **kwargs: Any,
) -> LoadSweepResult:
    """Measure one configuration across ascending offered loads.

    When ``stop_when_saturated`` is set, the sweep records one point past
    saturation (so the curve shows the blow-up) and stops, saving the cost
    of deeply oversaturated runs that add nothing to the figure.

    With ``attribute`` each point runs with a latency attributor attached
    and the result carries one attribution summary per point, so the sweep
    shows which component absorbs the added latency as load rises.

    With ``ledger`` each point consults the content-addressed run ledger
    first: verified hits replay recorded results byte-identically (zero
    simulation), misses simulate and record -- an interrupted sweep rerun
    against the same store resumes exactly where it stopped.  ``progress``
    attaches a heartbeat reporter to every simulated point and brackets
    points for ETA accounting; both leave results bit-identical to a bare
    sweep.  ``jobs`` worker processes simulate a ledgered sweep's cold points
    side by side (default: one per point up to the CPUs available) and the
    serial loop replays their records; what the sweep returns, prints and
    counts is what ``jobs=1``, the in-process path, would
    (:mod:`repro.harness.parallel`).

    With ``heatmap_out`` every simulated point runs with a spatial metrics
    registry attached and the sweep writes one ``frfc-heatmap/1`` payload
    with one frame per point (the spatial evolution of congestion as load
    rises).  Points replayed from the ledger were never simulated, so they
    contribute no frame, which is why a heatmap sweep always runs in-process.
    """
    calls = sweep_calls(
        config, loads, packet_length=packet_length, seed=seed, preset=preset,
        stop_when_saturated=stop_when_saturated, attribute=attribute, **kwargs,
    )
    with prewarming(ledger, calls, 1 if heatmap_out is not None else jobs):
        return _sweep(
            config, loads, packet_length, seed, preset, stop_when_saturated,
            attribute, ledger, progress, heatmap_out, **kwargs,
        )


def sweep_calls(
    config: AnyConfig,
    loads: list[float],
    stop_when_saturated: bool = True,
    **kwargs: Any,
) -> list[Call]:
    """The distinct points of one sweep, ascending, as pool workers run them."""
    curve = object() if stop_when_saturated else None
    return [
        Call(_worker_point, config, (load,), kwargs, curve)
        for load in sorted(dict.fromkeys(loads))
    ]


def _worker_point(
    config: AnyConfig, load: float, attribute: bool = False, **kwargs: Any
) -> ExperimentResult:
    """One sweep point under the session the serial loop would give it
    (heartbeats stay with the parent's reporter)."""
    return run_experiment(
        config, load, obs=_point_session(attribute=attribute), **kwargs
    )


def _sweep(
    config: AnyConfig,
    loads: list[float],
    packet_length: int,
    seed: int,
    preset: str | MeasurementPreset,
    stop_when_saturated: bool,
    attribute: bool,
    ledger: Optional["RunLedger"],
    progress: Optional["ProgressReporter"],
    heatmap_out: Optional[str],
    **kwargs: Any,
) -> LoadSweepResult:
    """The serial sweep loop: simulate or replay each point in turn."""
    result = LoadSweepResult(config_name="", packet_length=packet_length)
    ordered = sorted(loads)
    observed = (
        attribute or ledger is not None or progress is not None
        or heatmap_out is not None
    )
    frames: list[dict[str, Any]] = []
    frame_registry = None
    for index, load in enumerate(ordered):
        session = (
            _point_session(
                attribute=attribute,
                progress=progress,
                spatial=heatmap_out is not None,
            )
            if observed
            else None
        )
        if progress is not None:
            progress.begin_point(
                index=index + 1, total=len(ordered), label=f"load={load:.2f}"
            )
        point = run_experiment(
            config,
            load,
            packet_length=packet_length,
            seed=seed,
            preset=preset,
            obs=session,
            ledger=ledger,
            **kwargs,
        )
        hit = ledger is not None and ledger.last_hit
        result.config_name = point.config_name
        result.points.append(point)
        if observed:
            result.telemetry.append(_point_telemetry(load, hit, session, ledger))
        if attribute:
            summary = _point_attribution(
                f"{point.config_name} load={load:.2f}", session, ledger
            )
            if summary is not None:
                result.attribution.append(summary)
        if (
            heatmap_out is not None
            and session is not None
            and session.spatial is not None
            and session.spatial.samples
            and session.spatial.network is not None
        ):
            from repro.obs.heatmap import build_frame

            frames.append(
                build_frame(
                    session.spatial,
                    session.spatial.network.mesh,
                    label=f"{point.config_name} load={load:.2f}",
                    window=session.spatial.sampled_window(session.window),
                )
            )
            frame_registry = session.spatial
        if progress is not None:
            progress.end_point(cache_hit=hit, summary=point.summary())
        if stop_when_saturated and point.saturated:
            break
    if heatmap_out and frames and frame_registry is not None:
        from repro.obs.heatmap import assemble_heatmap, write_heatmap_json

        network = frame_registry.network
        if network is not None:
            payload = assemble_heatmap(
                frame_registry,
                network.mesh,
                frames,
                context={"seed": seed, "packet_length": packet_length},
            )
            write_heatmap_json(payload, heatmap_out)
    return result


def _point_telemetry(
    load: float,
    hit: bool,
    session: "ObsSession | None",
    ledger: "RunLedger | None",
) -> PointTelemetry:
    """Health facts for one point: from its ledger record when it has one
    (replayed, simulated here, or simulated by a pool worker -- the record
    holds the simulating session's numbers either way), else from the live
    session."""
    if ledger is not None and ledger.last_record is not None:
        return PointTelemetry(
            offered_load=load,
            cache_hit=hit,
            events_dropped=ledger.last_events_dropped(),
            profile=ledger.last_profile(),
        )
    return PointTelemetry(
        offered_load=load,
        cache_hit=False,
        events_dropped=session.events_dropped if session is not None else 0,
        profile=session.profiler.report()
        if session is not None and session.profiler is not None
        else None,
    )


def _point_attribution(
    label: str, session: "ObsSession | None", ledger: "RunLedger | None"
) -> "AttributionSummary | None":
    """One point's attribution rollup, from the same source as its telemetry:
    a ledgered point reads its record (the simulation may have run in a pool
    worker, not under ``session``), any other its live session."""
    if ledger is not None and ledger.last_record is not None:
        return ledger.last_attribution()
    return session.attribution_summary(label=label) if session is not None else None


def _attribution_session() -> "ObsSession":
    """An ObsSession that only attributes: no artifacts, no manifest."""
    from repro.obs.session import ObsSession

    return ObsSession(attribution_out="", manifest_out="")


def _point_session(
    attribute: bool = False,
    progress: Optional["ProgressReporter"] = None,
    spatial: bool = False,
) -> "ObsSession":
    """The per-point session of an observed sweep: profiled, artifact-free,
    attributing/spatially sampling when asked, forwarding heartbeats when a
    reporter is given."""
    from repro.obs.session import ObsSession

    return ObsSession(
        attribution_out="" if attribute else None,
        heatmap_out="" if spatial else None,
        manifest_out="",
        bench_out="",
        profile=True,
        progress=progress,
    )
