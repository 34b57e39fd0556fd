"""Saturation throughput measurement.

The paper quotes each configuration's saturation as a percentage of
bisection bandwidth.  We measure it as the *accepted-throughput knee*: the
largest offered load the network still delivers in full.  Throughput-mode
runs (fixed measurement window, no sample drain) keep each probe cheap, and
a bisection between the last stable and first unstable load pins the knee
to a configurable resolution.  The plateau -- the maximum accepted load seen
at any probe, including oversaturated ones -- is reported alongside as a
robustness cross-check; for well-behaved networks knee and plateau agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Optional

from repro.harness.experiment import AnyConfig, run_experiment
from repro.harness.presets import MeasurementPreset, get_preset
from repro.harness.sweep import _attribution_session, _point_attribution
from repro.topology.mesh import Mesh2D

if TYPE_CHECKING:
    from repro.obs.ledger import RunLedger
    from repro.obs.progress import ProgressReporter
    from repro.obs.report import AttributionSummary
    from repro.obs.session import ObsSession


@dataclass
class SaturationResult:
    """Outcome of a saturation search for one configuration."""

    config_name: str
    packet_length: int
    knee: float  # largest offered load still delivered in full
    plateau: float  # maximum accepted load observed at any probe
    probes: list[tuple[float, float]] = field(default_factory=list)  # (offered, accepted)
    #: One attribution rollup per probe (populated when ``attribute`` was
    #: requested), sorted by offered load like ``probes``.
    attribution: list["AttributionSummary"] = field(default_factory=list)

    @property
    def saturation(self) -> float:
        """The headline number: saturation throughput as a capacity fraction."""
        return max(self.knee, self.plateau)


def measure_throughput(
    config: AnyConfig,
    offered_load: float,
    packet_length: int = 5,
    seed: int = 1,
    preset: str | MeasurementPreset = "standard",
    mesh: Mesh2D | None = None,
    check_invariants: bool = False,
    obs: Optional["ObsSession"] = None,
    ledger: Optional["RunLedger"] = None,
    **kwargs: Any,
) -> float:
    """Accepted load (fraction of capacity) at one offered load.

    A probe is an experiment that does not drain: ``run_experiment`` under
    the caller's preset with the sample window set to ``throughput_cycles``
    and a zero drain deadline (named ``<preset>/probe``, which is what
    ``frfc runs list`` shows), so oversaturated loads cost the same as light
    ones.  ``obs`` and ``ledger`` are ``run_experiment``'s: the probe's
    record is a full experiment record of that derived preset.
    """
    preset = get_preset(preset)
    probe = replace(
        preset,
        name=f"{preset.name}/probe",
        sample_cycles=preset.throughput_cycles,
        drain_cycles=0,
    )
    return run_experiment(
        config,
        offered_load,
        packet_length=packet_length,
        seed=seed,
        preset=probe,
        mesh=mesh,
        check_invariants=check_invariants,
        obs=obs,
        ledger=ledger,
        **kwargs,
    ).accepted_load


def find_saturation(
    config: AnyConfig,
    packet_length: int = 5,
    seed: int = 1,
    preset: str | MeasurementPreset = "standard",
    low: float = 0.30,
    high: float = 1.0,
    resolution: float = 0.02,
    delivery_tolerance: float = 0.03,
    attribute: bool = False,
    ledger: Optional["RunLedger"] = None,
    progress: Optional["ProgressReporter"] = None,
    **kwargs: Any,
) -> SaturationResult:
    """Bisect for the saturation knee of one configuration.

    ``low`` must be a load the network is expected to sustain (the default
    30% holds for every configuration in the paper); ``high`` an offered
    load at or beyond saturation.  A probe is *stable* when accepted is
    within ``delivery_tolerance`` of offered.

    With ``attribute`` every probe runs with a latency attributor attached
    and the result carries one attribution summary per probe -- the
    component mix on the way into saturation.

    With ``ledger`` each probe consults the content-addressed run ledger
    before simulating, so re-running a search -- or bisecting near a
    previously probed region -- replays verified recorded probes;
    ``progress`` brackets each probe in the heartbeat stream.
    """
    probes: list[tuple[float, float]] = []
    summaries: list[tuple[float, "AttributionSummary"]] = []

    def stable(load: float) -> bool:
        session = _attribution_session() if attribute else None
        if progress is not None:
            progress.begin_point(
                index=len(probes) + 1, total=0, label=f"probe load={load:.3f}"
            )
        accepted = measure_throughput(
            config,
            load,
            packet_length=packet_length,
            seed=seed,
            preset=preset,
            obs=session,
            ledger=ledger,
            **kwargs,
        )
        if progress is not None:
            progress.end_point(
                cache_hit=ledger is not None and ledger.last_hit,
                summary=f"accepted={accepted:.3f}",
            )
        probes.append((load, accepted))
        if attribute:
            summary = _point_attribution(f"{config.name} load={load:.2f}", session, ledger)
            if summary is not None:
                summaries.append((load, summary))
        return accepted >= load * (1.0 - delivery_tolerance)

    if not stable(low):
        raise ValueError(
            f"saturation search needs a stable lower bound; {low:.2f} already "
            "saturates -- pass a smaller `low`"
        )
    if stable(high):
        low = high
    else:
        while high - low > resolution:
            mid = (low + high) / 2
            if stable(mid):
                low = mid
            else:
                high = mid
    plateau = max(accepted for _, accepted in probes)
    return SaturationResult(
        config_name=config.name,
        packet_length=packet_length,
        knee=low,
        plateau=plateau,
        probes=sorted(probes),
        attribution=[summary for _, summary in sorted(summaries, key=lambda s: s[0])],
    )
