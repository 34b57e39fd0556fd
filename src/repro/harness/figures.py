"""Regenerate the paper's figures (as data series; the curves are printed as
text tables, matching the repository's no-plotting-dependency constraint).

Each function returns a :class:`FigureResult` whose ``curves`` hold the same
series the corresponding figure plots.  Default load grids are chosen so the
flat region, the knee and the blow-up of each curve are all visible while
keeping run time sane; callers can override them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.baselines.vc.config import VC8, VC16, VC32
from repro.core.config import FR6, FR13
from repro.harness.experiment import AnyConfig, run_experiment
from repro.harness.parallel import prewarming
from repro.harness.presets import MeasurementPreset
from repro.harness.sweep import LoadSweepResult, run_load_sweep, sweep_calls

if TYPE_CHECKING:
    from repro.obs.ledger import RunLedger

#: Offered loads (fraction of capacity) spanning each figure's x-axis.
DEFAULT_LOADS_5FLIT = [0.10, 0.30, 0.45, 0.55, 0.63, 0.70, 0.77, 0.83, 0.88]
DEFAULT_LOADS_21FLIT = [0.10, 0.30, 0.45, 0.55, 0.60, 0.65, 0.70, 0.76]


@dataclass
class FigureResult:
    """The data series behind one of the paper's figures."""

    figure_id: str
    title: str
    curves: list[LoadSweepResult] = field(default_factory=list)
    notes: dict[str, float | None] = field(default_factory=dict)

    def curve(self, name: str) -> LoadSweepResult:
        for curve in self.curves:
            if curve.config_name == name:
                return curve
        raise KeyError(f"no curve named {name!r} in {self.figure_id}")

    def format(self) -> str:
        lines = [f"{self.figure_id}: {self.title}", ""]
        for curve in self.curves:
            lines.append(curve.format_table())
            lines.append("")
        for key, value in self.notes.items():
            lines.append(f"note: {key} = {value}")
        return "\n".join(lines)


def _curves(
    configs: list[AnyConfig],
    loads: list[float],
    ledger: Optional["RunLedger"],
    jobs: Optional[int],
    **kwargs: Any,
) -> list[LoadSweepResult]:
    """One sweep per configuration.  With a ledger, the cold points of *all*
    the curves go to one process pool first; each sweep then replays."""
    calls = [call for config in configs for call in sweep_calls(config, loads, **kwargs)]
    with prewarming(ledger, calls, jobs):
        return [
            run_load_sweep(config, loads, ledger=ledger, jobs=1, **kwargs)
            for config in configs
        ]


def figure5(
    preset: str | MeasurementPreset = "standard",
    seed: int = 1,
    loads: list[float] | None = None,
    check_invariants: bool = False,
    ledger: Optional["RunLedger"] = None,
    jobs: Optional[int] = None,
) -> FigureResult:
    """Latency vs offered traffic, 5-flit packets, fast control (Figure 5)."""
    return FigureResult(
        "Figure 5",
        "latency vs offered traffic, 5-flit packets (fast control)",
        _curves(
            [VC8, VC16, FR6, FR13], loads or DEFAULT_LOADS_5FLIT, ledger, jobs,
            packet_length=5, seed=seed, preset=preset, check_invariants=check_invariants,
        ),
    )


def figure6(
    preset: str | MeasurementPreset = "standard",
    seed: int = 1,
    loads: list[float] | None = None,
    check_invariants: bool = False,
    ledger: Optional["RunLedger"] = None,
    jobs: Optional[int] = None,
) -> FigureResult:
    """Latency vs offered traffic, 21-flit packets, fast control (Figure 6)."""
    return FigureResult(
        "Figure 6",
        "latency vs offered traffic, 21-flit packets (fast control)",
        _curves(
            [VC8, VC32, FR6, FR13], loads or DEFAULT_LOADS_21FLIT, ledger, jobs,
            packet_length=21, seed=seed, preset=preset, check_invariants=check_invariants,
        ),
    )


def figure7(
    preset: str | MeasurementPreset = "standard",
    seed: int = 1,
    loads: list[float] | None = None,
    horizons: tuple[int, ...] = (16, 32, 64, 128),
    check_invariants: bool = False,
    ledger: Optional["RunLedger"] = None,
    jobs: Optional[int] = None,
) -> FigureResult:
    """FR6 sensitivity to the scheduling horizon (Figure 7)."""
    curves = _curves(
        [FR6.with_horizon(horizon) for horizon in horizons],
        loads or DEFAULT_LOADS_5FLIT, ledger, jobs,
        packet_length=5, seed=seed, preset=preset, check_invariants=check_invariants,
    )
    for sweep, horizon in zip(curves, horizons):
        sweep.config_name = f"FR6/s={horizon}"
    return FigureResult(
        "Figure 7",
        "flit-reservation latency vs offered traffic, horizon 16..128 (FR6)",
        curves,
    )


def figure8(
    preset: str | MeasurementPreset = "standard",
    seed: int = 1,
    loads: list[float] | None = None,
    leads: tuple[int, ...] = (1, 2, 4),
    check_invariants: bool = False,
    ledger: Optional["RunLedger"] = None,
    jobs: Optional[int] = None,
) -> FigureResult:
    """FR6 with leading control, lead = 1/2/4 cycles, 1-cycle wires (Figure 8)."""
    curves = _curves(
        [FR6.with_leading_control(lead) for lead in leads],
        loads or DEFAULT_LOADS_5FLIT, ledger, jobs,
        packet_length=5, seed=seed, preset=preset, check_invariants=check_invariants,
    )
    for sweep, lead in zip(curves, leads):
        sweep.config_name = f"FR6/lead={lead}"
    return FigureResult(
        "Figure 8",
        "flit-reservation with control leading data by 1, 2 and 4 cycles",
        curves,
    )


def figure9(
    preset: str | MeasurementPreset = "standard",
    seed: int = 1,
    loads: list[float] | None = None,
    check_invariants: bool = False,
    ledger: Optional["RunLedger"] = None,
    jobs: Optional[int] = None,
) -> FigureResult:
    """FR6 (1-cycle lead) vs VC8/VC16 on 1-cycle wires, 5-flit pkts (Figure 9)."""
    curves = _curves(
        [FR6.with_leading_control(1), VC8.with_unit_links(), VC16.with_unit_links()],
        loads or DEFAULT_LOADS_5FLIT, ledger, jobs,
        packet_length=5, seed=seed, preset=preset, check_invariants=check_invariants,
    )
    curves[0].config_name = "FR6/lead=1"
    return FigureResult(
        "Figure 9",
        "leading control vs virtual-channel flow control, 1-cycle wires",
        curves,
    )


def section42_occupancy(
    preset: str | MeasurementPreset = "standard",
    seed: int = 1,
    fr_load: float = 0.60,
    vc_load: float = 0.56,
    check_invariants: bool = False,
) -> FigureResult:
    """Section 4.2's buffer-pool occupancy study with 21-flit packets.

    Near saturation, FR6's tracked buffer pool is full ~40% of the time
    while VC8 saturates with its pool full under 5% of the time -- FR keeps
    buffers *working* rather than idling in turnaround.
    """
    center = 8 * 3 + 4  # a router in the middle of the 8x8 mesh
    fr_point = run_experiment(
        FR6,
        fr_load,
        packet_length=21,
        seed=seed,
        preset=preset,
        check_invariants=check_invariants,
        track_occupancy_node=center,
    )
    vc_point = run_experiment(
        VC8,
        vc_load,
        packet_length=21,
        seed=seed,
        preset=preset,
        check_invariants=check_invariants,
        track_occupancy_node=center,
    )
    result = FigureResult(
        "Section 4.2",
        "buffer pool occupancy near saturation (21-flit packets)",
    )
    result.notes["FR6 fraction of cycles pool full"] = fr_point.extras.get(
        "pool_fraction_full"
    )
    result.notes["VC8 fraction of cycles pool full"] = vc_point.extras.get(
        "pool_fraction_full"
    )
    result.notes["FR6 mean occupancy"] = fr_point.extras.get("pool_mean_occupancy")
    result.notes["VC8 mean occupancy"] = vc_point.extras.get("pool_mean_occupancy")
    return result


def section44_control_lead(
    preset: str | MeasurementPreset = "standard",
    seed: int = 1,
    load: float = 0.77,
    leads: tuple[int, ...] = (1, 4),
    check_invariants: bool = False,
) -> FigureResult:
    """Section 4.4's control-lead study: how far ahead control flits arrive.

    The paper reports ~14 cycles of lead at 77% load with a 1-cycle
    injection lead, barely different from the 4-cycle-lead case -- the lead
    is created by data-network congestion, not by the injection offset.
    """
    result = FigureResult(
        "Section 4.4",
        "control flit lead over data flits at the destination (1-cycle wires)",
    )
    for lead in leads:
        point = run_experiment(
            FR6.with_leading_control(lead),
            load,
            packet_length=5,
            seed=seed,
            preset=preset,
            check_invariants=check_invariants,
            track_control_lead=True,
        )
        result.notes[f"lead={lead} mean control lead (cycles)"] = point.extras.get(
            "mean_control_lead"
        )
        result.notes[f"lead={lead} mean latency"] = point.mean_latency
    return result
