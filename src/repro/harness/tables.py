"""Regenerate the paper's tables.

* :func:`table1` -- storage overhead (analytical, exact);
* :func:`table2` -- bandwidth overhead per data flit (analytical, exact);
* :func:`table3` -- the experimental summary: base latency, latency at 50%
  capacity, and saturation throughput for every configuration in both the
  fast-control and leading-control regimes.  Table 3 is simulation-driven
  and accepts a measurement preset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.baselines.vc.config import VC8, VC16, VC32
from repro.core.config import FR6, FR13
from repro.harness.experiment import AnyConfig, run_experiment
from repro.harness.parallel import Call, prewarming
from repro.harness.presets import MeasurementPreset
from repro.harness.saturation import find_saturation
from repro.overhead.bandwidth import BandwidthOverhead, fr_bandwidth, vc_bandwidth
from repro.overhead.storage import FRStorageModel, StorageBreakdown, VCStorageModel

if TYPE_CHECKING:
    from repro.obs.ledger import RunLedger


def table1(flit_bits: int = 256, type_bits: int = 2) -> dict[str, dict[str, float]]:
    """Storage overhead per node for VC8/VC16/VC32 and FR6/FR13 (Table 1)."""
    vc_model = VCStorageModel(flit_bits=flit_bits, type_bits=type_bits)
    fr_model = FRStorageModel(flit_bits=flit_bits, type_bits=type_bits)
    rows: dict[str, dict[str, float]] = {}
    for config in (VC8, VC16, VC32):
        breakdown = vc_model.breakdown(config)
        rows[breakdown.name] = _storage_row(breakdown)
    for config in (FR6, FR13):
        breakdown = fr_model.breakdown(config)
        rows[breakdown.name] = _storage_row(breakdown)
    return rows


def _storage_row(breakdown: StorageBreakdown) -> dict[str, float]:
    return {
        "data_buffers": breakdown.data_buffers,
        "control_buffers": breakdown.control_buffers,
        "queue_pointers": breakdown.queue_pointers,
        "output_reservation_table": breakdown.output_reservation_table,
        "input_reservation_table": breakdown.input_reservation_table,
        "bits_per_node": breakdown.bits_per_node,
        "flits_per_input_channel": round(breakdown.flits_per_input_channel, 2),
    }


def format_table1(rows: dict[str, dict[str, float]]) -> str:
    components = [
        "data_buffers",
        "control_buffers",
        "queue_pointers",
        "output_reservation_table",
        "input_reservation_table",
        "bits_per_node",
        "flits_per_input_channel",
    ]
    names = list(rows)
    lines = ["Table 1: storage overhead (bits per node)"]
    header = f"{'component':<26}" + "".join(f"{name:>9}" for name in names)
    lines.append(header)
    for component in components:
        line = f"{component:<26}"
        for name in names:
            value = rows[name][component]
            line += f"{value:>9g}"
        lines.append(line)
    return "\n".join(lines)


def table2(
    packet_length: int = 5, destination_bits: int = 6, flit_bits: int = 256
) -> dict[str, dict[str, float]]:
    """Bandwidth overhead per data flit (Table 2), for the paper's pairings."""
    rows: dict[str, dict[str, float]] = {}
    for config in (VC8, VC16, VC32):
        overhead = vc_bandwidth(config, packet_length, destination_bits)
        rows[overhead.name] = _bandwidth_row(overhead, flit_bits)
    for config in (FR6, FR13):
        overhead = fr_bandwidth(config, packet_length, destination_bits)
        rows[overhead.name] = _bandwidth_row(overhead, flit_bits)
    return rows


def _bandwidth_row(overhead: BandwidthOverhead, flit_bits: int) -> dict[str, float]:
    return {
        "destination": round(overhead.destination, 3),
        "vcid": round(overhead.vcid, 3),
        "arrival_times": round(overhead.arrival_times, 3),
        "bits_per_data_flit": round(overhead.bits_per_data_flit, 3),
        "fraction_of_flit": round(overhead.fraction_of_flit(flit_bits), 4),
    }


def format_table2(rows: dict[str, dict[str, float]]) -> str:
    lines = ["Table 2: bandwidth overhead per data flit (bits)"]
    names = list(rows)
    header = f"{'component':<20}" + "".join(f"{name:>9}" for name in names)
    lines.append(header)
    for component in (
        "destination",
        "vcid",
        "arrival_times",
        "bits_per_data_flit",
        "fraction_of_flit",
    ):
        line = f"{component:<20}"
        for name in names:
            line += f"{rows[name][component]:>9g}"
        lines.append(line)
    return "\n".join(lines)


# -- Table 3: the experimental summary -------------------------------------------


@dataclass
class Table3Row:
    """One configuration's summary in one regime."""

    regime: str  # "fast" | "leading"
    config_name: str
    packet_length: int
    base_latency: float
    latency_at_50pct: float
    saturation: float


@dataclass
class Table3Result:
    rows: list[Table3Row] = field(default_factory=list)

    def find(self, regime: str, config_name: str, packet_length: int) -> Table3Row:
        for row in self.rows:
            if (
                row.regime == regime
                and row.config_name == config_name
                and row.packet_length == packet_length
            ):
                return row
        raise KeyError((regime, config_name, packet_length))

    def format(self) -> str:
        lines = [
            "Table 3: summary of experimental results",
            f"{'regime':<9}{'config':<8}{'pkt len':>8}{'base lat':>10}"
            f"{'lat@50%':>9}{'sat %cap':>10}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.regime:<9}{row.config_name:<8}{row.packet_length:>8}"
                f"{row.base_latency:>10.1f}{row.latency_at_50pct:>9.1f}"
                f"{row.saturation * 100:>9.0f}%"
            )
        return "\n".join(lines)


def fast_control_configs() -> list[AnyConfig]:
    """The paper's five fast-control configurations."""
    return [FR6, FR13, VC8, VC16, VC32]


def leading_control_configs(lead: int = 1) -> list[AnyConfig]:
    """The leading-control (1-cycle wire) variants of the same five."""
    fr_configs: list[AnyConfig] = [
        FR6.with_leading_control(lead),
        FR13.with_leading_control(lead),
    ]
    vc_configs: list[AnyConfig] = [
        VC8.with_unit_links(),
        VC16.with_unit_links(),
        VC32.with_unit_links(),
    ]
    return fr_configs + vc_configs


def table3(
    preset: str | MeasurementPreset = "standard",
    seed: int = 1,
    base_load: float = 0.05,
    packet_lengths: tuple[int, ...] = (5, 21),
    include_leading: bool = True,
    saturation_low: float = 0.25,
    check_invariants: bool = False,
    ledger: Optional["RunLedger"] = None,
    jobs: Optional[int] = None,
) -> Table3Result:
    """Measure every Table 3 cell.

    ``base_load`` is the near-zero offered load used for base latency (the
    paper reads it off the flat left end of each curve).  With ``ledger``
    every point and saturation probe is memoised, and when any is cold the
    rows go to ``jobs`` pool workers first (one row -- two points and a
    saturation search -- per task); the loop below then replays.
    """
    cells = [
        (config, "fast", length)
        for length in packet_lengths
        for config in fast_control_configs()
    ]
    if include_leading:
        cells += [(config, "leading", 5) for config in leading_control_configs(lead=1)]
    common = (base_load, preset, seed, saturation_low, check_invariants)
    calls = [
        Call(_table3_row, config, (regime, length, *common)) for config, regime, length in cells
    ]
    with prewarming(ledger, calls, jobs):
        return Table3Result(
            [
                _table3_row(config, regime, length, *common, ledger=ledger)
                for config, regime, length in cells
            ]
        )


def _table3_row(
    config: AnyConfig,
    regime: str,
    packet_length: int,
    base_load: float,
    preset: str | MeasurementPreset,
    seed: int,
    saturation_low: float,
    check_invariants: bool = False,
    ledger: Optional["RunLedger"] = None,
) -> Table3Row:
    base = run_experiment(
        config,
        base_load,
        packet_length=packet_length,
        seed=seed,
        preset=preset,
        check_invariants=check_invariants,
        ledger=ledger,
    )
    mid = run_experiment(
        config,
        0.50,
        packet_length=packet_length,
        seed=seed,
        preset=preset,
        check_invariants=check_invariants,
        ledger=ledger,
    )
    saturation = find_saturation(
        config,
        packet_length=packet_length,
        seed=seed,
        preset=preset,
        low=saturation_low,
        check_invariants=check_invariants,
        ledger=ledger,
    )
    return Table3Row(
        regime=regime,
        config_name=base.config_name,
        packet_length=packet_length,
        base_latency=base.mean_latency,
        latency_at_50pct=mid.mean_latency,
        saturation=saturation.saturation,
    )
