"""Run one configuration at one offered load and measure it.

The measurement methodology follows the paper (Section 4): warm up until the
network-wide mean source queue length stabilises (with a minimum warm-up),
then tag every packet created during a sample window, keep injecting, and
run until the entire tagged sample has been delivered.  Latency spans packet
creation to last-flit ejection, including source queueing.  Accepted
throughput is counted over the same window.  A run whose tagged sample fails
to drain within the preset's deadline is reported as saturated rather than
raising, since offered loads beyond saturation are legitimate experimental
points (that is where the latency curves go vertical).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.baselines.vc.config import VCConfig
from repro.baselines.vc.network import VCNetwork
from repro.baselines.wormhole.network import WormholeConfig, WormholeNetwork
from repro.core.config import FRConfig
from repro.core.network import FRNetwork
from repro.harness.presets import MeasurementPreset, get_preset
from repro.sim.kernel import Simulator
from repro.sim.netbase import NetworkModel
from repro.stats.warmup import WarmupDetector
from repro.topology.mesh import Mesh2D
from repro.traffic.patterns import TrafficPattern

if TYPE_CHECKING:
    from repro.obs.ledger import RunLedger
    from repro.obs.session import ObsSession

AnyConfig = Union[VCConfig, FRConfig, WormholeConfig]


@dataclass
class ExperimentResult:
    """Everything measured in one run at one offered load."""

    config_name: str
    offered_load: float  # fraction of network capacity
    injection_rate: float  # packets/node/cycle actually asked of the sources
    packet_length: int
    seed: int
    accepted_load: float  # fraction of capacity actually delivered
    mean_latency: float
    latency_ci_halfwidth: float
    p95_latency: float
    packets_measured: int
    cycles_simulated: int
    warmup_cycles: int
    saturated: bool
    extras: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        flag = " SATURATED" if self.saturated else ""
        return (
            f"{self.config_name} load={self.offered_load:.2f} "
            f"accepted={self.accepted_load:.3f} latency={self.mean_latency:.1f}"
            f"+-{self.latency_ci_halfwidth:.1f} (n={self.packets_measured}){flag}"
        )


def build_network(
    config: AnyConfig,
    offered_load: float,
    packet_length: int = 5,
    seed: int = 1,
    mesh: Mesh2D | None = None,
    traffic: str | TrafficPattern = "uniform",
    injection_process: str = "periodic",
    **network_kwargs: Any,
) -> NetworkModel:
    """Construct the right network model for a flow-control configuration.

    ``offered_load`` is a fraction of the mesh's uniform-traffic capacity;
    it is converted to a per-node packet injection rate here.
    """
    if offered_load <= 0:
        raise ValueError(f"offered load must be positive, got {offered_load}")
    mesh = mesh or Mesh2D(8, 8)
    rate = offered_load * mesh.capacity_flits_per_node() / packet_length
    if rate > 1.0:
        raise ValueError(
            f"offered load {offered_load} needs {rate:.2f} packets/node/cycle; "
            "sources cannot create more than one packet per cycle"
        )
    common = dict(
        mesh=mesh,
        packet_length=packet_length,
        injection_rate=rate,
        seed=seed,
        traffic=traffic,
        injection_process=injection_process,
        **network_kwargs,
    )
    if isinstance(config, FRConfig):
        return FRNetwork(config, **common)
    if isinstance(config, WormholeConfig):
        return WormholeNetwork(config, **common)
    if isinstance(config, VCConfig):
        return VCNetwork(config, **common)
    raise TypeError(f"unknown configuration type {type(config).__name__}")


def run_experiment(
    config: AnyConfig,
    offered_load: float,
    packet_length: int = 5,
    seed: int = 1,
    preset: str | MeasurementPreset = "standard",
    mesh: Mesh2D | None = None,
    traffic: str | TrafficPattern = "uniform",
    injection_process: str = "periodic",
    check_invariants: bool = False,
    obs: Optional["ObsSession"] = None,
    ledger: Optional["RunLedger"] = None,
    **network_kwargs: Any,
) -> ExperimentResult:
    """Warm up, sample, drain, and report one (config, load) point.

    With ``check_invariants`` the run is *sanitized*: an
    :class:`~repro.sim.invariants.InvariantChecker` verifies the network's
    conservation laws after every cycle and aborts on the first violation.
    With ``obs`` the run is *observed*: the session's probe and metrics
    sampler attach before warm-up and its profiler splits wall time into
    warmup/sample/drain; the caller finalizes artifacts afterwards.
    With ``ledger`` the run is *memoised*: the point's pre-execution
    identity (config + load + seed + preset + code digest) is
    looked up in the content-addressed run ledger, a verified hit replays
    the recorded result byte-identically without simulating, and a miss
    simulates then records -- so interrupted sweeps resume for free.
    """
    preset = get_preset(preset)
    mesh = mesh or Mesh2D(8, 8)
    identity = None
    if ledger is not None:
        identity = ledger.experiment_identity(
            config=config,
            offered_load=offered_load,
            packet_length=packet_length,
            seed=seed,
            preset=preset,
            mesh=mesh,
            traffic=traffic,
            injection_process=injection_process,
            check_invariants=check_invariants,
            network_kwargs=network_kwargs,
        )
        record = ledger.lookup(identity)
        if record is not None:
            return ledger.replay_experiment(record)
    network = build_network(
        config,
        offered_load,
        packet_length=packet_length,
        seed=seed,
        mesh=mesh,
        traffic=traffic,
        injection_process=injection_process,
        **network_kwargs,
    )
    checker = None
    if check_invariants:
        from repro.sim.invariants import InvariantChecker

        checker = InvariantChecker()
    if obs is not None:
        obs.attach(network)
        simulator = Simulator(
            network, checker=checker, observers=obs.observers, profiler=obs.profiler
        )
        obs.enter_phase("warmup")
    else:
        simulator = Simulator(network, checker=checker)
    try:
        warmup_end = _warm_up(network, simulator, preset)
        sample_end = warmup_end + preset.sample_cycles
        network.set_measure_window(warmup_end, sample_end)
        if obs is not None:
            obs.note_window(warmup_end, sample_end)
            obs.enter_phase("sample")
        simulator.step(preset.sample_cycles)
        if obs is not None:
            obs.enter_phase("drain")
        saturated = not _drain(
            network, simulator, deadline=sample_end + preset.drain_cycles
        )
    finally:
        if obs is not None:
            obs.detach()
    result = _collect(
        network,
        simulator,
        offered_load=offered_load,
        seed=seed,
        warmup_cycles=warmup_end,
        saturated=saturated,
    )
    if ledger is not None and identity is not None:
        artifacts = obs.declared_artifacts() if obs is not None else None
        ledger.record_experiment(identity, result, obs=obs, artifacts=artifacts)
    return result


def _warm_up(network: NetworkModel, simulator: Simulator, preset: MeasurementPreset) -> int:
    detector = WarmupDetector(
        min_cycles=preset.min_warmup, window=preset.warmup_window
    )
    while simulator.cycle < preset.max_warmup:
        simulator.step()
        if detector.record(network.mean_source_queue_length(), simulator.cycle):
            break
    return simulator.cycle


def _drain(network: NetworkModel, simulator: Simulator, deadline: int) -> bool:
    """Keep injecting until the tagged sample is delivered; False on timeout."""
    while network.measured_outstanding > 0:
        if simulator.cycle >= deadline:
            return False
        simulator.step()
    return True


def _collect(
    network: NetworkModel,
    simulator: Simulator,
    offered_load: float,
    seed: int,
    warmup_cycles: int,
    saturated: bool,
) -> ExperimentResult:
    capacity = network.mesh.capacity_flits_per_node()
    stats = network.latency_stats
    have_latency = stats.count > 0
    extras: dict[str, float] = {}
    if isinstance(network, FRNetwork):
        extras["bypass_fraction"] = network.bypass_fraction()
        if network.data_flit_latency.count:
            extras["mean_data_flit_latency"] = network.data_flit_latency.mean
        if network.control_lead is not None and network.control_lead.count:
            extras["mean_control_lead"] = network.control_lead.mean_lead
    occupancy = network.occupancy
    if occupancy is not None and occupancy.cycles:
        extras["pool_fraction_full"] = occupancy.fraction_full
        extras["pool_mean_occupancy"] = occupancy.mean_occupancy
    return ExperimentResult(
        config_name=network.flow_control_name,
        offered_load=offered_load,
        injection_rate=network.injection_rate,
        packet_length=network.packet_length,
        seed=seed,
        accepted_load=network.throughput.flits_per_node_per_cycle / capacity,
        mean_latency=stats.mean if have_latency else math.inf,
        latency_ci_halfwidth=stats.confidence_halfwidth() if have_latency else math.inf,
        p95_latency=stats.percentile(95) if have_latency else math.inf,
        packets_measured=stats.count,
        cycles_simulated=simulator.cycle,
        warmup_cycles=warmup_cycles,
        saturated=saturated,
        extras=extras,
    )
