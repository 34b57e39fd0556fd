"""Shared scaffolding for complete network models.

Every flow-control scheme in the repository (virtual-channel, wormhole,
flit-reservation) is packaged as a *network model*: an 8x8-mesh-shaped object
with per-node packet sources, a per-cycle ``step``, and the measurement hooks
the experiment harness drives.  This module holds the common plumbing --
source construction, packet bookkeeping, measurement windows, ejection
accounting -- so each router model only implements its own cycle semantics.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.rng import DeterministicRng
from repro.stats.collectors import LatencyStats, ThroughputCounter
from repro.topology.mesh import Mesh2D
from repro.topology.routing import DimensionOrderRouting
from repro.traffic.injection import make_injection_process
from repro.traffic.packet import Packet
from repro.traffic.patterns import TrafficPattern, make_traffic_pattern
from repro.traffic.source import PacketSource


class NetworkModel:
    """Base class for a complete simulated network.

    Subclasses implement :meth:`step` (one clock cycle) and call
    :meth:`_eject_flit` whenever a flit leaves the network at its
    destination.  The base class owns packet creation, the measurement
    window, and the latency/throughput collectors.
    """

    def __init__(
        self,
        mesh: Mesh2D,
        packet_length: int,
        injection_rate: float,
        seed: int = 1,
        traffic: str | TrafficPattern = "uniform",
        injection_process: str = "periodic",
        streaming: bool = False,
    ) -> None:
        if injection_rate <= 0.0:
            raise ValueError(f"injection rate must be positive, got {injection_rate}")
        self.mesh = mesh
        self.routing = DimensionOrderRouting(mesh)
        self.packet_length = packet_length
        self.injection_rate = injection_rate
        self.rng = DeterministicRng(seed)
        if isinstance(traffic, TrafficPattern):
            self.pattern = traffic
        else:
            self.pattern = make_traffic_pattern(traffic, mesh)
        self._packet_counter = 0
        self.sources = [
            PacketSource(
                node=node,
                pattern=self.pattern,
                process=make_injection_process(
                    injection_process, injection_rate, self.rng.spawn(node)
                ),
                packet_length=packet_length,
                rng=self.rng.spawn(10_000 + node),
                next_packet_id=self._next_packet_id,
            )
            for node in self.mesh.nodes()
        ]
        # The order step() visits routers/interfaces within each phase.  The
        # phases must be order-independent: the order-permutation differ
        # (repro.analysis.permute) reverses and shuffles this list and
        # requires bit-identical results; it must remain a permutation of
        # the mesh nodes.
        self.eval_order = list(self.mesh.nodes())
        self.latency_stats = LatencyStats(streaming=streaming)
        self.throughput = ThroughputCounter(mesh.num_nodes)
        self.packets_in_flight: dict[int, Packet] = {}
        self.measured_outstanding = 0
        self.measured_delivered = 0
        self.packets_delivered = 0
        # Observability hooks (pure observers), called with (packet, cycle)
        # at creation and at last-flit ejection.
        self.on_packet_created: Optional[Callable[[Packet, int], None]] = None
        self.on_packet_delivered: Optional[Callable[[Packet, int], None]] = None

    # -- identity ----------------------------------------------------------

    @property
    def flow_control_name(self) -> str:
        """Human-readable flow control scheme name, e.g. 'VC8'."""
        raise NotImplementedError("network models must name their flow control scheme")

    def _next_packet_id(self) -> int:
        self._packet_counter += 1
        return self._packet_counter

    # -- measurement control ------------------------------------------------

    def set_measure_window(self, start: int, end: int) -> None:
        """Tag packets created in [start, end) as the measured sample."""
        for source in self.sources:
            source.measure_window = (start, end)
        self.throughput.set_window(start, end)

    def stop_injection(self) -> None:
        """Disable all sources (used while draining the measured sample)."""
        for source in self.sources:
            source.enabled = False

    def mean_source_queue_length(self) -> float:
        """Network-wide mean source queue length, the warm-up signal."""
        total = sum(self.source_queue_length(node) for node in self.mesh.nodes())
        return total / self.mesh.num_nodes

    def source_queue_length(self, node: int) -> int:
        """Packets waiting (or partially injected) at one node's interface."""
        raise NotImplementedError("network models must report per-node source queue lengths")

    # -- per-cycle hook -----------------------------------------------------

    def step(self, cycle: int) -> None:
        """Advance the whole network by one clock cycle."""
        raise NotImplementedError("network models must implement the per-cycle step")

    # -- shared bookkeeping -------------------------------------------------

    def _create_packets(self, cycle: int) -> list[Packet]:
        """Poll every source; register and return this cycle's new packets."""
        created: list[Packet] = []
        for source in self.sources:
            packet = source.maybe_create(cycle)
            if packet is None:
                continue
            self.packets_in_flight[packet.packet_id] = packet
            if packet.measured:
                self.measured_outstanding += 1
            if self.on_packet_created is not None:
                self.on_packet_created(packet, cycle)
            created.append(packet)
        return created

    def _eject_flit(self, packet: Packet, cycle: int) -> None:
        """Account one flit leaving the network at its destination."""
        self.throughput.record_flit(cycle)
        if packet.record_flit_delivery(cycle):
            self.packets_delivered += 1
            self.throughput.record_packet(cycle)
            del self.packets_in_flight[packet.packet_id]
            if packet.measured:
                self.measured_outstanding -= 1
                self.measured_delivered += 1
                self.latency_stats.record(packet.latency)
            if self.on_packet_delivered is not None:
                self.on_packet_delivered(packet, cycle)
