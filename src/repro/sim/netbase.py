"""Shared scaffolding for complete network models.

Every flow-control scheme in the repository (virtual-channel, wormhole,
flit-reservation) is packaged as a *network model*: an 8x8-mesh-shaped object
with per-node packet sources, a per-cycle ``step``, and the measurement hooks
the experiment harness drives.  This module holds the common plumbing --
source construction, packet bookkeeping, measurement windows, ejection
accounting, and the activity kernel that sweeps each model's phases (declared
as :class:`Phase` rows; docs/performance.md) -- so each router model only
implements its own cycle semantics.

Ownership rule: a component never references its owner.  The network holds
its routers, interfaces, sources and a :class:`PacketAccounting`; the eject
callbacks the routers hold capture that accounting object, never the
network, and the sources draw packet ids from a plain counter.  The object
graph is therefore acyclic, and reference counting frees a finished network
the moment its last reference goes, without waiting for a cyclic collection.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.sim.rng import DeterministicRng
from repro.stats.collectors import LatencyStats, OccupancyTracker, ThroughputCounter
from repro.topology.mesh import WEST, Mesh2D
from repro.topology.routing import DimensionOrderRouting
from repro.traffic.injection import make_injection_process
from repro.traffic.packet import Packet
from repro.traffic.patterns import TrafficPattern, make_traffic_pattern
from repro.traffic.source import PacketSource


class PacketAccounting:
    """Packet bookkeeping shared by a network and its eject callbacks.

    Holds the packets in flight, the delivery counters and the
    latency/throughput collectors.  A router's eject callback calls
    :meth:`eject_flit` on this object rather than on the network, which is
    what keeps the network's object graph free of cycles.
    """

    __slots__ = (
        "latency_stats",
        "throughput",
        "in_flight",
        "measured_outstanding",
        "measured_delivered",
        "packets_delivered",
        "on_packet_delivered",
    )

    def __init__(self, latency_stats: LatencyStats, throughput: ThroughputCounter) -> None:
        self.latency_stats = latency_stats
        self.throughput = throughput
        self.in_flight: dict[int, Packet] = {}
        self.measured_outstanding = 0
        self.measured_delivered = 0
        self.packets_delivered = 0
        # Observability hook (pure observer), called with (packet, cycle) at
        # last-flit ejection.
        self.on_packet_delivered: Optional[Callable[[Packet, int], None]] = None

    def eject_flit(self, packet: Packet, cycle: int) -> None:
        """Account one flit leaving the network at its destination."""
        self.throughput.record_flit(cycle)
        if packet.record_flit_delivery(cycle):
            self.packets_delivered += 1
            self.throughput.record_packet(cycle)
            del self.in_flight[packet.packet_id]
            if packet.measured:
                self.measured_outstanding -= 1
                self.measured_delivered += 1
                self.latency_stats.record(packet.latency)
            if self.on_packet_delivered is not None:
                self.on_packet_delivered(packet, cycle)


class Phase(NamedTuple):
    """One pipeline stage of a model's cycle, declared as data.

    ``run(components[node], cycle)`` steps one node's component and returns
    whether it still has work; a falsy return lowers ``flags[node]``.  ``run``
    is a plain class function, never a bound method (the ownership rule).
    Rows may share ``flags``: a ``run`` that always returns True leaves the
    lowering to a later row.
    """

    flags: bytearray
    components: Sequence[Any]
    run: Callable[[Any, int], Any]


class NetworkModel:
    """Base class for a complete simulated network.

    Subclasses build ``routers`` and ``interfaces`` (one per node), declare
    their phases with :meth:`_phase`, implement :meth:`step` (one clock
    cycle) from :meth:`_admit_packets` and :meth:`_sweep`, and hand their
    routers eject callbacks that call ``self.accounting.eject_flit`` --
    capturing the accounting object, not the network -- whenever a flit
    leaves the network at its destination.  The base class owns packet
    creation, the activity kernel, the measurement window, occupancy
    sampling, and the latency/throughput collectors.
    """

    routers: list[Any]
    interfaces: list[Any]
    input_buffers: int  # data flit buffers per router input (occupancy pool)
    _admission: bytearray  # flags of the phase that injects queued packets

    def __init__(
        self,
        mesh: Mesh2D,
        packet_length: int,
        injection_rate: float,
        seed: int = 1,
        traffic: str | TrafficPattern = "uniform",
        injection_process: str = "periodic",
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
        next_packet_id = itertools.count(1).__next__
        self.sources = [
            PacketSource(
                node=node,
                pattern=self.pattern,
                process=make_injection_process(
                    injection_process, injection_rate, self.rng.spawn(node)
                ),
                packet_length=packet_length,
                rng=self.rng.spawn(10_000 + node),
                next_packet_id=next_packet_id,
            )
            for node in self.mesh.nodes()
        ]
        # The order step() visits routers/interfaces within each phase.  The
        # phases must be order-independent: the order-permutation differ
        # (repro.analysis.permute) reverses and shuffles this list and
        # requires bit-identical results; it must remain a permutation of
        # the mesh nodes.
        self.eval_order = list(self.mesh.nodes())
        self.accounting = PacketAccounting(
            LatencyStats(), ThroughputCounter(mesh.num_nodes)
        )
        self.latency_stats = self.accounting.latency_stats
        self.throughput = self.accounting.throughput
        self.packets_in_flight = self.accounting.in_flight
        # Observability hook (pure observer), called with (packet, cycle) at
        # creation; the delivery twin lives on the accounting object.
        self.on_packet_created: Optional[Callable[[Packet, int], None]] = None
        # The cycle as data, in stage order (_phase).
        self.phases: tuple[Phase, ...] = ()
        self.occupancy: Optional[OccupancyTracker] = None
        self._occupancy_node = -1

    # -- identity ----------------------------------------------------------

    @property
    def flow_control_name(self) -> str:
        """Human-readable flow control scheme name, e.g. 'VC8'."""
        raise NotImplementedError("network models must name their flow control scheme")

    # -- delivery counters (read through the accounting object) ---------------

    @property
    def measured_outstanding(self) -> int:
        """Measured packets created but not yet delivered."""
        return self.accounting.measured_outstanding

    @property
    def measured_delivered(self) -> int:
        return self.accounting.measured_delivered

    @property
    def packets_delivered(self) -> int:
        return self.accounting.packets_delivered

    @property
    def on_packet_delivered(self) -> Optional[Callable[[Packet, int], None]]:
        return self.accounting.on_packet_delivered

    @on_packet_delivered.setter
    def on_packet_delivered(self, hook: Optional[Callable[[Packet, int], None]]) -> None:
        self.accounting.on_packet_delivered = hook

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
        return self.interfaces[node].queue_length

    # -- occupancy (Section 4.2) --------------------------------------------

    def track_occupancy(self, node: int) -> OccupancyTracker:
        """Start tracking ``node``'s west input pool, mid-run safe.

        Sampling begins at the end of the next executed cycle; the
        cycle-stamped :meth:`OccupancyTracker.record` guarantees the attach
        boundary cycle is never counted twice.
        """
        if self.occupancy is None or self._occupancy_node != node:
            self.occupancy = OccupancyTracker(self.input_buffers)
            self._occupancy_node = node
        return self.occupancy

    def _sample_occupancy(self, cycle: int) -> None:
        """Record the tracked router's west input, if any, as in Section 4.2's
        'specific buffer pool of a router in the middle of the mesh'."""
        if self.occupancy is not None:
            router = self.routers[self._occupancy_node]
            self.occupancy.record(router.buffered_flits(WEST), cycle)

    # -- per-cycle hook -----------------------------------------------------

    def step(self, cycle: int) -> None:
        """Advance the whole network by one clock cycle."""
        raise NotImplementedError("network models must implement the per-cycle step")

    # -- the activity kernel ------------------------------------------------

    def _phase(
        self,
        components: Sequence[Any],
        run: Callable[[Any, int], Any],
        flags: Optional[bytearray] = None,
    ) -> bytearray:
        """Append a row to :attr:`phases`; return its flags (fresh ones
        start up, so the first cycle is a full sweep)."""
        if flags is None:
            flags = bytearray(b"\x01" * self.mesh.num_nodes)
        self.phases += (Phase(flags, components, run),)
        return flags

    def _sweep(self, phases: Sequence[Phase], cycle: int) -> None:
        """Run ``phases`` in order over ``eval_order``, stepping only
        flagged nodes: a drained phase would change no state and draw no
        randomness, so skipping it is digest-identical to stepping it."""
        order = self.eval_order
        for flags, components, run in phases:
            for node in order:
                if flags[node] and not run(components[node], cycle):
                    flags[node] = 0

    def rearm_activity(self) -> None:
        """Raise every wake flag (the next cycle is a full dense sweep).

        The flags are a pure performance device -- raising them all is
        always safe and is how tests force dense stepping for equivalence
        checks.
        """
        for flags, _, _ in self.phases:
            flags[:] = b"\x01" * len(flags)

    def stall_report(self) -> str:
        """What a stuck run still holds: awake nodes per phase, oldest packet."""
        lines = [
            f"  {run.__qualname__} awake at nodes: "
            + (", ".join(str(node) for node, up in enumerate(flags) if up) or "none")
            for flags, _, run in self.phases
        ]
        lines.append(f"  {len(self.packets_in_flight)} packets in flight")
        if self.packets_in_flight:
            oldest = min(self.packets_in_flight.values(), key=lambda p: p.creation_cycle)
            lines[-1] += (
                f"; oldest #{oldest.packet_id} from node {oldest.source} to node "
                f"{oldest.destination}, created at cycle {oldest.creation_cycle}"
            )
        return "\n".join(lines)

    # -- shared bookkeeping -------------------------------------------------

    def _admit_packets(self, cycle: int) -> None:
        """Create this cycle's packets and queue each at its source's
        interface, raising the source's flag in the injection phase."""
        admission = self._admission
        for packet in self._create_packets(cycle):
            source = packet.source
            self.interfaces[source].enqueue(packet)
            admission[source] = 1

    def _create_packets(self, cycle: int) -> list[Packet]:
        """Poll every source; register and return this cycle's new packets."""
        created: list[Packet] = []
        for source in self.sources:
            packet = source.maybe_create(cycle)
            if packet is None:
                continue
            self.packets_in_flight[packet.packet_id] = packet
            if packet.measured:
                self.accounting.measured_outstanding += 1
            if self.on_packet_created is not None:
                self.on_packet_created(packet, cycle)
            created.append(packet)
        return created
