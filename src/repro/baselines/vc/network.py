"""The complete virtual-channel network: routers, links, NIs, and the cycle loop.

Cycle phase order (identical reasoning for all network models):

1. switch arbitration and traversal -- uses state as of the end of the
   previous cycle, launches flits and credits onto links;
2. link delivery -- flits/credits launched at least one cycle ago arrive;
3. packet creation and NI injection;
4. routing and VC allocation for newly exposed head flits.

Because every inter-router link has delay >= 1, phases of different routers
never interact within a cycle, so the network walks the routers once per
phase without any event queue.
"""

from __future__ import annotations

from typing import Callable

from repro.baselines.vc.config import VCConfig
from repro.baselines.vc.flits import VCFlit
from repro.baselines.vc.interface import VCNodeInterface
from repro.baselines.vc.router import VCRouter
from repro.sim.link import Link
from repro.sim.netbase import NetworkModel, PacketAccounting
from repro.stats.collectors import OccupancyTracker
from repro.topology.mesh import WEST, Mesh2D, opposite_port


class VCNetwork(NetworkModel):
    """An 8x8 (by default) mesh under virtual-channel flow control."""

    def __init__(
        self,
        config: VCConfig,
        mesh: Mesh2D | None = None,
        packet_length: int = 5,
        injection_rate: float = 0.1,
        seed: int = 1,
        traffic: str = "uniform",
        injection_process: str = "periodic",
        track_occupancy_node: int | None = None,
        streaming: bool = False,
    ) -> None:
        mesh = mesh or Mesh2D(8, 8)
        super().__init__(
            mesh,
            packet_length=packet_length,
            injection_rate=injection_rate,
            seed=seed,
            traffic=traffic,
            injection_process=injection_process,
            streaming=streaming,
        )
        self.config = config
        self.routers = [
            VCRouter(
                node,
                config,
                self.routing,
                self.rng.spawn(20_000 + node),
                _ejector(node, self.accounting),
            )
            for node in mesh.nodes()
        ]
        self.interfaces = [
            VCNodeInterface(self.routers[node], config, self.rng.spawn(30_000 + node))
            for node in mesh.nodes()
        ]
        # Active-set worklists: one flag per router (gating all three router
        # phases -- the router re-raises it via accept_flit and link wakes)
        # and one per NI (raised at enqueue, lowered when its backlog
        # drains).  Everything starts active for a full first sweep.
        n = len(self.routers)
        self._active = bytearray(b"\x01" * n)
        self._ni_active = bytearray(b"\x01" * n)
        for node in mesh.nodes():
            self.routers[node].bind_activity(self._active, node)
        self._wire_links()
        self.occupancy: OccupancyTracker | None = None
        self._occupancy_node = track_occupancy_node
        if track_occupancy_node is not None:
            self.occupancy = OccupancyTracker(config.buffers_per_input)

    @property
    def flow_control_name(self) -> str:
        return self.config.name

    def _wire_links(self) -> None:
        for node in self.mesh.nodes():
            router = self.routers[node]
            for port in self.mesh.mesh_ports(node):
                neighbor = self.mesh.neighbor(node, port)
                data: Link[tuple[int, VCFlit]] = Link(self.config.data_link_delay)
                credit: Link[int] = Link(self.config.credit_link_delay)
                router.connect_output(port, data, credit)
                self.routers[neighbor].connect_input(opposite_port(port), data, credit)
                # Flit sends wake the neighbor, credit sends wake this router.
                data.set_wake(self._active, neighbor)
                credit.set_wake(self._active, node)

    def source_queue_length(self, node: int) -> int:
        return self.interfaces[node].queue_length

    def step(self, cycle: int) -> None:
        # Active-set sweep: full eval_order walks (deterministic iteration
        # order untouched) stepping only flagged nodes.  One flag gates all
        # three router phases; route_and_allocate runs last and computes the
        # activity predicate.  Skipping an idle router is digest-identical to
        # stepping it: an empty phase mutates nothing and draws no randomness.
        for node in self.eval_order:
            if self._active[node]:
                self.routers[node].deliver_credits(cycle)
                self.routers[node].switch_traversal(cycle)
        for node in self.eval_order:
            if self._active[node]:
                self.routers[node].deliver_flits(cycle)
        for packet in self._create_packets(cycle):
            source = packet.source
            self.interfaces[source].enqueue(packet)
            self._ni_active[source] = 1
        for node in self.eval_order:
            if self._ni_active[node] and not self.interfaces[node].inject(cycle):
                self._ni_active[node] = 0
        for node in self.eval_order:
            if self._active[node] and not self.routers[node].route_and_allocate(cycle):
                self._active[node] = 0
        if self.occupancy is not None:
            self._sample_occupancy(cycle)

    def rearm_activity(self) -> None:
        """Mark every component active (next cycle is a full dense sweep).

        Worklist flags are a pure performance device -- raising them all is
        always safe and is how tests force dense stepping for equivalence
        checks.
        """
        n = len(self.routers)
        self._active[:] = b"\x01" * n
        self._ni_active[:] = b"\x01" * n

    def _sample_occupancy(self, cycle: int) -> None:
        """Track the west input of the chosen router, as in Section 4.2's
        'specific buffer pool of a router in the middle of the mesh'."""
        router = self.routers[self._occupancy_node]
        self.occupancy.record(
            min(router.buffered_flits(WEST), self.occupancy.pool_size), cycle
        )

    def track_occupancy(self, node: int) -> OccupancyTracker:
        """Start tracking ``node``'s west input pool, mid-run safe.

        Sampling begins at the end of the next executed cycle; the
        cycle-stamped :meth:`OccupancyTracker.record` guarantees the attach
        boundary cycle is never counted twice.
        """
        if self.occupancy is None or self._occupancy_node != node:
            self.occupancy = OccupancyTracker(self.config.buffers_per_input)
            self._occupancy_node = node
        return self.occupancy


def _ejector(node: int, accounting: PacketAccounting) -> Callable[[VCFlit, int], None]:
    """A router's eject callback; it captures the accounting object, never
    the network (see "Ownership rule" in :mod:`repro.sim.netbase`)."""

    def eject(flit: VCFlit, cycle: int) -> None:
        if flit.packet.destination != node:
            raise RuntimeError(
                f"misdelivery: {flit!r} ejected at node {node}, "
                f"destination {flit.packet.destination}"
            )
        accounting.eject_flit(flit.packet, cycle)

    return eject
