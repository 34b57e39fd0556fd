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
from repro.topology.mesh import Mesh2D, opposite_port


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
    ) -> None:
        mesh = mesh or Mesh2D(8, 8)
        super().__init__(
            mesh,
            packet_length=packet_length,
            injection_rate=injection_rate,
            seed=seed,
            traffic=traffic,
            injection_process=injection_process,
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
        # The phases as data (repro.sim.netbase).  One flag per router gates
        # the three router phases (raised by accept_flit and link sends,
        # lowered by route_and_allocate); packet creation sits between the
        # two sweeps of step().
        routers = self.routers
        active = self._phase(routers, VCRouter.switch_phase)
        self._phase(routers, VCRouter.deliver_flits, active)
        self._admission = self._phase(self.interfaces, VCNodeInterface.inject)
        self._phase(routers, VCRouter.route_and_allocate, active)
        self._switching, self._allocation = self.phases[:2], self.phases[2:]
        for router in routers:
            router.bind_activity(active)
        self._wire_links(active)
        self.input_buffers = config.buffers_per_input
        if track_occupancy_node is not None:
            self.track_occupancy(track_occupancy_node)

    @property
    def flow_control_name(self) -> str:
        return self.config.name

    def _wire_links(self, active: bytearray) -> None:
        for node in self.mesh.nodes():
            router = self.routers[node]
            for port in self.mesh.mesh_ports(node):
                neighbor = self.mesh.neighbor(node, port)
                data: Link[tuple[int, VCFlit]] = Link(self.config.data_link_delay)
                credit: Link[int] = Link(self.config.credit_link_delay)
                router.connect_output(port, data, credit)
                self.routers[neighbor].connect_input(opposite_port(port), data, credit)
                # Flit sends wake the neighbor, credit sends wake this router.
                data.set_wake(active, neighbor)
                credit.set_wake(active, node)

    def step(self, cycle: int) -> None:
        self._sweep(self._switching, cycle)
        self._admit_packets(cycle)
        self._sweep(self._allocation, cycle)
        self._sample_occupancy(cycle)


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
