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

from itertools import islice
from typing import Callable

from repro.baselines.vc.config import VCConfig
from repro.baselines.vc.flits import VCFlit
from repro.baselines.vc.interface import VCNodeInterface
from repro.baselines.vc.router import VCRouter
from repro.sim.link import Link
from repro.sim.netbase import NetworkModel, PacketAccounting
from repro.topology.mesh import EJECT, PORT_NAMES, Mesh2D, opposite_port

#: Queued packet ids a stall report names per NI before it elides the rest.
_SHOWN_PACKETS = 8


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

    def stall_report(self) -> str:
        """The base report, then what the routers and NIs hold: the head flit
        of each non-empty input VC at every awake router, with its routed
        output, output VC and the credits left on that VC, and every NI's
        queued packets."""
        lines = [super().stall_report()]
        awake = self._switching[0].flags
        for router in self.routers:
            if not awake[router.node]:
                continue
            for port, queues in enumerate(router.in_queues):
                for vc, queue in enumerate(queues):
                    if not queue:
                        continue
                    flit = queue[0]
                    out_port = router.in_route[port][vc]
                    out_vc = router.in_out_vc[port][vc]
                    if out_port == -1:
                        route = "unrouted"
                    elif out_port == EJECT:
                        route = "output local (eject)"
                    else:
                        credits = router.out_credits[out_port][out_vc]
                        route = (
                            f"output {PORT_NAMES[out_port]} vc {out_vc}, "
                            f"{credits} credits left"
                        )
                    lines.append(
                        f"  router {router.node} {PORT_NAMES[port]} vc {vc}: head flit "
                        f"of packet #{flit.packet.packet_id} (head {flit.is_head}, "
                        f"tail {flit.is_tail}, {len(queue)} queued), {route}"
                    )
        for node, interface in enumerate(self.interfaces):
            if interface.queue_length:
                waiting = interface.packet_queue
                shown = [f"#{packet.packet_id}" for packet in islice(waiting, _SHOWN_PACKETS)]
                if len(waiting) > _SHOWN_PACKETS:
                    shown.append("...")
                current = interface.current_packet
                injecting = "none" if current is None else f"#{current.packet_id}"
                lines.append(
                    f"  NI {node}: {len(waiting)} packets queued "
                    f"({', '.join(shown) or 'none'}), injecting {injecting}"
                )
        return "\n".join(lines)


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
