"""The complete flit-reservation network.

Cycle phase order:

1. packet creation (sources fire; new packets enter the NI control queues);
2. router control planes -- credit delivery, control flit arrival,
   forwarding, and processing (reservations are made here);
3. NI control planes -- injection scheduling and control flit injection
   (after the routers, so an injected control flit is processed by the
   router the *next* cycle: the 1-cycle on-node control hop);
4. data departures -- every input reservation table drives its scheduled
   buffer reads onto the output links (buffers free here);
5. NI data injections and link data arrivals -- writes and bypasses.

As in the VC model, every inter-router link has delay >= 1, so phases of
different routers never interact within a cycle and no event queue is
needed.
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import FRConfig
from repro.core.flits import ControlFlit, DataFlit, FlitPool
from repro.core.interface import FRNodeInterface
from repro.core.router import FRRouter
from repro.sim.link import Link
from repro.sim.netbase import NetworkModel, PacketAccounting
from repro.stats.collectors import ControlLeadTracker, LatencyStats
from repro.topology.mesh import PORT_NAMES, Mesh2D, opposite_port


class FRNetwork(NetworkModel):
    """An 8x8 (by default) mesh under flit-reservation flow control."""

    def __init__(
        self,
        config: FRConfig,
        mesh: Mesh2D | None = None,
        packet_length: int = 5,
        injection_rate: float = 0.1,
        seed: int = 1,
        traffic: str = "uniform",
        injection_process: str = "periodic",
        track_occupancy_node: int | None = None,
        track_control_lead: bool = False,
    ) -> None:
        if config.scheduling_policy == "all_or_nothing":
            # Hold-to-horizon: each tentative reservation charges a next-hop
            # buffer through the window end and no credit lands within the
            # cycle, so one table grants at most data_buffers_per_input data
            # flits at once.  A control flit that leads more never schedules.
            led = min(config.data_flits_per_control, packet_length)
            if led > config.data_buffers_per_input:
                raise ValueError(
                    "all_or_nothing scheduling cannot deliver: a control flit leads "
                    f"min(data_flits_per_control={config.data_flits_per_control}, "
                    f"packet_length={packet_length}) = {led} data flits, more than "
                    f"data_buffers_per_input={config.data_buffers_per_input}"
                )
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
        self.flit_pool = FlitPool()
        # Per-data-flit network latency (injection to ejection), the quantity
        # behind the paper's "base data latency of 6 cycles" observation.
        self.data_flit_latency = LatencyStats()
        consume = _control_consumer(self.flit_pool)
        self.routers = [
            FRRouter(
                node,
                config,
                self.routing,
                self.rng.spawn(20_000 + node),
                _data_ejector(node, self.accounting, self.data_flit_latency, self.flit_pool),
                consume,
            )
            for node in mesh.nodes()
        ]
        self.interfaces = [
            FRNodeInterface(
                self.routers[node], config, self.rng.spawn(30_000 + node), self.flit_pool
            )
            for node in mesh.nodes()
        ]
        # The phases as data (repro.sim.netbase), one row each with its own
        # flags; routers and NIs raise their own, links the consumer's.
        routers, interfaces = self.routers, self.interfaces
        ctrl = self._phase(routers, FRRouter.control_phase)
        self._control_flags = ctrl
        self._admission = self._phase(interfaces, FRNodeInterface.control_phase)
        dep = self._phase(routers, FRRouter.data_departures)
        ni_data = self._phase(interfaces, FRNodeInterface.data_phase)
        arr = self._phase(routers, FRRouter.data_arrivals)
        for node in mesh.nodes():
            routers[node].bind_activity(ctrl, dep)
            interfaces[node].bind_activity(ni_data)
        self._wire_links(ctrl, arr)
        self.input_buffers = config.data_buffers_per_input
        if track_occupancy_node is not None:
            self.track_occupancy(track_occupancy_node)
        self.control_lead: ControlLeadTracker | None = None
        if track_control_lead:
            self.control_lead = ControlLeadTracker()
            on_control, on_data = _control_lead_hooks(self.control_lead)
            for router in self.routers:
                router.on_control_arrival = on_control
                router.on_data_arrival = on_data

    @property
    def flow_control_name(self) -> str:
        return self.config.name

    def _wire_links(self, ctrl_flags: bytearray, arr_flags: bytearray) -> None:
        cfg = self.config
        adv_credit_width = cfg.control_flits_per_cycle * cfg.data_flits_per_control
        ctrl_credit_width = cfg.control_vcs + cfg.control_flits_per_cycle
        for node in self.mesh.nodes():
            router = self.routers[node]
            for port in self.mesh.mesh_ports(node):
                neighbor = self.mesh.neighbor(node, port)
                data: Link[DataFlit] = Link(cfg.data_link_delay)
                ctrl: Link[ControlFlit] = Link(
                    cfg.control_link_delay, width=cfg.control_flits_per_cycle
                )
                adv_credit: Link[int] = Link(cfg.credit_link_delay, width=adv_credit_width)
                ctrl_credit: Link[int] = Link(cfg.credit_link_delay, width=ctrl_credit_width)
                router.connect_output(port, data, ctrl, adv_credit, ctrl_credit)
                self.routers[neighbor].connect_input(
                    opposite_port(port), data, ctrl, adv_credit, ctrl_credit
                )
                # Sends wake the consuming side: data flits wake the
                # neighbor's arrival phase, control flits its control phase,
                # and both credit streams wake this router's control phase
                # (credits travel the reverse direction).
                data.set_wake(arr_flags, neighbor)
                ctrl.set_wake(ctrl_flags, neighbor)
                adv_credit.set_wake(ctrl_flags, node)
                ctrl_credit.set_wake(ctrl_flags, node)

    # -- the cycle ----------------------------------------------------------------

    def step(self, cycle: int) -> None:
        self._admit_packets(cycle)
        self._sweep(self.phases, cycle)
        self._sample_occupancy(cycle)

    # -- diagnostics ----------------------------------------------------------------

    def stall_report(self) -> str:
        """The base report, then what the control plane holds: the head
        control flit of each non-empty control VC at every router awake in
        the control phase -- with, while it still has flits to schedule and
        its output is routed, that output table's busy slots and its free
        downstream buffers at the end of the window -- and every NI's
        backlog."""
        lines = [super().stall_report()]
        for router in self.routers:
            if not self._control_flags[router.node]:
                continue
            for port, queues in enumerate(router.ctrl_queues):
                for vc, queue in enumerate(queues):
                    if not queue:
                        continue
                    flit = queue[0]
                    line = (
                        f"  router {router.node} {PORT_NAMES[port]} vc {vc}: head "
                        f"control flit of packet #{flit.packet.packet_id} "
                        f"({len(queue)} queued), unscheduled {flit.unscheduled}, "
                        f"forward_at {flit.forward_at}"
                    )
                    entry = router.route_table[port][vc]
                    if flit.unscheduled and entry is not None:
                        table = router.out_tables[entry[0]]
                        free = (
                            "unbounded"
                            if table.infinite_buffers
                            else table.free_buffers_at(table.window_end)
                        )
                        line += (
                            f"; output {PORT_NAMES[entry[0]]} table: "
                            f"{table.busy_slots()} busy slots, {free} free at window end"
                        )
                    lines.append(line)
        for node, interface in enumerate(self.interfaces):
            if interface.packets_pending:
                queue = interface.control_queue
                current = f"#{queue[0].packet.packet_id}" if queue else "none"
                lines.append(
                    f"  NI {node}: {interface.packets_pending} packets queued, "
                    f"current packet {current}"
                )
        return "\n".join(lines)

    def bypass_fraction(self) -> float:
        """Fraction of data flit movements that used the bypass path."""
        bypassed = 0
        buffered = 0
        for router in self.routers:
            for scheduler in router.input_sched:
                bypassed += scheduler.flits_bypassed
                buffered += scheduler.flits_buffered
        total = bypassed + buffered
        return bypassed / total if total else 0.0

    def buffer_transfer_count(self) -> int:
        """Transfers the allocate-at-reservation policy would have required."""
        total = 0
        for router in self.routers:
            for scheduler in router.input_sched:
                if scheduler.bookkeeper is not None:
                    total += scheduler.bookkeeper.transfers
        return total


# -- callbacks handed to the routers ------------------------------------------
#
# Module-level factories, so no callback can capture the network: each
# closes over the pieces it writes to (see "Ownership rule" in
# repro.sim.netbase).


def _data_ejector(
    node: int, accounting: PacketAccounting, data_flit_latency: LatencyStats, pool: FlitPool
) -> Callable[[DataFlit, int], None]:
    def eject(flit: DataFlit, cycle: int) -> None:
        if flit.packet.destination != node:
            raise RuntimeError(
                f"misdelivery: {flit!r} ejected at node {node}, "
                f"destination {flit.packet.destination}"
            )
        if flit.injection_cycle >= 0 and flit.packet.measured:
            data_flit_latency.record(cycle - flit.injection_cycle)
        accounting.eject_flit(flit.packet, cycle)
        # Single end of life for a data flit: delivered and accounted.
        pool.release_data(flit)

    return eject


def _control_consumer(pool: FlitPool) -> Callable[[ControlFlit, int], None]:
    def consume(flit: ControlFlit, cycle: int) -> None:
        # Reassembly scheduling is complete for this control flit; nothing
        # further to model (reassembly buffers are infinite).  Single end of
        # life for a control flit: recycle it.
        pool.release_control(flit)

    return consume


def _control_lead_hooks(
    tracker: ControlLeadTracker,
) -> tuple[Callable[[ControlFlit, int, int], None], Callable[[DataFlit, int, int], None]]:
    def on_control_arrival(flit: ControlFlit, node: int, cycle: int) -> None:
        if flit.is_head and cycle >= 0 and flit.packet.destination == node:
            tracker.record_control_arrival(flit.packet.packet_id, cycle)

    def on_data_arrival(flit: DataFlit, node: int, cycle: int) -> None:
        if flit.packet.destination == node:
            tracker.record_first_data_arrival(flit.packet.packet_id, cycle)

    return on_control_arrival, on_data_arrival
