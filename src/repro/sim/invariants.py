"""Cycle-level invariant checking for live networks.

The flit-reservation model's correctness rests on exact conservation laws:
buffers are neither created nor destroyed, an output channel carries at most
one data flit per cycle, and the advance-credit accounting in the output
reservation tables mirrors the true occupancy of the downstream buffer pools
(paper Figure 4).  Those laws are easy to corrupt silently -- an off-by-one
in the credit window shows up only as a subtly wrong latency curve.

:class:`InvariantChecker` is an opt-in per-cycle hook the
:class:`~repro.sim.kernel.Simulator` calls after every ``step``.  It walks
the live network and verifies:

* **pool sanity** -- every buffer pool's free list and contents agree, and
  occupancy stays within ``[0, size]``;
* **reservation-table sanity** -- free-buffer counts stay within
  ``[0, downstream_buffers]`` over the whole scheduling window, and parked
  credits all lie beyond it;
* **no double booking** -- across all five input schedulers of a router, at
  most one data flit movement claims any (output channel, cycle) slot, each
  claim is backed by a busy bit in the output reservation table, and no busy
  bit is orphaned;
* **advance-credit conservation** -- for every link, the upstream table's
  belief about downstream free space never exceeds the downstream pool's
  true free space (an optimistic table overbooks buffers), and each table's
  credit ledger balances exactly: the steady-state buffer deficit equals
  its uncredited reservations plus parked credits;
* **flit conservation** -- every cycle, flits injected equal flits delivered
  plus flits in flight on links plus flits queued in NIs and buffer pools.

Violations raise :class:`InvariantViolation` naming the router, port, and
cycle.  The checker understands both flit-reservation and virtual-channel
(including wormhole) networks; for VC networks the conservation law checked
is the per-VC credit loop instead of advance credits, plus the shared-credit
ledger when ``buffer_sharing="pool"`` lets a VC borrow beyond its own slot.

Checking is O(routers x ports x horizon) per cycle -- far too slow for
production sweeps, which is why it is opt-in (``--check-invariants`` on the
CLI, ``checker=`` on the simulator).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.baselines.vc.network import VCNetwork
    from repro.core.network import FRNetwork
    from repro.core.reservation import OutputReservationTable
    from repro.sim.netbase import NetworkModel


class InvariantViolation(Exception):
    """A conservation law failed on the live network.

    Carries the offending node, port, and cycle as attributes so tests and
    tooling can assert on them precisely.
    """

    def __init__(
        self,
        message: str,
        node: int | None = None,
        port: int | None = None,
        cycle: int | None = None,
    ) -> None:
        super().__init__(message)
        self.node = node
        self.port = port
        self.cycle = cycle


class InvariantChecker:
    """Walks a live network after each cycle and enforces conservation laws.

    ``every`` trades coverage for speed: the full sweep runs on cycles
    divisible by it (default 1, i.e. every cycle, which is what guarantees a
    violation is caught within one cycle of its introduction).
    """

    def __init__(self, every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"check interval must be >= 1 cycle, got {every}")
        self.every = every
        self.checks_run = 0

    # -- dispatch ----------------------------------------------------------

    def check(self, network: "NetworkModel", cycle: int) -> None:
        """Verify every invariant that applies to this network type."""
        if cycle % self.every:
            return
        from repro.baselines.vc.network import VCNetwork
        from repro.core.network import FRNetwork

        if isinstance(network, FRNetwork):
            self._check_fr(network, cycle)
        elif isinstance(network, VCNetwork):
            self._check_vc(network, cycle)
        self.checks_run += 1

    # -- flit-reservation networks -----------------------------------------

    def _check_fr(self, network: "FRNetwork", now: int) -> None:
        from repro.topology.mesh import EJECT, INJECT, opposite_port

        for router in network.routers:
            node = router.node
            for port in range(len(router.input_sched)):
                self._check_pool(router.input_sched[port].pool, node, port, now)
            self._check_fr_claims(network, router, now)
            for port in router.connected_outputs:
                table = router.out_tables[port]
                assert table is not None
                self._check_table(table, node, port, now)
                neighbor = network.mesh.neighbor(node, port)
                assert neighbor is not None
                downstream = network.routers[neighbor].input_sched[opposite_port(port)]
                self._check_credit_conservation(
                    table, downstream.pool.size - downstream.pool.occupied,
                    node, port, now,
                )
            eject_table = router.out_tables[EJECT]
            assert eject_table is not None
            self._check_table(eject_table, node, EJECT, now)
        for node, interface in enumerate(network.interfaces):
            table = interface.injection_table
            self._check_table(table, node, INJECT, now)
            pool = network.routers[node].input_sched[INJECT].pool
            self._check_credit_conservation(
                table, pool.size - pool.occupied, node, INJECT, now
            )
        self._check_fr_flit_conservation(network, now)

    def _check_pool(self, pool: object, node: int, port: int, now: int) -> None:
        from repro.core.buffer_pool import BufferPool

        assert isinstance(pool, BufferPool)
        free = pool._free
        occupied = pool.occupied
        if not 0 <= occupied <= pool.size:
            raise InvariantViolation(
                f"buffer pool at {self._where(node, port, now)} has occupancy "
                f"{occupied} outside [0, {pool.size}]",
                node=node, port=port, cycle=now,
            )
        if len(set(free)) != len(free) or any(not 0 <= i < pool.size for i in free):
            raise InvariantViolation(
                f"buffer pool free list corrupted at {self._where(node, port, now)}: {free!r}",
                node=node, port=port, cycle=now,
            )
        filled = sum(1 for slot in pool._contents if slot is not None)
        if filled != occupied:
            raise InvariantViolation(
                f"buffer pool at {self._where(node, port, now)} reports {occupied} "
                f"occupied but holds {filled} flits",
                node=node, port=port, cycle=now,
            )
        for index in free:
            if pool._contents[index] is not None:
                raise InvariantViolation(
                    f"buffer {index} at {self._where(node, port, now)} is on the "
                    "free list but still holds a flit",
                    node=node, port=port, cycle=now,
                )

    def _check_table(
        self, table: "OutputReservationTable", node: int, port: int, now: int
    ) -> None:
        table.advance(now)
        if table.infinite_buffers:
            return
        values = table.free_values()
        for offset, count in enumerate(values):
            cycle = table._window_start + offset
            if not 0 <= count <= table.downstream_buffers:
                raise InvariantViolation(
                    f"reservation table at {self._where(node, port, now)} has "
                    f"free count {count} at cycle {cycle}, outside "
                    f"[0, {table.downstream_buffers}]",
                    node=node, port=port, cycle=now,
                )
        # The table's incremental scalars must agree with the reconstructed
        # profile: _end_free exactly, _min_free as a valid lower bound.
        if table._end_free != values[-1]:
            raise InvariantViolation(
                f"reservation table at {self._where(node, port, now)} tracks "
                f"end-slot free count {table._end_free} but the difference "
                f"array reconstructs {values[-1]}",
                node=node, port=port, cycle=now,
            )
        if table._min_free > min(values):
            raise InvariantViolation(
                f"reservation table at {self._where(node, port, now)} claims "
                f"window minimum >= {table._min_free} but the difference "
                f"array reconstructs {min(values)}",
                node=node, port=port, cycle=now,
            )
        for parked in table._pending_credits:
            if parked <= table.window_end:
                raise InvariantViolation(
                    f"reservation table at {self._where(node, port, now)} parked "
                    f"a credit for cycle {parked} inside the window "
                    f"(ends {table.window_end})",
                    node=node, port=port, cycle=now,
                )
        # The credit ledger: at the steady-state end slot, every committed
        # reservation has been charged and every received credit applied (or
        # parked), so the end-slot deficit must equal the uncredited
        # reservations plus the parked credits -- exactly.
        end_free = table._end_free
        deficit = table.downstream_buffers - end_free
        uncredited = table.reservations_made - table.credits_applied
        parked_credits = sum(table._pending_credits.values())
        if deficit != uncredited + parked_credits:
            raise InvariantViolation(
                f"credit ledger unbalanced at {self._where(node, port, now)}: "
                f"end-slot deficit {deficit} but {uncredited} uncredited "
                f"reservations + {parked_credits} parked credits",
                node=node, port=port, cycle=now,
            )

    def _check_fr_claims(self, network: "FRNetwork", router: object, now: int) -> None:
        """At most one scheduled movement per (output, cycle); busy bits agree."""
        from repro.core.router import FRRouter
        from repro.topology.mesh import EJECT

        assert isinstance(router, FRRouter)
        node = router.node
        claims: dict[tuple[int, int], int] = {}
        for scheduler in router.input_sched:
            for departure, entries in scheduler.departures.items():
                for _, out_port in entries:
                    claims[(out_port, departure)] = claims.get((out_port, departure), 0) + 1
            for departure, out_port in scheduler.expected.values():
                claims[(out_port, departure)] = claims.get((out_port, departure), 0) + 1
        for (out_port, departure), count in claims.items():
            if count > 1:
                raise InvariantViolation(
                    f"output channel double-booked at "
                    f"{self._where(node, out_port, now)}: {count} data flit "
                    f"movements scheduled for departure cycle {departure}",
                    node=node, port=out_port, cycle=now,
                )
        for out_port in list(router.connected_outputs) + [EJECT]:
            table = router.out_tables[out_port]
            if table is None:
                continue
            table.advance(now)
            for cycle in range(now + 1, table.window_end + 1):
                busy = bool(table._busy[cycle % table.horizon])
                claimed = claims.get((out_port, cycle), 0) > 0
                if claimed and not busy:
                    raise InvariantViolation(
                        f"data flit movement scheduled at "
                        f"{self._where(node, out_port, now)} for cycle {cycle} "
                        "but the reservation table slot is not busy",
                        node=node, port=out_port, cycle=now,
                    )
                if busy and not claimed:
                    raise InvariantViolation(
                        f"orphan reservation at {self._where(node, out_port, now)}: "
                        f"table busy at cycle {cycle} with no scheduled movement",
                        node=node, port=out_port, cycle=now,
                    )

    def _check_credit_conservation(
        self,
        table: "OutputReservationTable",
        downstream_free: int,
        node: int,
        port: int,
        now: int,
    ) -> None:
        """The zero-turnaround law, conservative direction (paper Section 3).

        The table's belief about downstream free space must never exceed the
        pool's true free space -- an optimistic table overbooks buffers,
        which is the failure mode that crashes a pool allocation.  (The
        table may legitimately run *conservative*: an arrival beyond the
        scheduling window charges the end slot early, and a plesiochronous
        margin delays credits on purpose, so the exact balance is enforced
        per table by the credit-ledger check instead.)
        """
        table.advance(now)
        if table.infinite_buffers:
            return
        table_free = table.free_buffers_at(now)
        if table_free > downstream_free:
            raise InvariantViolation(
                f"advance-credit accounting optimistic at "
                f"{self._where(node, port, now)}: table believes "
                f"{table_free} downstream buffers free but only "
                f"{downstream_free} are",
                node=node, port=port, cycle=now,
            )

    def _check_fr_flit_conservation(self, network: "FRNetwork", now: int) -> None:
        outstanding = sum(
            packet.length - packet.flits_delivered
            for packet in network.packets_in_flight.values()
        )
        pending = sum(interface.data_flits_pending for interface in network.interfaces)
        on_links = 0
        for router in network.routers:
            for link in router.data_out_links:
                if link is not None:
                    on_links += link.in_flight()
        buffered = sum(
            scheduler.pool.occupied
            for router in network.routers
            for scheduler in router.input_sched
        )
        located = pending + on_links + buffered
        if outstanding != located:
            raise InvariantViolation(
                f"flit conservation violated at cycle {now}: "
                f"{outstanding} data flits outstanding but {located} located "
                f"({pending} at NIs, {on_links} on links, {buffered} buffered)",
                cycle=now,
            )

    # -- virtual-channel networks ------------------------------------------

    def _check_vc(self, network: "VCNetwork", now: int) -> None:
        from repro.topology.mesh import opposite_port

        config = network.config
        # A private VC owns buffers_per_vc slots.  In a shared pool it owns
        # one and may borrow every shared slot, so its counter legitimately
        # runs negative; the pool's own ledger pins it instead.
        pooled = config.buffer_sharing == "pool"
        shared = config.buffers_per_input - config.num_vcs
        floor = config.buffers_per_vc - 1 - shared if pooled else 0
        for router in network.routers:
            node = router.node
            for port in range(len(router.in_queues)):
                occupancy = sum(len(queue) for queue in router.in_queues[port])
                if occupancy != router.pool_occupancy[port]:
                    raise InvariantViolation(
                        f"pool occupancy counter drifted at "
                        f"{self._where(node, port, now)}: counter says "
                        f"{router.pool_occupancy[port]}, queues hold {occupancy}",
                        node=node, port=port, cycle=now,
                    )
                if occupancy > config.buffers_per_input:
                    raise InvariantViolation(
                        f"buffer pool overflow at {self._where(node, port, now)}: "
                        f"{occupancy} flits in {config.buffers_per_input} buffers",
                        node=node, port=port, cycle=now,
                    )
            for port in router.connected_outputs:
                neighbor = network.mesh.neighbor(node, port)
                assert neighbor is not None
                downstream = network.routers[neighbor]
                in_port = opposite_port(port)
                data_link = router.out_data_links[port]
                credit_link = downstream.out_credit_links[in_port]
                assert data_link is not None and credit_link is not None
                if pooled:
                    borrowed = sum(
                        max(0, config.buffers_per_vc - credits - 1)
                        for credits in router.out_credits[port]
                    )
                    held = router.out_shared_credits[port]
                    if held < 0 or held + borrowed != shared:
                        raise InvariantViolation(
                            f"shared credit pool broken at {self._where(node, port, now)}: "
                            f"{held} shared credits held + {borrowed} borrowed by the "
                            f"VCs, expected {shared} and none negative",
                            node=node, port=port, cycle=now,
                        )
                for vc in range(config.num_vcs):
                    credits = router.out_credits[port][vc]
                    if not floor <= credits <= config.buffers_per_vc:
                        raise InvariantViolation(
                            f"credit counter at {self._where(node, port, now)} "
                            f"vc {vc} is {credits}, outside "
                            f"[{floor}, {config.buffers_per_vc}]",
                            node=node, port=port, cycle=now,
                        )
                    # The conservation audit must see in-flight items without
                    # draining them, which the Link API cannot offer (receive
                    # is destructive) -- the one sanctioned pipeline peek.
                    flits_on_wire = sum(
                        1
                        # frfc-lint: disable-next-line=D006
                        for slot in data_link._slots
                        for sent_vc, _ in slot
                        if sent_vc == vc
                    )
                    credits_on_wire = sum(
                        1
                        # frfc-lint: disable-next-line=D006
                        for slot in credit_link._slots
                        for sent_vc in slot
                        if sent_vc == vc
                    )
                    queued = len(downstream.in_queues[in_port][vc])
                    total = credits + flits_on_wire + credits_on_wire + queued
                    if total != config.buffers_per_vc:
                        raise InvariantViolation(
                            f"credit loop broken at {self._where(node, port, now)} "
                            f"vc {vc}: {credits} credits held + {flits_on_wire} "
                            f"flits on wire + {credits_on_wire} credits on wire "
                            f"+ {queued} queued = {total}, expected "
                            f"{config.buffers_per_vc}",
                            node=node, port=port, cycle=now,
                        )
        self._check_vc_flit_conservation(network, now)

    def _check_vc_flit_conservation(self, network: "VCNetwork", now: int) -> None:
        outstanding = sum(
            packet.length - packet.flits_delivered
            for packet in network.packets_in_flight.values()
        )
        at_interfaces = sum(
            sum(packet.length for packet in interface.packet_queue)
            + len(interface._pending)
            for interface in network.interfaces
        )
        on_links = 0
        for router in network.routers:
            for link in router.out_data_links:
                if link is not None:
                    on_links += link.in_flight()
        queued = sum(
            len(queue)
            for router in network.routers
            for port_queues in router.in_queues
            for queue in port_queues
        )
        located = at_interfaces + on_links + queued
        if outstanding != located:
            raise InvariantViolation(
                f"flit conservation violated at cycle {now}: "
                f"{outstanding} flits outstanding but {located} located "
                f"({at_interfaces} at NIs, {on_links} on links, {queued} queued)",
                cycle=now,
            )

    # -- formatting --------------------------------------------------------

    @staticmethod
    def _where(node: int, port: int, cycle: int) -> str:
        from repro.topology.mesh import PORT_NAMES

        port_name = PORT_NAMES.get(port, str(port))
        return f"router {node} port {port_name} (cycle {cycle})"
