"""The virtual-channel router.

A single-stage router: a flit that arrives during cycle ``t`` is routed and
VC-allocated the same cycle (combinationally, as the paper's 1-cycle
"routing and scheduling latency" allows) and can win switch arbitration --
the paper's random arbitration -- at ``t + 1``.  Credits flow back over
1-cycle credit wires; a buffer is therefore idle for the full propagation +
credit turnaround the paper's Figure 1 illustrates, which is exactly the
inefficiency flit-reservation flow control removes.

Each router owns its input queues and, for each output, the upstream view of
the downstream router: per-VC credit counts and VC-ownership flags.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.baselines.vc.config import VCConfig
from repro.baselines.vc.flits import VCFlit
from repro.sim.link import Link
from repro.sim.rng import DeterministicRng
from repro.topology.mesh import EJECT, INJECT
from repro.topology.routing import DimensionOrderRouting

NUM_PORTS = 5  # north, east, south, west, local


class VCRouter:
    """One mesh router under virtual-channel flow control."""

    __slots__ = (
        "node",
        "config",
        "routing",
        "rng",
        "eject",
        "in_queues",
        "in_route",
        "in_out_vc",
        "in_active",
        "pool_occupancy",
        "out_data_links",
        "out_credit_links",
        "in_credit_links",
        "in_data_links",
        "out_credits",
        "out_shared_credits",
        "out_vc_owned",
        "connected_outputs",
        "ni_credits",
        "ni_shared_credits",
        "_num_vcs",
        "_bufs_per_vc",
        "_bufs_per_input",
        "_pool_mode",
        "_when_empty",
        "_credit_scan",
        "_data_in_scan",
        "_input_scan",
        "accept_flit",
        "_forward",
        "_on_flit_arrival",
        "_on_flit_forward",
        "_buffered_total",
        "_unrouted",
        "_flags",
        "flits_forwarded",
    )

    def __init__(
        self,
        node: int,
        config: VCConfig,
        routing: DimensionOrderRouting,
        rng: DeterministicRng,
        eject: Callable[[VCFlit, int], None],
    ) -> None:
        self.node = node
        self.config = config
        self.routing = routing
        self.rng = rng
        self.eject = eject
        v = config.num_vcs
        # Input side: per-port, per-VC flit queues and packet state.
        self.in_queues: list[list[deque[VCFlit]]] = [
            [deque() for _ in range(v)] for _ in range(NUM_PORTS)
        ]
        self.in_route = [[-1] * v for _ in range(NUM_PORTS)]
        self.in_out_vc = [[-1] * v for _ in range(NUM_PORTS)]
        self.in_active = [[False] * v for _ in range(NUM_PORTS)]
        self.pool_occupancy = [0] * NUM_PORTS
        # Output side: the upstream view of each downstream input.
        self.out_data_links: list[Optional[Link[tuple[int, VCFlit]]]] = [None] * NUM_PORTS
        self.out_credit_links: list[Optional[Link[int]]] = [None] * NUM_PORTS  # to upstream
        self.in_credit_links: list[Optional[Link[int]]] = [None] * NUM_PORTS  # from downstream
        self.in_data_links: list[Optional[Link[tuple[int, VCFlit]]]] = [None] * NUM_PORTS
        self.out_credits = [[config.buffers_per_vc] * v for _ in range(NUM_PORTS)]
        # Shared-pool mode (Tamir-Frazier): each VC keeps one dedicated slot
        # so a blocked VC can never monopolise the pool (that would deadlock);
        # the remaining slots are shared.
        self.out_shared_credits = [config.buffers_per_input - v] * NUM_PORTS
        self.out_vc_owned = [[False] * v for _ in range(NUM_PORTS)]
        self.connected_outputs: list[int] = []
        # Hot-path copies of the (frozen) config, so no phase walks a
        # ``self.config.<field>`` chain or compares strings per cycle.
        self._num_vcs = v
        self._bufs_per_vc = config.buffers_per_vc
        self._bufs_per_input = config.buffers_per_input
        self._pool_mode = config.buffer_sharing == "pool"
        self._when_empty = config.vc_reallocation == "when_empty"
        # Port-sorted scan tuples, built once at wiring time so the phases
        # never re-index the parallel port arrays: (port, credit link,
        # out_credits[port]) per output and (port, data link) per input.
        self._credit_scan: list[tuple] = []
        self._data_in_scan: list[tuple] = []
        # One (port, queues, active, route, out_vc) row per input: the
        # per-port lists above are never rebound, only mutated in place.
        self._input_scan = tuple(
            (port, self.in_queues[port], self.in_active[port], self.in_route[port],
             self.in_out_vc[port])
            for port in range(NUM_PORTS)
        )
        # The NI's credit counts for this router's local input, set by the
        # NI: one per VC, plus the one-element shared-pool count.  A flit
        # leaving the local input returns its credit here directly (on-node
        # wiring, no link delay).
        self.ni_credits: Optional[list[int]] = None
        self.ni_shared_credits: Optional[list[int]] = None
        # Observability hooks (pure observers; arbitration never consults
        # them).  Arrival: (flit, port, vc, cycle); forward: (flit, in port,
        # in vc, out port, cycle), ejections included.  The public names are
        # properties whose setters swap the accept_flit/_forward dispatch
        # slots between plain and observed variants (zero-cost detach).  The
        # slots hold plain class functions, not bound methods, so the router
        # never references itself; call sites pass it: accept_flit(router, ...).
        self._on_flit_arrival: Optional[Callable[[VCFlit, int, int, int], None]] = None
        self._on_flit_forward: Optional[Callable[[VCFlit, int, int, int, int], None]] = None
        self.accept_flit = VCRouter._accept_flit_plain
        self._forward = VCRouter._forward_plain
        # Activity tracking: total buffered flits across all inputs, plus the
        # wake slot the network rebinds to its phase rows (bind_activity).
        self._buffered_total = 0
        # Idle input VCs holding flits (a head awaiting route + VC
        # allocation, so every one is buffered): route_and_allocate scans
        # only while one exists.
        self._unrouted = 0
        self._flags = bytearray(node + 1)
        # Diagnostics.
        self.flits_forwarded = 0

    def bind_activity(self, flags: bytearray) -> None:
        """Point this router's wake slot at the network's phase rows."""
        self._flags = flags

    @property
    def on_flit_arrival(self) -> Optional[Callable[[VCFlit, int, int, int], None]]:
        return self._on_flit_arrival

    @on_flit_arrival.setter
    def on_flit_arrival(self, hook: Optional[Callable[[VCFlit, int, int, int], None]]) -> None:
        self._on_flit_arrival = hook
        self.accept_flit = (
            VCRouter._accept_flit_plain if hook is None else VCRouter._accept_flit_observed
        )

    @property
    def on_flit_forward(self) -> Optional[Callable[[VCFlit, int, int, int, int], None]]:
        return self._on_flit_forward

    @on_flit_forward.setter
    def on_flit_forward(
        self, hook: Optional[Callable[[VCFlit, int, int, int, int], None]]
    ) -> None:
        self._on_flit_forward = hook
        self._forward = VCRouter._forward_plain if hook is None else VCRouter._forward_observed

    # -- wiring (done once by the network) -----------------------------------

    def connect_output(
        self, port: int, data_link: Link[tuple[int, VCFlit]], credit_link: Link[int]
    ) -> None:
        """Attach the outgoing data link and incoming credit link of ``port``."""
        self.out_data_links[port] = data_link
        self.in_credit_links[port] = credit_link
        self.connected_outputs.append(port)
        self._credit_scan.append((port, credit_link, self.out_credits[port]))
        self._credit_scan.sort(key=lambda entry: entry[0])

    def connect_input(
        self, port: int, data_link: Link[tuple[int, VCFlit]], credit_link: Link[int]
    ) -> None:
        """Attach the incoming data link and outgoing credit link of ``port``."""
        self.in_data_links[port] = data_link
        self.out_credit_links[port] = credit_link
        self._data_in_scan.append((port, data_link))
        self._data_in_scan.sort(key=lambda entry: entry[0])

    # -- per-cycle phases -----------------------------------------------------

    def switch_phase(self, cycle: int) -> bool:
        """Credits in, then switch traversal.  True: the router's flag is
        lowered only by :meth:`route_and_allocate`, which runs last."""
        self.deliver_credits(cycle)
        self.switch_traversal(cycle)
        return True

    def deliver_credits(self, cycle: int) -> None:
        """Absorb credits returned by downstream routers."""
        bufs_per_vc = self._bufs_per_vc
        for port, link, credits in self._credit_scan:
            # Earliest-event skip: an empty wire, or one whose first item
            # lands later, is never polled.
            if link.pending and cycle >= link.next_arrival:
                for vc in link.receive(cycle):
                    outstanding = bufs_per_vc - credits[vc]
                    credits[vc] += 1
                    if outstanding >= 2:
                        # The freed slot was a shared one; the VC's dedicated
                        # slot is released last.
                        self.out_shared_credits[port] += 1

    def switch_traversal(self, cycle: int) -> None:
        """Random switch arbitration and flit forwarding.

        One flit per input port and one per output port per cycle; winners
        are drawn in uniformly random order (the paper's random arbitration).
        """
        if not self._buffered_total:
            return
        candidates = self._gather_candidates()
        if not candidates:
            return
        if len(candidates) > 1:
            candidates = self.rng.shuffled(candidates)
        used_inputs = 0
        used_outputs = 0
        for port, vc, out_port in candidates:
            in_bit = 1 << port
            out_bit = 1 << out_port
            if used_inputs & in_bit or used_outputs & out_bit:
                continue
            used_inputs |= in_bit
            used_outputs |= out_bit
            self._forward(self, port, vc, out_port, cycle)

    def _gather_candidates(self) -> list[tuple[int, int, int]]:
        pool_mode = self._pool_mode
        bufs_per_vc = self._bufs_per_vc
        vcs = range(self._num_vcs)
        occupancy = self.pool_occupancy
        out_credits = self.out_credits
        candidates: list[tuple[int, int, int]] = []
        for port, queues, active, route, out_vcs in self._input_scan:
            if not occupancy[port]:
                continue
            for vc in vcs:
                if not queues[vc] or not active[vc]:
                    continue
                out_port = route[vc]
                if out_port != EJECT:
                    credit = out_credits[out_port][out_vcs[vc]]
                    if pool_mode:
                        # Shared-pool gate: the VC's dedicated slot (nothing
                        # outstanding) or a shared slot must be free.
                        if credit != bufs_per_vc and self.out_shared_credits[out_port] <= 0:
                            continue
                    elif credit <= 0:
                        continue
                candidates.append((port, vc, out_port))
        return candidates

    def _forward_plain(self, port: int, vc: int, out_port: int, cycle: int) -> None:
        queue = self.in_queues[port][vc]
        flit = queue.popleft()
        self.pool_occupancy[port] -= 1
        self._buffered_total -= 1
        self.flits_forwarded += 1
        if out_port == EJECT:
            self.eject(flit, cycle)
        else:
            out_vc = self.in_out_vc[port][vc]
            self.out_data_links[out_port].send((out_vc, flit), cycle)
            credits = self.out_credits[out_port]
            if credits[out_vc] < self._bufs_per_vc:
                # The VC's dedicated slot is taken; this flit uses a shared one.
                self.out_shared_credits[out_port] -= 1
            credits[out_vc] -= 1
            if flit.is_tail:
                self.out_vc_owned[out_port][out_vc] = False
        # Return the freed buffer to whoever feeds this input.
        if port == INJECT:
            self._return_ni_credit(vc)
        else:
            self.out_credit_links[port].send(vc, cycle)
        if flit.is_tail:
            self.in_active[port][vc] = False
            self.in_route[port][vc] = -1
            self.in_out_vc[port][vc] = -1
            if queue:  # the next packet's head is already waiting behind it
                self._unrouted += 1

    def _forward_observed(self, port: int, vc: int, out_port: int, cycle: int) -> None:
        # Lockstep twin of _forward_plain; the hook fires after the dequeue
        # but before the flit moves, exactly where it always did.
        queue = self.in_queues[port][vc]
        flit = queue.popleft()
        self.pool_occupancy[port] -= 1
        self._buffered_total -= 1
        self.flits_forwarded += 1
        self._on_flit_forward(flit, port, vc, out_port, cycle)
        if out_port == EJECT:
            self.eject(flit, cycle)
        else:
            out_vc = self.in_out_vc[port][vc]
            self.out_data_links[out_port].send((out_vc, flit), cycle)
            credits = self.out_credits[out_port]
            if credits[out_vc] < self._bufs_per_vc:
                self.out_shared_credits[out_port] -= 1
            credits[out_vc] -= 1
            if flit.is_tail:
                self.out_vc_owned[out_port][out_vc] = False
        if port == INJECT:
            self._return_ni_credit(vc)
        else:
            self.out_credit_links[port].send(vc, cycle)
        if flit.is_tail:
            self.in_active[port][vc] = False
            self.in_route[port][vc] = -1
            self.in_out_vc[port][vc] = -1
            if queue:  # the next packet's head is already waiting behind it
                self._unrouted += 1

    def _return_ni_credit(self, vc: int) -> None:
        """Credit the NI for a flit that left the local input."""
        credits = self.ni_credits
        outstanding = self._bufs_per_vc - credits[vc]
        credits[vc] += 1
        if self._pool_mode and outstanding >= 2:
            # The freed slot was a shared one (see deliver_credits).
            self.ni_shared_credits[0] += 1

    def deliver_flits(self, cycle: int) -> bool:
        """Move arriving flits from input links into their VC queues (True,
        as :meth:`switch_phase`)."""
        for port, link in self._data_in_scan:
            if link.pending and cycle >= link.next_arrival:
                for out_vc, flit in link.receive(cycle):
                    self.accept_flit(self, port, out_vc, flit, cycle)
        return True

    def _accept_flit_plain(self, port: int, vc: int, flit: VCFlit, cycle: int = -1) -> None:
        """Insert one flit into an input VC queue, checking buffer bounds.

        ``cycle`` only feeds the observability hook (``-1`` marks callers
        outside the clocked phases, e.g. test setup).
        """
        queue = self.in_queues[port][vc]
        if not self._pool_mode:
            if len(queue) >= self._bufs_per_vc:
                raise RuntimeError(
                    f"VC buffer overflow at node {self.node} port {port} vc {vc}: "
                    "credit protocol violated"
                )
        elif self.pool_occupancy[port] >= self._bufs_per_input:
            raise RuntimeError(
                f"buffer pool overflow at node {self.node} port {port}: "
                "credit protocol violated"
            )
        if not queue and not self.in_active[port][vc]:
            self._unrouted += 1
        queue.append(flit)
        self.pool_occupancy[port] += 1
        self._buffered_total += 1
        self._flags[self.node] = 1

    def _accept_flit_observed(self, port: int, vc: int, flit: VCFlit, cycle: int = -1) -> None:
        self._accept_flit_plain(port, vc, flit, cycle)
        self._on_flit_arrival(flit, port, vc, cycle)

    def route_and_allocate(self, cycle: int) -> bool:
        """Route new head flits and allocate output virtual channels.

        Runs last in the cycle, so it also computes the router's activity
        predicate for the network worklist: buffered flits or anything in
        flight toward this router (data or credits) keeps it stepped.
        """
        if self._unrouted:
            requests: dict[int, list[tuple[int, int]]] = {}
            vcs = range(self._num_vcs)
            occupancy = self.pool_occupancy
            for port, queues, active, route, _out_vcs in self._input_scan:
                if not occupancy[port]:
                    continue
                for vc in vcs:
                    if active[vc] or not queues[vc]:
                        continue
                    head = queues[vc][0]
                    if not head.is_head:
                        raise RuntimeError(
                            f"non-head flit {head!r} at the front of an idle VC at "
                            f"node {self.node}: packet framing corrupted"
                        )
                    out_port = self.routing.output_port(self.node, head.packet.destination)
                    if out_port == EJECT:
                        route[vc] = EJECT
                        active[vc] = True
                        self._unrouted -= 1
                    else:
                        bucket = requests.get(out_port)
                        if bucket is None:
                            bucket = []
                            requests[out_port] = bucket
                        bucket.append((port, vc))
            for out_port, requesters in requests.items():
                self._allocate_vcs(out_port, requesters)
            return True
        if self._buffered_total:
            return True
        for _port, link in self._data_in_scan:
            if link.pending:
                return True
        for _port, credit_link, _credits in self._credit_scan:
            if credit_link.pending:
                return True
        return False

    def _allocate_vcs(self, out_port: int, requesters: list[tuple[int, int]]) -> None:
        owned = self.out_vc_owned[out_port]
        credits = self.out_credits[out_port]
        when_empty = self._when_empty
        bufs_per_vc = self._bufs_per_vc
        # 'when_empty' also waits until the downstream VC has drained.
        free_vcs = [
            vc
            for vc in range(self._num_vcs)
            if not owned[vc] and (not when_empty or credits[vc] == bufs_per_vc)
        ]
        if not free_vcs:
            return
        if len(requesters) > 1:
            requesters = self.rng.shuffled(requesters)
        free_vcs = self.rng.shuffled(free_vcs)
        for (port, vc), out_vc in zip(requesters, free_vcs):
            self.in_route[port][vc] = out_port
            self.in_out_vc[port][vc] = out_vc
            self.in_active[port][vc] = True
            owned[out_vc] = True
            self._unrouted -= 1

    # -- introspection --------------------------------------------------------

    def buffered_flits(self, port: int) -> int:
        """Occupied buffers at one input (for the Section 4.2 occupancy study)."""
        return self.pool_occupancy[port]

    def buffered_total(self) -> int:
        """Occupied buffers summed over every input of this router."""
        total = 0
        for occupied in self.pool_occupancy:
            total += occupied
        return total
