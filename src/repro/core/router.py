"""The flit-reservation router (paper Figure 3).

The router has two halves:

* **Control plane** -- control flits arrive into per-input control virtual
  channels (the control network itself runs ordinary credit-based VC flow
  control).  Each cycle, up to ``control_flits_per_cycle`` control flits per
  input are *processed*: routed (heads compute the output port and store it
  in a table indexed by VCID; bodies look it up), then their data flits are
  scheduled on the selected output's reservation table.  Reservation
  feedback goes to the input scheduler of the port where each data flit will
  arrive, and an advance credit (the departure time) goes to the upstream
  node.  A fully scheduled control flit is forwarded to the next node on the
  following cycle -- the paper's 1-cycle routing-and-scheduling latency --
  subject to control VC allocation, control buffer credits, and the 2-flit
  control link width.  At the destination it is consumed after scheduling
  the ejection of its data flits into the reassembly buffers.

* **Data plane** -- entirely decision-free.  Each cycle the input
  reservation tables direct which buffers drive which outputs and where
  arriving flits are written; a flit whose reserved departure equals its
  arrival cycle bypasses the buffers straight to the output.  The contents
  of data flits are never examined.

Kernel architecture notes (see docs/performance.md):

* Each phase method returns whether the router still has work for that
  phase, and the network only steps routers whose activity flag is raised.
  The router raises its *own* flag slot when it gains control work
  (``accept_control_flit``) or departure work (``_commit_reservation``);
  links raise the consumer's flag on ``send``.  A skipped phase is provably
  a no-op that draws no randomness, so active-set stepping is digest-
  identical to dense stepping.
* The observability hooks are exposed as properties whose setters swap
  dispatch slots (``accept_control_flit``, ``_accept_data``,
  ``_commit_reservation``, ``_return_control_credit``) between a plain and
  an observed variant, so a detached run pays no per-event hook branches.
  The observed variants must stay in lockstep with their plain twins --
  they differ only in the hook invocations, at the exact points the hooks
  historically fired.
* A dispatch slot holds the plain class function, never a bound method
  (which would reference the router from the router), and every call site
  passes the router itself: ``self._accept_data(self, port, flit, now)``.
  Together with the NI handing over its injection table's ``apply_credit``
  and its control-credit list instead of its own methods, this keeps the
  network's object graph acyclic (see "Ownership rule" in
  :mod:`repro.sim.netbase`).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.config import FRConfig
from repro.core.flits import ControlFlit, DataFlit
from repro.core.input_schedule import InputScheduler
from repro.core.reservation import OutputReservationTable
from repro.sim.link import Link
from repro.sim.rng import DeterministicRng
from repro.topology.mesh import EJECT, INJECT
from repro.topology.routing import DimensionOrderRouting

NUM_PORTS = 5  # north, east, south, west, local


class FRRouter:
    """One mesh router under flit-reservation flow control."""

    __slots__ = (
        "node",
        "config",
        "routing",
        "rng",
        "eject_data",
        "consume_control",
        "ctrl_queues",
        "route_table",
        "ctrl_credits",
        "ctrl_vc_owned",
        "_ctrl_credited",
        "_credit_scan",
        "_ctrl_in_scan",
        "_data_in_scan",
        "_ctrl_link_slots",
        "_last_ctrl_slot",
        "input_sched",
        "out_tables",
        "ctrl_out_links",
        "ctrl_in_links",
        "ctrl_credit_out",
        "ctrl_credit_in",
        "data_out_links",
        "data_in_links",
        "adv_credit_out",
        "adv_credit_in",
        "connected_outputs",
        "ni_advance_credit",
        "ni_control_credits",
        "_num_vcs",
        "_ctrl_budget",
        "_ctrl_bufs_per_vc",
        "_read_limit",
        "_margin",
        "_data_delay",
        "_per_flit",
        "_schedule_data_flits",
        "accept_control_flit",
        "_accept_data",
        "_commit_reservation",
        "_return_control_credit",
        "_on_data_arrival",
        "_on_control_arrival",
        "_on_reservation_grant",
        "_on_credit_return",
        "on_reservation_deny",
        "_ctrl_count",
        "_ctrl_total",
        "_ctrl_flags",
        "_dep_flags",
        "_vcs_scratch",
        "_cand_scratch",
        "_two_vcs",
        "_vc_both",
        "_vc_zero",
        "_vc_one",
        "schedule_stalls",
        "forward_stalls",
        "splits_performed",
    )

    def __init__(
        self,
        node: int,
        config: FRConfig,
        routing: DimensionOrderRouting,
        rng: DeterministicRng,
        eject_data: Callable[[DataFlit, int], None],
        consume_control: Callable[[ControlFlit, int], None],
    ) -> None:
        self.node = node
        self.config = config
        self.routing = routing
        self.rng = rng
        self.eject_data = eject_data
        self.consume_control = consume_control
        v = config.control_vcs
        # Hot-path copies of config scalars: the per-cycle loops read these
        # thousands of times per simulated cycle, so they live directly on
        # the router instead of behind the two-attribute config chain.
        self._num_vcs = v
        self._ctrl_budget = config.control_flits_per_cycle
        self._ctrl_bufs_per_vc = config.control_buffers_per_vc
        self._read_limit = config.input_read_ports
        self._margin = config.plesiochronous_margin
        self._data_delay = config.data_link_delay
        self._per_flit = config.scheduling_policy == "per_flit"
        # Scheduling-policy dispatch slot: chosen once here, so the hot
        # control loop never re-compares the policy string per flit.
        if self._per_flit:
            self._schedule_data_flits = FRRouter._schedule_per_flit
        else:
            self._schedule_data_flits = FRRouter._schedule_all_or_nothing
        # Control input side.
        # Plain lists: the credit protocol bounds each to
        # control_buffers_per_vc credited flits plus split staging slots,
        # so a front removal shifts a handful of pointers.
        self.ctrl_queues: list[list[list[ControlFlit]]] = [
            [[] for _ in range(v)] for _ in range(NUM_PORTS)
        ]
        # route_table[port][vc] = [out_port, out_vc, packet_id] for the
        # packet currently traversing that control VC; out_vc is -1 until a
        # downstream control VC is allocated at forward time.
        self.route_table: list[list[Optional[list[int]]]] = [
            [None] * v for _ in range(NUM_PORTS)
        ]
        # Control output side (upstream view of the downstream control input).
        self.ctrl_credits = [[config.control_buffers_per_vc] * v for _ in range(NUM_PORTS)]
        self.ctrl_vc_owned = [[False] * v for _ in range(NUM_PORTS)]
        # Credited occupancy of each control VC queue: the number of queued
        # flits with ``credited`` set, mirrored so the accept path checks the
        # buffer bound with one indexed read instead of walking the queue.
        self._ctrl_credited = [[0] * v for _ in range(NUM_PORTS)]
        # Per-cycle scan lists, filled by connect_output/connect_input: the
        # control phase iterates these prebuilt tuples instead of re-indexing
        # four parallel port arrays per connected port per cycle.
        self._credit_scan: list[tuple] = []
        self._ctrl_in_scan: list[tuple] = []
        self._data_in_scan: list[tuple] = []
        # Control-link slot bookings (cycle -> flits committed to forward
        # then) and the last slot each control VC claimed, which keeps
        # per-VC forwarding FIFO.
        self._ctrl_link_slots: list[dict[int, int]] = [{} for _ in range(NUM_PORTS)]
        self._last_ctrl_slot = [[-1] * v for _ in range(NUM_PORTS)]
        # Data side.
        track = config.buffer_allocation == "at_reservation"
        self.input_sched = [
            InputScheduler(config.data_buffers_per_input, track_transfers=track)
            for _ in range(NUM_PORTS)
        ]
        self.out_tables: list[Optional[OutputReservationTable]] = [None] * NUM_PORTS
        self.out_tables[EJECT] = OutputReservationTable(
            config.scheduling_horizon,
            downstream_buffers=1,
            propagation_delay=0,
            infinite_buffers=True,
        )
        # Links, wired by the network.
        self.ctrl_out_links: list[Optional[Link[ControlFlit]]] = [None] * NUM_PORTS
        self.ctrl_in_links: list[Optional[Link[ControlFlit]]] = [None] * NUM_PORTS
        self.ctrl_credit_out: list[Optional[Link[int]]] = [None] * NUM_PORTS
        self.ctrl_credit_in: list[Optional[Link[int]]] = [None] * NUM_PORTS
        self.data_out_links: list[Optional[Link[DataFlit]]] = [None] * NUM_PORTS
        self.data_in_links: list[Optional[Link[DataFlit]]] = [None] * NUM_PORTS
        self.adv_credit_out: list[Optional[Link[int]]] = [None] * NUM_PORTS
        self.adv_credit_in: list[Optional[Link[int]]] = [None] * NUM_PORTS
        self.connected_outputs: list[int] = []
        # The NI's side of the local input (on-node wiring, no link delay),
        # set by the NI: its injection table's apply_credit, called with
        # (now, free-from cycle), and its per-VC control credit counts.
        self.ni_advance_credit: Optional[Callable[[int, int], None]] = None
        self.ni_control_credits: Optional[list[int]] = None
        # Observability hooks (stats/tracing only; routing never consults
        # them).  Grant: (control flit, data-flit index, out port, departure,
        # cycle); deny: (control flit, out port, cycle); credit return:
        # ("control"|"advance", port, vc-or-free-from-cycle, cycle).  The
        # public names are properties; setting one swaps the corresponding
        # dispatch slot between the plain and observed method variants.
        self._on_data_arrival: Optional[Callable[[DataFlit, int, int], None]] = None
        self._on_control_arrival: Optional[Callable[[ControlFlit, int, int], None]] = None
        self._on_reservation_grant: Optional[Callable[[ControlFlit, int, int, int, int], None]] = None
        self._on_credit_return: Optional[Callable[[str, int, int, int], None]] = None
        self.on_reservation_deny: Optional[Callable[[ControlFlit, int, int], None]] = None
        self.accept_control_flit = FRRouter._accept_control_plain
        self._accept_data = FRRouter._accept_data_plain
        self._commit_reservation = FRRouter._commit_reservation_plain
        self._return_control_credit = FRRouter._return_credit_plain
        # Activity tracking: queued control flits per port (and in total) gate
        # the control-serve loop, and the flag slots below are rebound by the
        # network to its phase rows (bind_activity).
        self._ctrl_count = [0] * NUM_PORTS
        self._ctrl_total = 0
        self._ctrl_flags = bytearray(node + 1)
        self._dep_flags = bytearray(node + 1)
        # Reused scan buffers (never escape a single phase call).
        self._vcs_scratch: list[int] = []
        self._cand_scratch: list[int] = []
        # Serve-order constants for the ubiquitous two-VC configuration:
        # rng.shuffled copies its input, so sharing these is safe, and the
        # shuffle sees the same [0, 1] the generic scratch build produces.
        self._two_vcs = v == 2
        self._vc_both = [0, 1]
        self._vc_zero = [0]
        self._vc_one = [1]
        # Diagnostics.
        self.schedule_stalls = 0
        self.forward_stalls = 0
        self.splits_performed = 0

    # -- wiring ----------------------------------------------------------------

    def connect_output(
        self,
        port: int,
        data_link: Link[DataFlit],
        ctrl_link: Link[ControlFlit],
        adv_credit_link: Link[int],
        ctrl_credit_link: Link[int],
    ) -> None:
        """Attach output-side links and build the output reservation table."""
        self.data_out_links[port] = data_link
        self.ctrl_out_links[port] = ctrl_link
        self.adv_credit_in[port] = adv_credit_link
        self.ctrl_credit_in[port] = ctrl_credit_link
        self.out_tables[port] = OutputReservationTable(
            self.config.scheduling_horizon,
            downstream_buffers=self.config.data_buffers_per_input,
            propagation_delay=self.config.data_link_delay,
        )
        self.connected_outputs.append(port)
        self._credit_scan.append(
            (ctrl_credit_link, self.ctrl_credits[port], adv_credit_link, self.out_tables[port])
        )

    def connect_input(
        self,
        port: int,
        data_link: Link[DataFlit],
        ctrl_link: Link[ControlFlit],
        adv_credit_link: Link[int],
        ctrl_credit_link: Link[int],
    ) -> None:
        """Attach input-side links (the reverse-direction credits go out)."""
        self.data_in_links[port] = data_link
        self.ctrl_in_links[port] = ctrl_link
        self.adv_credit_out[port] = adv_credit_link
        self.ctrl_credit_out[port] = ctrl_credit_link
        # Sorted by port so same-cycle arrival processing (and therefore the
        # observability event order) is independent of wiring order.
        self._ctrl_in_scan.append((port, ctrl_link))
        self._ctrl_in_scan.sort(key=lambda entry: entry[0])
        self._data_in_scan.append((port, data_link))
        self._data_in_scan.sort(key=lambda entry: entry[0])

    def bind_activity(self, ctrl_flags: bytearray, dep_flags: bytearray) -> None:
        """Point this router's wake slots at the network's phase rows."""
        self._ctrl_flags = ctrl_flags
        self._dep_flags = dep_flags

    # -- observability hook properties (dispatch swapping) ----------------------

    @property
    def on_data_arrival(self) -> Optional[Callable[[DataFlit, int, int], None]]:
        return self._on_data_arrival

    @on_data_arrival.setter
    def on_data_arrival(self, hook: Optional[Callable[[DataFlit, int, int], None]]) -> None:
        self._on_data_arrival = hook
        self._accept_data = (
            FRRouter._accept_data_plain if hook is None else FRRouter._accept_data_observed
        )

    @property
    def on_control_arrival(self) -> Optional[Callable[[ControlFlit, int, int], None]]:
        return self._on_control_arrival

    @on_control_arrival.setter
    def on_control_arrival(
        self, hook: Optional[Callable[[ControlFlit, int, int], None]]
    ) -> None:
        self._on_control_arrival = hook
        self.accept_control_flit = (
            FRRouter._accept_control_plain if hook is None else FRRouter._accept_control_observed
        )

    @property
    def on_reservation_grant(
        self,
    ) -> Optional[Callable[[ControlFlit, int, int, int, int], None]]:
        return self._on_reservation_grant

    @on_reservation_grant.setter
    def on_reservation_grant(
        self, hook: Optional[Callable[[ControlFlit, int, int, int, int], None]]
    ) -> None:
        self._on_reservation_grant = hook
        self._refresh_commit_dispatch()

    @property
    def on_credit_return(self) -> Optional[Callable[[str, int, int, int], None]]:
        return self._on_credit_return

    @on_credit_return.setter
    def on_credit_return(self, hook: Optional[Callable[[str, int, int, int], None]]) -> None:
        self._on_credit_return = hook
        self._return_control_credit = (
            FRRouter._return_credit_plain if hook is None else FRRouter._return_credit_observed
        )
        self._refresh_commit_dispatch()

    def _refresh_commit_dispatch(self) -> None:
        observed = (
            self._on_reservation_grant is not None or self._on_credit_return is not None
        )
        self._commit_reservation = (
            FRRouter._commit_reservation_observed
            if observed
            else FRRouter._commit_reservation_plain
        )
        if self._per_flit:
            self._schedule_data_flits = (
                FRRouter._schedule_per_flit_observed if observed else FRRouter._schedule_per_flit
            )

    # -- control plane ----------------------------------------------------------

    def control_phase(self, now: int) -> bool:
        """One cycle of the control plane: credits, arrivals, forward, process.

        Returns whether the router still has control work (queued flits or
        in-flight control/credit deliveries) and must be stepped next cycle.
        The activity predicate is fused into the receive passes: this
        router's own serve step never touches its in-links (it sends only on
        out-links), so a post-receive ``pending`` reading equals a post-serve
        one, and later-stepped neighbors raise the wake flag on send anyway.
        """
        active = False
        for credit_link, port_credits, adv_link, table in self._credit_scan:
            if credit_link.pending:
                if now >= credit_link.next_arrival:
                    for vc in credit_link.receive(now):
                        port_credits[vc] += 1
                    if credit_link.pending:
                        active = True
                else:
                    active = True
            if adv_link.pending:
                if now >= adv_link.next_arrival:
                    for from_cycle in adv_link.receive(now):
                        table.apply_credit(now, from_cycle)
                    if adv_link.pending:
                        active = True
                else:
                    active = True
        for port, link in self._ctrl_in_scan:
            if link.pending:
                if now >= link.next_arrival:
                    for flit in link.receive(now):
                        self.accept_control_flit(self, port, flit.vcid, flit, now)
                    if link.pending:
                        active = True
                else:
                    active = True
        if self._ctrl_total:
            counts = self._ctrl_count
            for port in range(NUM_PORTS):
                if counts[port]:
                    self._serve_control_input(port, now)
        return active or self._ctrl_total > 0

    def _accept_control_plain(self, port: int, vc: int, flit: ControlFlit, now: int) -> None:
        """Insert an arriving control flit into its control VC queue."""
        # Uncredited split flits in staging slots do not count against the
        # credited buffer capacity; the mirror counter tracks credited
        # occupancy so no queue walk is needed here.
        credited = self._ctrl_credited[port]
        if credited[vc] >= self._ctrl_bufs_per_vc:
            raise RuntimeError(
                f"control buffer overflow at node {self.node} port {port} vc {vc}: "
                "control credit protocol violated"
            )
        credited[vc] += 1
        flit.credited = True
        self.ctrl_queues[port][vc].append(flit)
        self._ctrl_count[port] += 1
        self._ctrl_total += 1
        self._ctrl_flags[self.node] = 1

    def _accept_control_observed(self, port: int, vc: int, flit: ControlFlit, now: int) -> None:
        self._accept_control_plain(port, vc, flit, now)
        self._on_control_arrival(flit, self.node, now)

    def _serve_control_input(self, port: int, now: int) -> None:
        queues = self.ctrl_queues[port]
        if self._two_vcs:
            if queues[0]:
                vcs = self.rng.shuffled(self._vc_both) if queues[1] else self._vc_zero
            elif queues[1]:
                vcs = self._vc_one
            else:
                return
        else:
            scratch = self._vcs_scratch
            scratch.clear()
            for vc in range(self._num_vcs):
                if queues[vc]:
                    scratch.append(vc)
            if not scratch:
                return
            # rng.shuffled returns a fresh list, so the scratch buffer is
            # safe to reuse next call either way.
            vcs = scratch if len(scratch) == 1 else self.rng.shuffled(scratch)
        # Forward pass: queue-front flits whose reserved link slot has come
        # move on, freeing their control buffers (the send body lives inline
        # here -- this is the single hottest loop in the simulator).
        route_port = self.route_table[port]
        for vc in vcs:
            queue = queues[vc]
            while queue:
                flit = queue[0]
                if flit.unscheduled:
                    break
                entry = route_port[vc]
                out_port = entry[0]
                if out_port == EJECT:
                    self._consume(port, vc, flit, now)
                    continue  # consumption frees the front; try the next flit
                forward_at = flit.forward_at
                if now >= forward_at:
                    if now > forward_at:
                        raise RuntimeError(
                            f"control flit {flit!r} forwarding at cycle {now} "
                            f"but its reserved link slot was {forward_at}: "
                            "FIFO slot discipline violated"
                        )
                    out_vc = entry[1]
                    del queue[0]
                    self._ctrl_count[port] -= 1
                    self._ctrl_total -= 1
                    flit.vcid = out_vc
                    flit.reset_schedule_flags()
                    # The flit itself is the link payload; the receiver reads
                    # the downstream control VC from ``flit.vcid``.
                    self.ctrl_out_links[out_port].send(flit, now)
                    slots = self._ctrl_link_slots[out_port]
                    slots[now] -= 1
                    if not slots[now]:
                        del slots[now]
                    if flit.is_last:
                        self.ctrl_vc_owned[out_port][out_vc] = False
                        route_port[vc] = None
                    if flit.credited:
                        self._ctrl_credited[port][vc] -= 1
                        self._return_control_credit(self, port, vc, now)
                break  # at most one link forward per VC per cycle
        # Processing pass: route + schedule up to control_flits_per_cycle
        # flits.  Two rules keep the control/data dependency graph acyclic
        # (the cross-dependency hazard the paper's Section 5 points out):
        #
        # 1. Scheduling proceeds *past* a front flit that is merely waiting
        #    for its forward slot -- only forwarding is FIFO.  Otherwise a
        #    waiting control flit would trap the unscheduled data flits of
        #    the flits queued behind it in this node's buffer pool.
        # 2. A control flit commits its reservations only when its onward
        #    journey is secured: downstream control VC, control buffer
        #    credit, and a reserved slot on the control output link are all
        #    claimed in the same step (see _process_flit).  A committed
        #    control flit therefore can never stall behind its own data
        #    flits, so every dependency points forward along XY routes and
        #    terminates at an ejection port.
        budget = self._ctrl_budget
        for vc in vcs:
            if budget <= 0:
                break
            budget = self._schedule_queue(port, vc, now, budget)

    def _schedule_queue(self, port: int, vc: int, now: int, budget: int) -> int:
        """Schedule flits in queue order until the budget or a blocker."""
        queue = self.ctrl_queues[port][vc]
        route_row = self.route_table[port]
        index = 0
        while index < len(queue):
            if budget <= 0:
                return 0
            flit = queue[index]
            if not flit.unscheduled:
                index += 1
                continue
            entry = route_row[vc]
            if flit.is_head and entry is not None and entry[2] != flit.packet.packet_id:
                # The previous packet still owns this control VC's routing
                # entry; the new packet waits for it to finish forwarding.
                return budget
            budget -= 1
            outcome = self._process_flit(port, vc, flit, now)
            if outcome == "done":
                if route_row[vc][0] == EJECT and index == 0:
                    self._consume(port, vc, flit, now)
                    continue  # the queue shrank; re-examine the new front
                index += 1
            elif outcome == "split":
                # A split control flit was inserted before the residual; the
                # residual is still unscheduled and blocks FIFO forwarding,
                # so nothing behind it may reserve a link slot this cycle.
                return budget
            else:
                return budget  # later flits share the blocked output
        return budget

    def _process_flit(self, port: int, vc: int, flit: ControlFlit, now: int) -> str:
        """Route, secure forward resources, schedule, and commit -- atomically.

        Returns "done" when the flit is fully scheduled (with its forward
        slot reserved), "split" when a partially scheduled wide control flit
        forwarded its progress as a split flit (see below), and "stall" when
        nothing was committed and the flit retries next cycle.

        Deadlock-avoidance extension for wide control flits (d > 1, per-flit
        policy): the paper lets each successfully scheduled data flit move on
        immediately, but a control flit stalled mid-group would then sit
        behind its own advanced data flits -- they fill the next node's pool
        and can only be scheduled onward by this very control flit, a
        self-cycle the paper's Section 5 leaves open.  Here a stalled
        mid-group flit *splits*: a control flit carrying the scheduled
        arrival times forwards at once (control flits carry "up to N" data
        flits, so a partially filled one is protocol-legal) while the
        residual keeps retrying.  With d=1, the paper's configuration, the
        split path never triggers.
        """
        entry = self.route_table[port][vc]
        if entry is None:
            if not flit.is_head:
                raise RuntimeError(
                    f"control body flit {flit!r} with no routing-table entry at "
                    f"node {self.node}: VCID discipline violated"
                )
            out_port = self.routing.output_port(self.node, flit.destination)
            entry = [out_port, -1, flit.packet.packet_id]
            self.route_table[port][vc] = entry
        out_port = entry[0]
        if out_port == EJECT:
            if not self._schedule_data_flits(self, port, flit, out_port, now):
                self.schedule_stalls += 1
                if self.on_reservation_deny is not None:
                    self.on_reservation_deny(flit, out_port, now)
                return "stall"
            return "done"
        # Secure the onward journey before committing any reservation.
        out_vc = entry[1]
        if out_vc == -1:
            owned = self.ctrl_vc_owned[out_port]
            out_credits = self.ctrl_credits[out_port]
            candidates = self._cand_scratch
            candidates.clear()
            for v in range(self._num_vcs):
                if not owned[v] and out_credits[v] > 0:
                    candidates.append(v)
            if not candidates:
                self.forward_stalls += 1
                return "stall"
            out_vc = candidates[0] if len(candidates) == 1 else self.rng.choice(candidates)
        elif self.ctrl_credits[out_port][out_vc] <= 0:
            self.forward_stalls += 1
            return "stall"
        if not self._schedule_data_flits(self, port, flit, out_port, now):
            self.schedule_stalls += 1
            if self.on_reservation_deny is not None:
                self.on_reservation_deny(flit, out_port, now)
            if self._per_flit and any(flit.scheduled):
                return self._split_and_forward(port, vc, flit, entry, out_vc, now)
            return "stall"
        # Commit the forward resources claimed above.
        if entry[1] == -1:
            entry[1] = out_vc
            self.ctrl_vc_owned[out_port][out_vc] = True
        self.ctrl_credits[out_port][out_vc] -= 1
        flit.forward_at = self._reserve_link_slot(port, vc, out_port, now)
        return "done"

    def _split_and_forward(
        self,
        port: int,
        vc: int,
        flit: ControlFlit,
        entry: list[int],
        out_vc: int,
        now: int,
    ) -> str:
        """Forward a stalled wide control flit's progress as a split flit."""
        out_port = entry[0]
        split = flit.split_scheduled()
        if entry[1] == -1:
            entry[1] = out_vc
            self.ctrl_vc_owned[out_port][out_vc] = True
        self.ctrl_credits[out_port][out_vc] -= 1
        split.forward_at = self._reserve_link_slot(port, vc, out_port, now)
        split.credited = False  # staging slot; the residual holds the credit
        queue = self.ctrl_queues[port][vc]
        queue.insert(queue.index(flit), split)
        self._ctrl_count[port] += 1
        self._ctrl_total += 1
        self.splits_performed += 1
        return "split"

    def _reserve_link_slot(self, port: int, vc: int, out_port: int, now: int) -> int:
        """Claim the earliest control-link slot this flit may forward in.

        Slots are strictly increasing per control VC so forwarding stays
        FIFO and every reserved slot is honoured exactly.
        """
        slots = self._ctrl_link_slots[out_port]
        width = self.ctrl_out_links[out_port].width
        cycle = max(now + 1, self._last_ctrl_slot[port][vc] + 1)
        while slots.get(cycle, 0) >= width:
            cycle += 1
        slots[cycle] = slots.get(cycle, 0) + 1
        self._last_ctrl_slot[port][vc] = cycle
        return cycle

    def _schedule_per_flit(
        self, port: int, flit: ControlFlit, out_port: int, now: int
    ) -> bool:
        # The fused reserve_earliest commits the earliest slot that clears
        # both the output table and this input's read-port constraint --
        # exactly the retry loop _find_departure runs, without re-scans.
        # The commit body (_commit_reservation_plain) is inlined here; with
        # any grant/credit hook attached the dispatch slot points at
        # _schedule_per_flit_observed instead, which routes each commit
        # through the observed variant.
        arrival_times = flit.arrival_times
        sched = self.input_sched[port]
        table = self.out_tables[out_port]
        if len(arrival_times) == 1:
            # d = 1 (the paper's configuration): exactly one data flit, and
            # it is unscheduled (callers only process flits with unscheduled
            # work), so the general loop collapses to a straight line.
            arrival = arrival_times[0]
            earliest = arrival if arrival > now else now + 1
            departure = table.reserve_earliest(
                now, earliest, sched.port_uses, self._read_limit
            )
            if departure is None:
                return False
            sched.on_reservation(now, arrival, departure, out_port)
            self._dep_flags[self.node] = 1
            credit_from = departure + self._margin
            if port == INJECT:
                self.ni_advance_credit(now, credit_from)
            else:
                self.adv_credit_out[port].send(credit_from, now)
            flit.scheduled[0] = True
            flit.unscheduled -= 1
            arrival_times[0] = (
                departure if out_port == EJECT else departure + self._data_delay
            )
            return True
        port_uses = sched.port_uses
        limit = self._read_limit
        scheduled = flit.scheduled
        margin = self._margin
        delay = 0 if out_port == EJECT else self._data_delay
        adv_out = None if port == INJECT else self.adv_credit_out[port]
        for i in range(len(arrival_times)):
            if scheduled[i]:
                continue
            arrival = arrival_times[i]
            earliest = arrival if arrival > now else now + 1
            departure = table.reserve_earliest(now, earliest, port_uses, limit)
            if departure is None:
                return False
            sched.on_reservation(now, arrival, departure, out_port)
            self._dep_flags[self.node] = 1
            # The buffer frees at the departure; plesiochronous links hold
            # it a margin longer in case the transmit clock slips (Sec. 5).
            credit_from = departure + margin
            if adv_out is None:
                self.ni_advance_credit(now, credit_from)
            else:
                adv_out.send(credit_from, now)
            scheduled[i] = True
            flit.unscheduled -= 1
            arrival_times[i] = departure + delay
        return True

    def _schedule_per_flit_observed(
        self, port: int, flit: ControlFlit, out_port: int, now: int
    ) -> bool:
        # Lockstep twin of _schedule_per_flit that commits through the
        # _commit_reservation dispatch slot so the hooks fire.
        table = self.out_tables[out_port]
        port_uses = self.input_sched[port].port_uses
        limit = self._read_limit
        arrival_times = flit.arrival_times
        scheduled = flit.scheduled
        for i in range(len(flit.data_flits)):
            if scheduled[i]:
                continue
            arrival = arrival_times[i]
            earliest = arrival if arrival > now else now + 1
            departure = table.reserve_earliest(now, earliest, port_uses, limit)
            if departure is None:
                return False
            self._commit_reservation(self, port, flit, i, departure, out_port, now)
        return True

    def _find_departure(
        self, port: int, table: OutputReservationTable, now: int, earliest: int
    ) -> int | None:
        """Earliest departure satisfying the output table *and* this
        input's buffer read ports (paper footnote 7: one "Buffer Out" row
        unless the input buffer is multi-ported)."""
        scheduler = self.input_sched[port]
        limit = self._read_limit
        while True:
            departure = table.find_departure(now, earliest)
            if departure is None or scheduler.departures_at(departure) < limit:
                return departure
            earliest = departure + 1

    def _schedule_all_or_nothing(
        self, port: int, flit: ControlFlit, out_port: int, now: int
    ) -> bool:
        table = self.out_tables[out_port]
        tentative: list[tuple[int, int]] = []
        for i in range(len(flit.data_flits)):
            arrival = flit.arrival_times[i]
            departure = self._find_departure(port, table, now, max(arrival, now + 1))
            if departure is None:
                for _, earlier in tentative:
                    table.release(earlier)
                return False
            table.reserve(now, departure)
            tentative.append((i, departure))
        for i, departure in tentative:
            self._commit_reservation(self, port, flit, i, departure, out_port, now)
        return True

    def _commit_reservation_plain(
        self, port: int, flit: ControlFlit, i: int, departure: int, out_port: int, now: int
    ) -> None:
        arrival = flit.arrival_times[i]
        self.input_sched[port].on_reservation(now, arrival, departure, out_port)
        self._dep_flags[self.node] = 1
        # The buffer frees at the departure; plesiochronous links hold it a
        # margin longer in case the transmit clock slips (Section 5).
        credit_from = departure + self._margin
        if port == INJECT:
            self.ni_advance_credit(now, credit_from)
        else:
            self.adv_credit_out[port].send(credit_from, now)
        flit.scheduled[i] = True
        flit.unscheduled -= 1
        if out_port == EJECT:
            flit.arrival_times[i] = departure
        else:
            flit.arrival_times[i] = departure + self._data_delay

    def _commit_reservation_observed(
        self, port: int, flit: ControlFlit, i: int, departure: int, out_port: int, now: int
    ) -> None:
        # Lockstep twin of _commit_reservation_plain; the hooks fire at the
        # exact points they always did (before the schedule-flag/arrival-time
        # rewrite, which observers may read through the flit).
        arrival = flit.arrival_times[i]
        self.input_sched[port].on_reservation(now, arrival, departure, out_port)
        self._dep_flags[self.node] = 1
        credit_from = departure + self._margin
        if port == INJECT:
            self.ni_advance_credit(now, credit_from)
        else:
            self.adv_credit_out[port].send(credit_from, now)
        if self._on_reservation_grant is not None:
            self._on_reservation_grant(flit, i, out_port, departure, now)
        if self._on_credit_return is not None:
            self._on_credit_return("advance", port, credit_from, now)
        flit.scheduled[i] = True
        flit.unscheduled -= 1
        if out_port == EJECT:
            flit.arrival_times[i] = departure
        else:
            flit.arrival_times[i] = departure + self._data_delay

    def _consume(self, port: int, vc: int, flit: ControlFlit, now: int) -> None:
        """Deliver a control flit to the local reassembly machinery."""
        del self.ctrl_queues[port][vc][0]
        self._ctrl_count[port] -= 1
        self._ctrl_total -= 1
        if flit.is_last:
            self.route_table[port][vc] = None
        if flit.credited:
            self._ctrl_credited[port][vc] -= 1
            self._return_control_credit(self, port, vc, now)
        self.consume_control(flit, now)

    def _return_credit_plain(self, port: int, vc: int, now: int) -> None:
        if port == INJECT:
            self.ni_control_credits[vc] += 1
        else:
            self.ctrl_credit_out[port].send(vc, now)

    def _return_credit_observed(self, port: int, vc: int, now: int) -> None:
        self._return_credit_plain(port, vc, now)
        self._on_credit_return("control", port, vc, now)

    # -- data plane ---------------------------------------------------------------

    def data_departures(self, now: int) -> bool:
        """Drive scheduled buffer reads onto output links (or eject).

        Returns whether departures remain scheduled for future cycles.
        """
        active = False
        schedulers = self.input_sched
        eject = self.eject_data
        data_out = self.data_out_links
        for port in range(NUM_PORTS):
            scheduler = schedulers[port]
            # Every scheduled departure has a port_uses entry until the
            # cycle it departs, so an empty dict proves take_departures
            # would be a no-op for this input -- and so would any cycle
            # before the earliest outstanding departure (both pops keyed
            # by cycles that are all still in the future).
            port_uses = scheduler.port_uses
            if port_uses:
                if now >= scheduler.next_departure:
                    departures = scheduler.take_departures(scheduler, now)
                    if departures:
                        for flit, out_port in departures:
                            if out_port == EJECT:
                                eject(flit, now)
                            else:
                                data_out[out_port].send(flit, now)
                    if port_uses:
                        active = True
                else:
                    active = True
        return active

    def data_arrivals(self, now: int) -> bool:
        """Write arriving flits to their allocated buffers or bypass them.

        Returns whether data flits are still in flight toward this router.
        """
        active = False
        for port, link in self._data_in_scan:
            if link.pending:
                if now >= link.next_arrival:
                    for flit in link.receive(now):
                        self._accept_data(self, port, flit, now)
                    if link.pending:
                        active = True
                else:
                    active = True
        return active

    def inject_data(self, flit: DataFlit, now: int) -> None:
        """The NI delivers a data flit to the local input at its reserved cycle."""
        self._accept_data(self, INJECT, flit, now)

    def _accept_data_plain(self, port: int, flit: DataFlit, now: int) -> None:
        scheduler = self.input_sched[port]
        bypass_port = scheduler.on_arrival(scheduler, now, flit)
        if bypass_port is not None:
            if bypass_port == EJECT:
                self.eject_data(flit, now)
            else:
                self.data_out_links[bypass_port].send(flit, now)

    def _accept_data_observed(self, port: int, flit: DataFlit, now: int) -> None:
        self._on_data_arrival(flit, self.node, now)
        self._accept_data_plain(port, flit, now)

    # -- introspection ---------------------------------------------------------------

    def buffered_flits(self, port: int) -> int:
        """Occupied data buffers at one input (Section 4.2 occupancy study)."""
        return self.input_sched[port].occupancy

    def buffered_total(self) -> int:
        """Occupied data buffers summed over every input of this router."""
        total = 0
        for scheduler in self.input_sched:
            total += scheduler.occupancy
        return total

    def reservation_busy_total(self) -> int:
        """Reserved slots summed over every output reservation table."""
        total = 0
        for table in self.out_tables:
            if table is not None:
                total += table.busy_slots()
        return total
