"""The flit-reservation node interface (NI).

The source side mirrors a router's control plane in miniature.  Packets wait
whole in a FIFO source queue, as in the paper; the head packet is expanded
one control group (a control flit and the data flits it leads) at a time,
only when the previous group has left, so a backlog of waiting packets holds
no flits.  Each cycle up to ``control_flits_per_cycle`` control flits
schedule their data flits' *injection* on the NI's own output reservation table
(tracking the injection channel's busy cycles and the router's local input
buffer pool) and are then injected into the router's local control input --
"control flits are injected only after they have scheduled the injection
times of their data flits" (paper Section 3).  Data flits wait at the NI and
enter the router at exactly their reserved cycle.

In the leading-control regime data flits are additionally deferred
``injection_lead`` cycles behind their control flit, which is the N-cycle
lead of Figures 8 and 9.

The destination side is trivial by design: data flits are ejected into
infinite reassembly buffers at times the control flits scheduled, and the
network model accounts deliveries.
"""

from __future__ import annotations

from collections import deque

from repro.core.config import FRConfig
from repro.core.flits import ControlFlit, DataFlit, FlitPool, make_control_group
from repro.core.reservation import OutputReservationTable
from repro.core.router import FRRouter
from repro.sim.rng import DeterministicRng
from repro.topology.mesh import INJECT
from repro.traffic.packet import Packet


class FRNodeInterface:
    """Injects packets into one flit-reservation router."""

    __slots__ = (
        "router",
        "config",
        "rng",
        "pool",
        "packet_queue",
        "control_queue",
        "injection_table",
        "_data_ready",
        "_ctrl_credits",
        "_ctrl_vc_owned",
        "_inject_vc",
        "_num_vcs",
        "_ctrl_budget",
        "_group_size",
        "_next_group",
        "_per_flit",
        "_lead",
        "_data_flags",
        "_node",
        "packets_pending",
        "data_flits_pending",
    )

    def __init__(
        self,
        router: FRRouter,
        config: FRConfig,
        rng: DeterministicRng,
        pool: FlitPool,
    ) -> None:
        self.router = router
        self.config = config
        self.rng = rng
        self.pool = pool
        # Packets not yet fully expanded, oldest first; the head packet's
        # next group to build is _next_group.  The control queue holds the
        # flits of at most one group (a stalled wide flit's split and its
        # residual are one group).
        self.packet_queue: deque[Packet] = deque()
        self._next_group = 0
        self.control_queue: list[ControlFlit] = []
        self.injection_table = OutputReservationTable(
            config.scheduling_horizon,
            downstream_buffers=config.data_buffers_per_input,
            propagation_delay=0,
        )
        self._data_ready: dict[int, list[DataFlit]] = {}
        self._ctrl_credits = [config.control_buffers_per_vc] * config.control_vcs
        self._ctrl_vc_owned = [False] * config.control_vcs
        self._inject_vc = -1  # control VC of the packet currently injecting
        # Hot-path copies of config scalars (see FRRouter.__init__).
        self._num_vcs = config.control_vcs
        self._ctrl_budget = config.control_flits_per_cycle
        self._group_size = config.data_flits_per_control
        self._per_flit = config.scheduling_policy == "per_flit"
        self._lead = max(config.injection_lead, 1)
        # Wake slot for the data phase, rebound to the network's phase row by
        # bind_activity; the control phase needs no wake because its activity
        # predicate is simply a non-empty control queue (set at enqueue time
        # by the network).
        self._node = router.node
        self._data_flags = bytearray(router.node + 1)
        self.packets_pending = 0
        self.data_flits_pending = 0
        # Credits from the router arrive on-node, with no link delay: it gets
        # the injection table's apply_credit and the control credit counts
        # themselves, never a method of this NI (which holds the router).
        router.ni_advance_credit = self.injection_table.apply_credit
        router.ni_control_credits = self._ctrl_credits

    def bind_activity(self, data_flags: bytearray) -> None:
        """Point this NI's data-phase wake slot at the network's phase row."""
        self._data_flags = data_flags

    def enqueue(self, packet: Packet) -> None:
        """Queue a new packet whole; its flits are made group by group."""
        self.packet_queue.append(packet)
        self.packets_pending += 1
        self.data_flits_pending += packet.length

    @property
    def queue_length(self) -> int:
        """Packets not yet fully handed to the network (warm-up signal)."""
        return self.packets_pending

    # -- control-side cycle -------------------------------------------------------

    def control_phase(self, now: int) -> bool:
        """Schedule data injections and inject control flits, FIFO order.

        Returns whether control flits or packets remain queued (the activity
        predicate: a stalled NI stays active until its queues drain, so credit
        returns never need to wake it).
        """
        budget = self._ctrl_budget
        queue = self.control_queue
        while budget > 0:
            if not queue:
                if not self.packet_queue:
                    return False
                self._queue_next_group()
            flit = queue[0]
            if flit.unscheduled:
                budget -= 1
                if not self._schedule_injections(flit, now):
                    self._maybe_inject_split(flit, now)
                    return True  # head of line stalls: retry next cycle
            if not self._try_inject_control(flit, now):
                return True
        # Injection of later flits continues next cycle; FIFO order preserved.
        return bool(queue) or bool(self.packet_queue)

    def _queue_next_group(self) -> None:
        """Make the head packet's next control group; retire the packet
        from the source queue with its last group."""
        packet = self.packet_queue[0]
        flit = make_control_group(packet, self._next_group, self._group_size, self.pool)
        if flit.is_last:
            self.packet_queue.popleft()
            self._next_group = 0
        else:
            self._next_group += 1
        self.control_queue.append(flit)

    def _maybe_inject_split(self, flit: ControlFlit, now: int) -> None:
        """Forward a stalled wide control flit's progress as a split flit.

        Mirror of the router-side deadlock-avoidance extension: a control
        flit that scheduled some of its data flits' injections but cannot
        place the rest (the router's local pool is booked solid) injects a
        split control flit carrying the scheduled arrival times, so those
        data flits can be scheduled onward at the router and free the pool.
        Only reachable with d > 1 under the per-flit policy.
        """
        if not self._per_flit or not any(flit.scheduled):
            return
        split = flit.split_scheduled()
        self.control_queue.insert(0, split)
        if not self._try_inject_control(split, now):
            # Keep the split queued at the front; it injects when control
            # credits return, still ahead of the residual.
            return

    def _schedule_injections(self, flit: ControlFlit, now: int) -> bool:
        earliest = now + self._lead
        if not self._per_flit:
            return self._schedule_all_or_nothing(flit, now, earliest)
        table = self.injection_table
        scheduled = flit.scheduled
        for i in range(len(flit.data_flits)):
            if scheduled[i]:
                continue
            departure = table.reserve_earliest(now, earliest)
            if departure is None:
                return False
            self._commit_injection(flit, i, departure)
        return True

    def _schedule_all_or_nothing(self, flit: ControlFlit, now: int, earliest: int) -> bool:
        tentative: list[tuple[int, int]] = []
        for i in range(len(flit.data_flits)):
            departure = self.injection_table.find_departure(now, earliest)
            if departure is None:
                for _, earlier in tentative:
                    self.injection_table.release(earlier)
                return False
            self.injection_table.reserve(now, departure)
            tentative.append((i, departure))
        for i, departure in tentative:
            self._commit_injection(flit, i, departure)
        return True

    def _commit_injection(self, flit: ControlFlit, i: int, departure: int) -> None:
        # The injection channel is on-node: the flit reaches the router's
        # local input the cycle it leaves the NI (propagation 0), so the
        # arrival time the control flit carries is the departure itself.
        flit.arrival_times[i] = departure
        flit.scheduled[i] = True
        flit.unscheduled -= 1
        bucket = self._data_ready.get(departure)
        if bucket is None:
            self._data_ready[departure] = bucket = []
        bucket.append(flit.data_flits[i])
        self._data_flags[self._node] = 1

    def _try_inject_control(self, flit: ControlFlit, now: int) -> bool:
        if flit.is_head:
            if self._inject_vc == -1:
                free = [
                    vc
                    for vc in range(self._num_vcs)
                    if not self._ctrl_vc_owned[vc]
                ]
                if not free:
                    return False
                self._inject_vc = free[0] if len(free) == 1 else self.rng.choice(free)
                self._ctrl_vc_owned[self._inject_vc] = True
        vc = self._inject_vc
        if vc == -1:
            raise RuntimeError("control body flit injecting with no VC allocated")
        if self._ctrl_credits[vc] <= 0:
            return False
        del self.control_queue[0]
        flit.vcid = vc
        flit.reset_schedule_flags()
        self._ctrl_credits[vc] -= 1
        router = self.router
        router.accept_control_flit(router, INJECT, vc, flit, -1)
        if flit.is_last:
            self._ctrl_vc_owned[vc] = False
            self._inject_vc = -1
            self.packets_pending -= 1
        return True

    # -- data-side cycle ------------------------------------------------------------

    def data_phase(self, now: int) -> bool:
        """Deliver data flits whose reserved injection cycle is now.

        Returns whether reserved injections remain for future cycles.
        """
        ready = self._data_ready
        if not ready:
            return False
        flits = ready.pop(now, None)
        if flits is not None:
            router = self.router
            for flit in flits:
                flit.injection_cycle = now
                self.data_flits_pending -= 1
                router.inject_data(flit, now)
        return bool(ready)
