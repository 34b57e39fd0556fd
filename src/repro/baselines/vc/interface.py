"""The node interface (NI) for the virtual-channel network.

The NI holds an unbounded source queue of packets (source queueing time is
part of the paper's latency definition), expands the packet at the front
into flits, claims an injection virtual channel, and feeds the router's
local input port at one flit per cycle, subject to the same credit rules as
any other input.  On-node wiring is short, so NI credits return without link
delay.
"""

from __future__ import annotations

from collections import deque

from repro.baselines.vc.config import VCConfig
from repro.baselines.vc.flits import VCFlit, packet_to_flits
from repro.baselines.vc.router import VCRouter
from repro.sim.rng import DeterministicRng
from repro.topology.mesh import INJECT
from repro.traffic.packet import Packet


class VCNodeInterface:
    """Injects packets into one router's local input port."""

    __slots__ = (
        "router",
        "config",
        "rng",
        "packet_queue",
        "_pending",
        "_inject_vc",
        "_credits",
        "_shared_credits",
        "_owned",
        "_num_vcs",
        "_bufs_per_vc",
        "_pool_mode",
        "_when_empty",
    )

    def __init__(self, router: VCRouter, config: VCConfig, rng: DeterministicRng) -> None:
        self.router = router
        self.config = config
        self.rng = rng
        self.packet_queue: deque[Packet] = deque()
        self._pending: deque[VCFlit] = deque()
        self._inject_vc = -1
        self._credits = [config.buffers_per_vc] * config.num_vcs
        # A one-element list, so the router can return shared credits to it.
        self._shared_credits = [config.buffers_per_input - config.num_vcs]
        self._owned = [False] * config.num_vcs
        # Hot-path copies of the (frozen) config, as in VCRouter.
        self._num_vcs = config.num_vcs
        self._bufs_per_vc = config.buffers_per_vc
        self._pool_mode = config.buffer_sharing == "pool"
        self._when_empty = config.vc_reallocation == "when_empty"
        # Credits come back on-node: the router gets the counts themselves,
        # never a method of this NI (which holds the router).
        router.ni_credits = self._credits
        router.ni_shared_credits = self._shared_credits

    def enqueue(self, packet: Packet) -> None:
        """Accept a freshly created packet into the source queue."""
        self.packet_queue.append(packet)

    @property
    def queue_length(self) -> int:
        """Packets waiting or partially injected (the warm-up signal)."""
        return len(self.packet_queue) + (1 if self._pending else 0)

    @property
    def current_packet(self) -> Packet | None:
        """The packet whose flits are being injected, if one is under way."""
        return self._pending[0].packet if self._pending else None

    def inject(self, cycle: int) -> bool:
        """Try to push one flit into the router's local input this cycle.

        Returns whether the NI still has flits or packets to inject (the
        network worklist predicate; a credit-stalled NI stays active until
        its backlog drains, so credit returns never need to wake it).
        """
        pending = self._pending
        if not pending:
            if not self.packet_queue:
                return False
            self._start_next_packet()
            if not pending:
                return True  # no free injection VC; retry next cycle
        vc = self._inject_vc
        credits = self._credits
        if self._pool_mode:
            if credits[vc] < self._bufs_per_vc:
                # The VC's dedicated slot is taken; this flit needs a shared one.
                shared = self._shared_credits
                if shared[0] <= 0:
                    return True
                shared[0] -= 1
        elif credits[vc] <= 0:
            return True
        flit = pending.popleft()
        credits[vc] -= 1
        router = self.router
        router.accept_flit(router, INJECT, vc, flit, cycle)
        if not pending:
            self._owned[vc] = False
            self._inject_vc = -1
        return bool(pending or self.packet_queue)

    def _start_next_packet(self) -> None:
        owned = self._owned
        credits = self._credits
        when_empty = self._when_empty
        bufs_per_vc = self._bufs_per_vc
        # 'when_empty' also waits until the router's input VC has drained.
        free = [
            vc
            for vc in range(self._num_vcs)
            if not owned[vc] and (not when_empty or credits[vc] == bufs_per_vc)
        ]
        if not free:
            return
        vc = self.rng.choice(free)
        packet = self.packet_queue.popleft()
        self._pending.extend(packet_to_flits(packet))
        self._inject_vc = vc
        owned[vc] = True
