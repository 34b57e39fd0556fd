"""Flit types for flit-reservation flow control.

A packet of L data flits is led through the network by ``ceil(L / d)``
control flits (paper Figure 2): the *control head flit* carries the packet
destination and the arrival time of the first data flit; each subsequent
control flit carries the arrival times of up to ``d`` more data flits.  All
control flits carry the virtual-channel identifier that ties a packet's
control flits together; the VCID is per-hop state, assigned by control VC
allocation exactly as in virtual-channel flow control.

Data flits contain only payload.  The routers never examine them -- they are
identified solely by arrival time.  The ``packet``/``index`` fields exist so
the node interfaces can account deliveries and so tests can verify that the
time-based schedule delivered the right payloads; a correctness test asserts
the routers themselves never touch them.
"""

from __future__ import annotations

from repro.traffic.packet import Packet


class DataFlit:
    """An anonymous payload flit, identified in the network by arrival time."""

    __slots__ = ("packet", "index", "injection_cycle")

    def __init__(self, packet: Packet, index: int) -> None:
        self.packet = packet
        self.index = index
        # Stamped by the source NI when the flit enters the injection channel;
        # used for the per-flit network latency statistic of Section 4.4.
        self.injection_cycle = -1

    def __repr__(self) -> str:
        return f"DataFlit(pkt={self.packet.packet_id}, #{self.index})"


class ControlFlit:
    """A reservation-making control flit.

    ``arrival_times[i]`` is the (absolute) cycle at which led data flit ``i``
    arrives at the *next* node the control flit visits; the output scheduler
    of each router rewrites it with ``t_d + t_p`` as it makes reservations.
    ``scheduled[i]`` tracks which led flits this router has already reserved,
    so a control flit stalled mid-schedule (per-flit policy) does not reserve
    twice.  ``unscheduled`` mirrors the number of False entries so the hot
    serve loops test completeness with one attribute read; every writer of
    ``scheduled`` keeps it in sync.
    """

    __slots__ = (
        "packet",
        "is_head",
        "is_last",
        "data_flits",
        "arrival_times",
        "scheduled",
        "unscheduled",
        "vcid",
        "forward_at",
        "credited",
    )

    def __init__(
        self,
        packet: Packet,
        is_head: bool,
        is_last: bool,
        data_flits: list[DataFlit],
    ) -> None:
        self.packet = packet
        self.is_head = is_head
        self.is_last = is_last
        self.data_flits = data_flits
        self.arrival_times = [-1] * len(data_flits)
        self.scheduled = [False] * len(data_flits)
        self.unscheduled = len(data_flits)
        self.vcid = -1
        # The control-link slot reserved for this flit's forwarding, fixed
        # when its scheduling at the current hop commits (always at least one
        # cycle after the commit -- the paper's 1-cycle routing and
        # scheduling latency).  -1 while unscheduled or bound for ejection.
        self.forward_at = -1
        # Whether the flit occupies a credited control buffer at its current
        # node.  A freshly created split flit sits in an uncredited staging
        # slot (the original flit holds the credited buffer) until it is
        # accepted at the next hop.
        self.credited = True

    @property
    def destination(self) -> int:
        return self.packet.destination

    def reset_schedule_flags(self) -> None:
        """Clear per-hop scheduling progress before the next router."""
        scheduled = self.scheduled
        for i in range(len(scheduled)):
            scheduled[i] = False
        self.unscheduled = len(scheduled)
        self.forward_at = -1

    def fully_scheduled(self) -> bool:
        return not self.unscheduled

    def split_scheduled(self) -> "ControlFlit":
        """Split off a control flit carrying the already-scheduled flits.

        Used by the deadlock-avoidance extension for wide control flits
        (d > 1): a control flit stalled mid-group may forward its scheduled
        arrival times immediately -- so the data flits that already moved
        ahead can be scheduled onward and release buffers -- while this
        flit keeps the unscheduled remainder and retries.  The split takes
        over head-ness (it travels first); ``is_last`` stays behind with
        the remainder so control VC release still tracks the true tail.
        """
        done = [i for i, flag in enumerate(self.scheduled) if flag]
        if not done or len(done) == len(self.data_flits):
            raise ValueError("can only split a partially scheduled control flit")
        split = ControlFlit(
            self.packet,
            is_head=self.is_head,
            is_last=False,
            data_flits=[self.data_flits[i] for i in done],
        )
        split.arrival_times = [self.arrival_times[i] for i in done]
        split.scheduled = [True] * len(done)
        split.unscheduled = 0
        keep = [i for i, flag in enumerate(self.scheduled) if not flag]
        self.data_flits = [self.data_flits[i] for i in keep]
        self.arrival_times = [self.arrival_times[i] for i in keep]
        self.scheduled = [False] * len(keep)
        self.unscheduled = len(keep)
        self.is_head = False
        return split

    def __repr__(self) -> str:
        role = "head" if self.is_head else "body"
        if self.is_last:
            role += "+last"
        return (
            f"ControlFlit(pkt={self.packet.packet_id}, {role}, "
            f"leads={len(self.data_flits)}, t_a={self.arrival_times})"
        )


class FlitPool:
    """Free-list recycling for data and control flits.

    A network run churns through one ``DataFlit`` per payload flit and one
    ``ControlFlit`` per group, but only a bounded number are ever in flight
    at once.  The network owns one pool and releases flits at their single
    well-defined end of life: a data flit when it ejects at its destination
    (after its latency is recorded), a control flit when the destination
    router consumes it.  ``acquire_*`` reinitialises every field in place --
    including clearing and refilling a recycled control flit's per-group
    lists -- so a recycled flit is indistinguishable from a fresh one, and
    nothing downstream retains flit objects (observers copy scalar fields,
    digests key on packet ids).  Packets are NOT pooled: their identity is
    the unit of accounting everywhere.
    """

    __slots__ = ("_data_free", "_control_free", "data_recycled", "control_recycled")

    def __init__(self) -> None:
        self._data_free: list[DataFlit] = []
        self._control_free: list[ControlFlit] = []
        # Diagnostics: how many acquisitions were served from the free lists.
        self.data_recycled = 0
        self.control_recycled = 0

    def acquire_data(self, packet: Packet, index: int) -> DataFlit:
        if self._data_free:
            flit = self._data_free.pop()
            self.data_recycled += 1
            flit.packet = packet
            flit.index = index
            flit.injection_cycle = -1
            return flit
        return DataFlit(packet, index)

    def release_data(self, flit: DataFlit) -> None:
        self._data_free.append(flit)

    def acquire_control(self, packet: Packet, is_head: bool, is_last: bool) -> ControlFlit:
        """Return a control flit with empty per-group lists, ready to fill."""
        if self._control_free:
            flit = self._control_free.pop()
            self.control_recycled += 1
            flit.packet = packet
            flit.is_head = is_head
            flit.is_last = is_last
            flit.data_flits.clear()
            flit.arrival_times.clear()
            flit.scheduled.clear()
            flit.unscheduled = 0
            flit.vcid = -1
            flit.forward_at = -1
            flit.credited = True
            return flit
        flit = ControlFlit(packet, is_head=is_head, is_last=is_last, data_flits=[])
        return flit

    def release_control(self, flit: ControlFlit) -> None:
        self._control_free.append(flit)


#: Fallback for pool-less expansion (tests, ad-hoc construction).  Nothing
#: ever releases into it, so its free lists stay empty and every acquire
#: constructs a fresh flit -- exactly the un-pooled behavior, single-path.
_FRESH = FlitPool()


def make_control_group(
    packet: Packet, group_index: int, data_flits_per_control: int, pool: FlitPool
) -> ControlFlit:
    """Build one control group of ``packet``: its control flit and led data flits.

    Group ``g`` leads data flits ``g * d`` up to the end of the packet, at
    most ``d`` of them; the first group carries the head flag and the group
    holding the packet's final data flit the last flag.  Flit objects come
    from ``pool``'s free lists, and a recycled control flit's group lists are
    refilled in place.
    """
    length = packet.length
    start = group_index * data_flits_per_control
    stop = start + data_flits_per_control
    if stop > length:
        stop = length
    flit = pool.acquire_control(packet, is_head=group_index == 0, is_last=stop == length)
    group = flit.data_flits
    arrival_times = flit.arrival_times
    scheduled = flit.scheduled
    for i in range(start, stop):
        group.append(pool.acquire_data(packet, i))
        arrival_times.append(-1)
        scheduled.append(False)
    flit.unscheduled = stop - start
    return flit


def packet_to_control_flits(
    packet: Packet, data_flits_per_control: int, pool: FlitPool | None = None
) -> tuple[list[ControlFlit], list[DataFlit]]:
    """Expand a whole packet into its control flit sequence and data flits.

    The node interface builds groups one at a time with
    :func:`make_control_group`; this is the same expansion for all of a
    packet's ``ceil(L / d)`` groups at once.
    """
    d = data_flits_per_control
    if pool is None:
        pool = _FRESH
    n_groups = (packet.length + d - 1) // d
    control_flits = [make_control_group(packet, g, d, pool) for g in range(n_groups)]
    data_flits = [flit for control in control_flits for flit in control.data_flits]
    return control_flits, data_flits
