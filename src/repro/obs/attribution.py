"""Per-packet critical-path latency attribution over the event bus.

The paper's central claim is about *where* latency goes: flit-reservation
flow control removes buffer turnaround (propagation + credit delay) and
routing/arbitration from the data path, which is why its latency curves sit
below virtual-channel flow control's.  A :class:`LatencyAttributor`
demonstrates that mechanism instead of only its endpoint: it subscribes to
the typed event bus at field level (no event record is built on its
account), reconstructs each packet's lifecycle from the events the probe
already publishes, and decomposes the packet's end-to-end latency into
named components that **sum exactly** to the measured latency.

The decomposition follows the packet's *critical flit* -- the flit whose
ejection completes the packet -- through a chain of milestones: creation,
arrival at the source router, per-hop dwells, per-hop link traversals, and
the final ejection.  Components are differences of consecutive milestones,
so conservation is exact by telescoping; any reconstruction that cannot
produce non-negative components from a complete milestone chain is counted
in ``unattributed`` rather than silently fudged.

Component taxonomy (shared across models; a component a model's data path
cannot produce is structurally zero for it, which *is* the paper's point):

``source_queueing``
    Creation to the critical flit's arrival at the source router.  Covers
    NI queueing, serialization behind earlier flits, VC allocation (VC/
    wormhole) or control processing + injection-slot reservation and the
    configured injection lead (FR).
``routing_arbitration``
    The mandatory one-cycle routing/arbitration pipeline per intermediate
    router hop (VC/wormhole).  Zero for FR: data flits are pre-scheduled
    and never arbitrate.
``turnaround_stall``
    Time beyond that pipeline cycle spent waiting in an input buffer for a
    credit to return or an arbitration to be won (VC/wormhole) -- the
    buffer-turnaround inefficiency of the paper's Figure 1.  Zero for FR.
``reservation_wait``
    Time a data flit waits in (or bypasses) an input buffer for its
    reserved departure slot (FR).  Zero for VC/wormhole.
``channel_traversal``
    Cycles spent on inter-router data links: the physical lower bound.
``ejection``
    Dwell at the destination router from the critical flit's arrival to
    its ejection (an eject-port arbitration in VC/wormhole, a reserved --
    usually bypassed -- ejection slot in FR).

Storage: a delivered packet is reconstructed and checked once, at delivery,
and kept as one fixed-width row of ints (:data:`ROW_FIELDS`) plus its
critical flit's (cycle, node) milestone chain, in stdlib ``array`` columns:
no per-packet object, nothing for the garbage collector to track.  The
summary and the trace waterfall read the rows; :class:`PacketAttribution`
objects are built only when ``records`` or ``measured_records()`` is read.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

from repro.obs import events as ev
from repro.obs.events import EventBus, FieldSubscriber

if TYPE_CHECKING:
    from repro.sim.netbase import NetworkModel

#: Every latency component, in waterfall (milestone) order.
COMPONENTS: tuple[str, ...] = (
    "source_queueing",
    "routing_arbitration",
    "turnaround_stall",
    "reservation_wait",
    "channel_traversal",
    "ejection",
)

#: Model names, indexed by a row's ``model`` field.
MODELS: tuple[str, ...] = ("fr", "vc")
_FR, _VC = range(len(MODELS))

#: The fields of one kept row, in storage order: the packet, its critical
#: flit's path, the two flags, then one total per component.
ROW_FIELDS: tuple[str, ...] = (
    "packet_id",
    "source",
    "destination",
    "created_cycle",
    "delivered_cycle",
    "critical_flit",
    "hops",
    "denies",
    "measured",
    "model",
    *COMPONENTS,
)
_STRIDE = len(ROW_FIELDS)
_SOURCE = ROW_FIELDS.index("source")
_CREATED = ROW_FIELDS.index("created_cycle")
_MEASURED = ROW_FIELDS.index("measured")
_MODEL = ROW_FIELDS.index("model")
_FIRST_COMPONENT = ROW_FIELDS.index(COMPONENTS[0])

#: The event kinds the attributor consumes (probes gate hook installation
#: on these via ``bus.wants``, so attaching an attributor never pays for
#: buffer or credit events).
SUBSCRIBED_KINDS: tuple[str, ...] = (
    ev.PACKET_CREATED,
    ev.DATA_ARRIVAL,
    ev.FLIT_FORWARD,
    ev.DATA_EJECT,
    ev.RESERVATION_DENY,
    ev.PACKET_DELIVERED,
)

# Per-flit timeline entry tags (compact ints, hot path).
_ARRIVAL = 0
_FORWARD = 1
_EJECT = 2


class AttributionError(ValueError):
    """A lifecycle that should be attributable failed its invariants."""


class Segment(NamedTuple):
    """One contiguous span of a packet's life assigned to one component."""

    component: str
    start: int
    end: int
    node: int

    @property
    def cycles(self) -> int:
        return self.end - self.start


class PacketSpans(NamedTuple):
    """One packet's waterfall: the part of a record a trace renders."""

    packet_id: int
    source: int
    segments: tuple[Segment, ...]


def _check_components(packet_id: int, components: dict[str, int], latency: int) -> None:
    total = sum(components.values())
    if total != latency:
        raise AttributionError(
            f"packet {packet_id}: components sum to {total} but "
            f"measured latency is {latency}"
        )
    if min(components.values(), default=0) < 0:
        negative = {k: v for k, v in components.items() if v < 0}
        raise AttributionError(f"packet {packet_id}: negative components {negative}")


@dataclass(frozen=True, slots=True)
class PacketAttribution:
    """One packet's end-to-end latency, decomposed.

    ``components`` maps every name in :data:`COMPONENTS` to its cycle
    count; the values sum exactly to ``latency`` (enforced at
    construction).  ``segments`` is the same decomposition as absolute
    intervals in milestone order, ready for a waterfall rendering;
    zero-length spans are omitted.
    """

    packet_id: int
    source: int
    destination: int
    created_cycle: int
    delivered_cycle: int
    model: str  # "fr" | "vc"
    critical_flit: int
    hops: int  # inter-router links traversed by the critical flit
    denies: int  # reservation_deny events seen for this packet (FR)
    measured: bool
    components: dict[str, int]
    segments: tuple[Segment, ...]

    @property
    def latency(self) -> int:
        return self.delivered_cycle - self.created_cycle

    def __post_init__(self) -> None:
        _check_components(self.packet_id, self.components, self.latency)


# -- decomposition ------------------------------------------------------------
#
# A milestone chain is the critical flit's (cycle, node) milestones as two
# parallel sequences, the ejection last.  Each rule turns a chain into spans
# (component, start, end, node) -- zero-length spans count toward their
# component but are not segments -- and the hop count.  The same rule runs
# at delivery (to check and total the components) and on read (to rebuild
# the segments), so the two cannot disagree.

_Span = tuple[str, int, int, int]
_Decomposer = Callable[
    [int, int, int, Sequence[int], Sequence[int], int], tuple[list[_Span], int]
]


def _decompose_fr(
    packet_id: int,
    created: int,
    source: int,
    cycles: Sequence[int],
    nodes: Sequence[int],
    delay: int,
) -> tuple[list[_Span], int]:
    """FR critical path: arrivals at each node plus the final ejection.

    A hop's departure is not a separate event; with deterministic link
    delivery it is exactly the next hop's arrival minus the data link
    delay, so the per-hop dwell (``reservation_wait``) and the link
    time split without ambiguity.
    """
    last = len(cycles) - 2  # the last arrival; the ejection follows it
    spans: list[_Span] = [("source_queueing", created, cycles[0], nodes[0])]
    for index in range(last):
        cycle, next_cycle, node = cycles[index], cycles[index + 1], nodes[index]
        departure = next_cycle - delay
        if departure < cycle:
            raise AttributionError(
                f"packet {packet_id}: consecutive arrivals {cycle} -> "
                f"{next_cycle} closer than the {delay}-cycle link delay"
            )
        spans.append(("reservation_wait", cycle, departure, node))
        spans.append(("channel_traversal", departure, next_cycle, node))
    last_cycle, last_node = cycles[last], nodes[last]
    eject_cycle, eject_node = cycles[-1], nodes[-1]
    if eject_node != last_node or eject_cycle < last_cycle:
        raise AttributionError(
            f"packet {packet_id}: ejection at node {eject_node} cycle "
            f"{eject_cycle} does not follow the last arrival at node "
            f"{last_node} cycle {last_cycle}"
        )
    spans.append(("ejection", last_cycle, eject_cycle, last_node))
    return spans, last


def _decompose_vc(
    packet_id: int,
    created: int,
    source: int,
    cycles: Sequence[int],
    nodes: Sequence[int],
    delay: int,
) -> tuple[list[_Span], int]:
    """VC/wormhole critical path: an (arrival, forward) pair per router.

    Every router dwell ends in an observed ``flit_forward``; the final
    forward is the ejection crossing (the ``data_eject`` event shares
    its cycle).  Intermediate dwells split into the mandatory 1-cycle
    routing/arbitration stage plus any turnaround stall beyond it; the
    destination dwell is the ejection component.
    """
    eject = len(cycles) - 1
    for index in range(0, eject, 2):
        arrival, forward = cycles[index], cycles[index + 1]
        if forward < arrival or nodes[0] != source:
            raise AttributionError(
                f"packet {packet_id}: dwell at node {nodes[index]} runs backwards "
                f"({arrival} -> {forward})"
            )
    last = eject - 2  # the destination's arrival
    if nodes[last] != nodes[eject] or cycles[last + 1] != cycles[eject]:
        raise AttributionError(
            f"packet {packet_id}: final forward (node {nodes[last]}, cycle "
            f"{cycles[last + 1]}) is not the ejection (node {nodes[eject]}, "
            f"cycle {cycles[eject]})"
        )
    spans: list[_Span] = [("source_queueing", created, cycles[0], source)]
    for index in range(0, last, 2):
        arrival, forward, node = cycles[index], cycles[index + 1], nodes[index]
        pipeline_end = min(arrival + 1, forward)
        spans.append(("routing_arbitration", arrival, pipeline_end, node))
        spans.append(("turnaround_stall", pipeline_end, forward, node))
        spans.append(("channel_traversal", forward, cycles[index + 2], node))
    spans.append(("ejection", cycles[last], cycles[last + 1], nodes[last]))
    return spans, last // 2


#: The decomposition rule of each model, indexed like :data:`MODELS`.
_DECOMPOSERS: tuple[_Decomposer, ...] = (_decompose_fr, _decompose_vc)


def _milestones(
    packet_id: int, model: int, timeline: list[tuple[int, int, int]]
) -> tuple[list[int], list[int]]:
    """Check a critical flit's timeline's shape; return its milestone chain."""
    moves = [entry for entry in timeline if entry[1] != _EJECT]
    ejects = [entry for entry in timeline if entry[1] == _EJECT]
    if model == _FR:
        if len(ejects) != 1 or len(moves) < 2:
            raise AttributionError(
                f"packet {packet_id}: flit-reservation milestone chain has "
                f"{len(moves)} arrivals and {len(ejects)} ejections"
            )
    elif not (
        len(ejects) == 1
        and len(moves) >= 2
        and len(moves) % 2 == 0
        and all(entry[1] == (_ARRIVAL, _FORWARD)[i % 2] for i, entry in enumerate(moves))
    ):
        raise AttributionError(
            f"packet {packet_id}: virtual-channel milestone chain is not "
            f"an arrival/forward alternation ({len(moves)} moves, "
            f"{len(ejects)} ejections)"
        )
    chain = moves + ejects
    return [entry[0] for entry in chain], [entry[2] for entry in chain]


class _OpenPacket:
    """Event accumulator for a packet between creation and delivery."""

    __slots__ = ("created", "source", "flits", "denies", "has_forwards")

    def __init__(self, created: int, source: int) -> None:
        self.created = created
        self.source = source
        # flit index -> [(cycle, tag, node), ...] in emission (= time) order.
        self.flits: dict[int, list[tuple[int, int, int]]] = {}
        self.denies = 0
        self.has_forwards = False


class LatencyAttributor:
    """Reconstructs packet lifecycles from bus events and attributes them.

    Subscribe it to a bus *before* a probe attaches (``subscribe`` sets the
    kinds ``bus.wants``, and the probe hooks only those), or construct it
    with the bus directly::

        bus = EventBus()
        attributor = LatencyAttributor(bus)
        probe = NetworkProbe(bus).attach(network)
        attributor.configure_for(network)
        ... run ...
        records = attributor.records

    ``data_link_delay`` is needed for flit-reservation streams (the data
    plane emits no departure event; a hop's departure is recovered as the
    next hop's arrival minus the link delay).  ``configure_for`` reads it
    from a network's configuration.

    The attributor is a pure observer: it holds per-packet state only
    between creation and delivery, and completed packets are kept as rows
    (see the module docstring), bounded by ``capacity`` (discards are
    counted in ``records_dropped``, never silent).  Packets whose lifecycle
    was not fully observed -- created before attach, events missing, or an
    inconsistent milestone chain -- are counted in ``unattributed``;
    ``last_failure`` keeps the most recent reason for debugging.
    """

    def __init__(
        self,
        bus: EventBus | None = None,
        data_link_delay: int = 1,
        capacity: int = 1_000_000,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"attribution capacity must be positive, got {capacity}")
        self.data_link_delay = data_link_delay
        self.capacity = capacity
        self.records_dropped = 0
        self.unattributed = 0
        self.last_failure = ""
        self.window: tuple[int, int] | None = None
        self._open: dict[int, _OpenPacket] = {}
        # Row ``r`` is ``_rows[r * _STRIDE:(r + 1) * _STRIDE]``; its milestone
        # chain is ``_chain[_bounds[r]:_bounds[r + 1]]``, cycles then nodes.
        self._rows = array("q")
        self._chain = array("q")
        self._bounds = array("q", [0])
        if bus is not None:
            self.subscribe(bus)

    # -- wiring --------------------------------------------------------------

    def subscribe(self, bus: EventBus) -> "LatencyAttributor":
        """Subscribe to exactly the kinds the reconstruction needs."""
        bus.subscribe_fields(ev.PACKET_CREATED, self._on_created)
        bus.subscribe_fields(ev.PACKET_DELIVERED, self._on_delivered)
        bus.subscribe_fields(ev.DATA_ARRIVAL, self._on_flit_event(_ARRIVAL))
        bus.subscribe_fields(ev.FLIT_FORWARD, self._on_forward)
        bus.subscribe_fields(ev.DATA_EJECT, self._on_flit_event(_EJECT))
        bus.subscribe_fields(ev.RESERVATION_DENY, self._on_deny)
        return self

    def configure_for(self, network: "NetworkModel") -> "LatencyAttributor":
        """Read model parameters (the data link delay) off a network."""
        config = getattr(network, "config", None)
        delay = getattr(config, "data_link_delay", None)
        if delay is not None:
            self.data_link_delay = int(delay)
        return self

    def note_window(self, start: int, end: int) -> None:
        """Mark packets created in ``[start, end)`` as the measured sample."""
        self.window = (start, end)

    # -- event handlers (field subscribers: the hot path) --------------------

    def _on_created(
        self, cycle: int, node: int, packet_id: int, port: int, vc: int, flit_index: int, value: int
    ) -> None:
        self._open[packet_id] = _OpenPacket(cycle, node)

    def _on_flit_event(self, tag: int) -> FieldSubscriber:
        """A subscriber appending ``tag`` entries to the packet's timeline."""
        open_packet = self._open.get

        def record(
            cycle: int, node: int, packet_id: int, port: int, vc: int, flit_index: int, value: int
        ) -> None:
            state = open_packet(packet_id)
            if state is None:
                return
            timeline = state.flits.get(flit_index)
            if timeline is None:
                state.flits[flit_index] = [(cycle, tag, node)]
            else:
                timeline.append((cycle, tag, node))

        return record

    def _on_forward(
        self, cycle: int, node: int, packet_id: int, port: int, vc: int, flit_index: int, value: int
    ) -> None:
        state = self._open.get(packet_id)
        if state is None:
            return
        state.has_forwards = True
        state.flits.setdefault(flit_index, []).append((cycle, _FORWARD, node))

    def _on_deny(
        self, cycle: int, node: int, packet_id: int, port: int, vc: int, flit_index: int, value: int
    ) -> None:
        state = self._open.get(packet_id)
        if state is not None:
            state.denies += 1

    def _on_delivered(
        self, cycle: int, node: int, packet_id: int, port: int, vc: int, flit_index: int, value: int
    ) -> None:
        state = self._open.pop(packet_id, None)
        if state is None:
            self.unattributed += 1  # created before the attributor attached
            return
        model = _VC if state.has_forwards else _FR
        try:
            critical = self._critical_flit(packet_id, state, cycle)
            cycles, nodes = _milestones(packet_id, model, state.flits[critical])
            spans, hops = _DECOMPOSERS[model](
                packet_id, state.created, state.source, cycles, nodes, self.data_link_delay
            )
            totals = dict.fromkeys(COMPONENTS, 0)
            for component, start, end, _node in spans:
                totals[component] += end - start
            _check_components(packet_id, totals, cycle - state.created)
        except AttributionError as failure:
            self.unattributed += 1
            self.last_failure = str(failure)
            return
        if self.row_count >= self.capacity:
            self.records_dropped += 1
            return
        measured = self.window is not None and (
            self.window[0] <= state.created < self.window[1]
        )
        self._rows.extend(
            (
                packet_id,
                state.source,
                node,
                state.created,
                cycle,
                critical,
                hops,
                state.denies,
                measured,
                model,
                *totals.values(),
            )
        )
        self._chain.extend(cycles)
        self._chain.extend(nodes)
        self._bounds.append(len(self._chain))

    @staticmethod
    def _critical_flit(packet_id: int, state: _OpenPacket, delivered_cycle: int) -> int:
        """The flit whose ejection completed the packet (ties: lowest index)."""
        candidates = sorted(
            index
            for index, timeline in state.flits.items()
            if timeline
            and timeline[-1][1] == _EJECT
            and timeline[-1][0] == delivered_cycle
        )
        if not candidates:
            raise AttributionError(
                f"packet {packet_id}: no flit ejected at the delivery cycle "
                f"{delivered_cycle} (lifecycle only partially observed?)"
            )
        return candidates[0]

    # -- results -------------------------------------------------------------

    @property
    def open_packets(self) -> int:
        """Packets created but not yet delivered (state still held)."""
        return len(self._open)

    @property
    def row_count(self) -> int:
        """Packets attributed and kept (at most ``capacity``)."""
        return len(self._bounds) - 1

    def columns(self, measured_only: bool = False) -> dict[str, Sequence[int]]:
        """Every :data:`ROW_FIELDS` field as a column, in delivery order.

        With ``measured_only`` and a window noted, only the measured rows.
        """
        rows = self._rows
        columns: dict[str, Sequence[int]] = {
            name: rows[index::_STRIDE] for index, name in enumerate(ROW_FIELDS)
        }
        if measured_only and self.window is not None:
            keep = columns["measured"]
            columns = {
                name: [value for value, kept in zip(column, keep) if kept]
                for name, column in columns.items()
            }
        return columns

    def _segments(self, row: int) -> tuple[Segment, ...]:
        """A row's segments, rebuilt from its milestone chain."""
        base = row * _STRIDE
        start, end = self._bounds[row], self._bounds[row + 1]
        middle = (start + end) // 2
        spans, _hops = _DECOMPOSERS[self._rows[base + _MODEL]](
            self._rows[base],
            self._rows[base + _CREATED],
            self._rows[base + _SOURCE],
            self._chain[start:middle],
            self._chain[middle:end],
            self.data_link_delay,
        )
        return tuple(Segment(*span) for span in spans if span[2] > span[1])

    def _record(self, row: int) -> PacketAttribution:
        values = self._rows[row * _STRIDE : (row + 1) * _STRIDE]
        (
            packet_id,
            source,
            destination,
            created,
            delivered,
            critical,
            hops,
            denies,
            measured,
            model,
        ) = values[:_FIRST_COMPONENT]
        return PacketAttribution(
            packet_id=packet_id,
            source=source,
            destination=destination,
            created_cycle=created,
            delivered_cycle=delivered,
            model=MODELS[model],
            critical_flit=critical,
            hops=hops,
            denies=denies,
            measured=bool(measured),
            components=dict(zip(COMPONENTS, values[_FIRST_COMPONENT:])),
            segments=self._segments(row),
        )

    @property
    def records(self) -> list[PacketAttribution]:
        """Every kept packet as a record, in delivery order (built per read)."""
        return [self._record(row) for row in range(self.row_count)]

    def measured_records(self) -> list[PacketAttribution]:
        """The records inside the measurement window (all, if none was set)."""
        if self.window is None:
            return self.records
        rows = self._rows
        return [
            self._record(row)
            for row in range(self.row_count)
            if rows[row * _STRIDE + _MEASURED]
        ]

    def spans(self) -> Iterator[PacketSpans]:
        """Every kept packet's waterfall, in delivery order, from the rows."""
        rows = self._rows
        for row in range(self.row_count):
            base = row * _STRIDE
            yield PacketSpans(rows[base], rows[base + _SOURCE], self._segments(row))
