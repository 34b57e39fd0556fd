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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

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
        total = sum(self.components.values())
        if total != self.latency:
            raise AttributionError(
                f"packet {self.packet_id}: components sum to {total} but "
                f"measured latency is {self.latency}"
            )
        if min(self.components.values(), default=0) < 0:
            negative = {k: v for k, v in self.components.items() if v < 0}
            raise AttributionError(
                f"packet {self.packet_id}: negative components {negative}"
            )


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
    between creation and delivery, and completed records are bounded by
    ``capacity`` (discards are counted in ``records_dropped``, never
    silent).  Packets whose lifecycle was not fully observed -- created
    before attach, events missing, or an inconsistent milestone chain --
    are counted in ``unattributed``; ``last_failure`` keeps the most recent
    reason for debugging.
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
        self.records: list[PacketAttribution] = []
        self.records_dropped = 0
        self.unattributed = 0
        self.last_failure = ""
        self.window: tuple[int, int] | None = None
        self._open: dict[int, _OpenPacket] = {}
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
        try:
            record = self._reconstruct(packet_id, state, cycle, node)
        except AttributionError as failure:
            self.unattributed += 1
            self.last_failure = str(failure)
            return
        if len(self.records) >= self.capacity:
            self.records_dropped += 1
            return
        self.records.append(record)

    # -- reconstruction ------------------------------------------------------

    def _reconstruct(
        self, packet_id: int, state: _OpenPacket, delivered_cycle: int, destination: int
    ) -> PacketAttribution:
        critical = self._critical_flit(packet_id, state, delivered_cycle)
        timeline = state.flits[critical]
        measured = False
        if self.window is not None:
            measured = self.window[0] <= state.created < self.window[1]
        if state.has_forwards:
            model, components, segments, hops = "vc", *self._decompose_vc(
                packet_id, state, timeline
            )
        else:
            model, components, segments, hops = "fr", *self._decompose_fr(
                packet_id, state, timeline
            )
        return PacketAttribution(
            packet_id=packet_id,
            source=state.source,
            destination=destination,
            created_cycle=state.created,
            delivered_cycle=delivered_cycle,
            model=model,
            critical_flit=critical,
            hops=hops,
            denies=state.denies,
            measured=measured,
            components=components,
            segments=tuple(segments),
        )

    def _critical_flit(
        self, packet_id: int, state: _OpenPacket, delivered_cycle: int
    ) -> int:
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

    def _decompose_fr(
        self, packet_id: int, state: _OpenPacket, timeline: list[tuple[int, int, int]]
    ) -> tuple[dict[str, int], list[Segment], int]:
        """FR critical path: arrivals at each node plus the final ejection.

        A hop's departure is not a separate event; with deterministic link
        delivery it is exactly the next hop's arrival minus the data link
        delay, so the per-hop dwell (``reservation_wait``) and the link
        time split without ambiguity.
        """
        arrivals = [(cycle, node) for cycle, tag, node in timeline if tag == _ARRIVAL]
        ejects = [(cycle, node) for cycle, tag, node in timeline if tag == _EJECT]
        if len(ejects) != 1 or len(arrivals) < 2:
            raise AttributionError(
                f"packet {packet_id}: flit-reservation milestone chain has "
                f"{len(arrivals)} arrivals and {len(ejects)} ejections"
            )
        eject_cycle, eject_node = ejects[0]
        components = dict.fromkeys(COMPONENTS, 0)
        segments: list[Segment] = []
        first_cycle, first_node = arrivals[0]
        self._add(
            components, segments, "source_queueing", state.created, first_cycle, first_node
        )
        delay = self.data_link_delay
        for (cycle, node), (next_cycle, _next_node) in zip(arrivals, arrivals[1:]):
            departure = next_cycle - delay
            if departure < cycle:
                raise AttributionError(
                    f"packet {packet_id}: consecutive arrivals {cycle} -> "
                    f"{next_cycle} closer than the {delay}-cycle link delay"
                )
            self._add(components, segments, "reservation_wait", cycle, departure, node)
            self._add(components, segments, "channel_traversal", departure, next_cycle, node)
        last_cycle, last_node = arrivals[-1]
        if eject_node != last_node or eject_cycle < last_cycle:
            raise AttributionError(
                f"packet {packet_id}: ejection at node {eject_node} cycle "
                f"{eject_cycle} does not follow the last arrival at node "
                f"{last_node} cycle {last_cycle}"
            )
        self._add(components, segments, "ejection", last_cycle, eject_cycle, last_node)
        return components, segments, len(arrivals) - 1

    def _decompose_vc(
        self, packet_id: int, state: _OpenPacket, timeline: list[tuple[int, int, int]]
    ) -> tuple[dict[str, int], list[Segment], int]:
        """VC/wormhole critical path: strict arrival/forward alternation.

        Every router dwell ends in an observed ``flit_forward``; the final
        forward is the ejection crossing (the ``data_eject`` event shares
        its cycle).  Intermediate dwells split into the mandatory 1-cycle
        routing/arbitration stage plus any turnaround stall beyond it; the
        destination dwell is the ejection component.
        """
        moves = [entry for entry in timeline if entry[1] != _EJECT]
        ejects = [entry for entry in timeline if entry[1] == _EJECT]
        valid = (
            len(ejects) == 1
            and len(moves) >= 2
            and len(moves) % 2 == 0
            and all(entry[1] == (_ARRIVAL, _FORWARD)[i % 2] for i, entry in enumerate(moves))
        )
        if not valid:
            raise AttributionError(
                f"packet {packet_id}: virtual-channel milestone chain is not "
                f"an arrival/forward alternation ({len(moves)} moves, "
                f"{len(ejects)} ejections)"
            )
        eject_cycle, eject_node = ejects[0][0], ejects[0][2]
        hops = [
            (moves[i][0], moves[i + 1][0], moves[i][2])  # (arrival, forward, node)
            for i in range(0, len(moves), 2)
        ]
        for arrival, forward, node in hops:
            if forward < arrival or moves[0][2] != state.source:
                raise AttributionError(
                    f"packet {packet_id}: dwell at node {node} runs backwards "
                    f"({arrival} -> {forward})"
                )
        last_arrival, last_forward, last_node = hops[-1]
        if last_node != eject_node or last_forward != eject_cycle:
            raise AttributionError(
                f"packet {packet_id}: final forward (node {last_node}, cycle "
                f"{last_forward}) is not the ejection (node {eject_node}, "
                f"cycle {eject_cycle})"
            )
        components = dict.fromkeys(COMPONENTS, 0)
        segments: list[Segment] = []
        self._add(
            components, segments, "source_queueing", state.created, hops[0][0], state.source
        )
        for index, (arrival, forward, node) in enumerate(hops):
            if index == len(hops) - 1:
                self._add(components, segments, "ejection", arrival, forward, node)
            else:
                pipeline_end = min(arrival + 1, forward)
                self._add(
                    components, segments, "routing_arbitration", arrival, pipeline_end, node
                )
                self._add(
                    components, segments, "turnaround_stall", pipeline_end, forward, node
                )
                next_arrival = hops[index + 1][0]
                self._add(
                    components, segments, "channel_traversal", forward, next_arrival, node
                )
        return components, segments, len(hops) - 1

    @staticmethod
    def _add(
        components: dict[str, int],
        segments: list[Segment],
        component: str,
        start: int,
        end: int,
        node: int,
    ) -> None:
        components[component] += end - start
        if end > start:
            segments.append(Segment(component, start, end, node))

    # -- results -------------------------------------------------------------

    @property
    def open_packets(self) -> int:
        """Packets created but not yet delivered (state still held)."""
        return len(self._open)

    def measured_records(self) -> list[PacketAttribution]:
        """The records inside the measurement window (all, if none was set)."""
        if self.window is None:
            return list(self.records)
        return [record for record in self.records if record.measured]
