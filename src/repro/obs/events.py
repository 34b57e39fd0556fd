"""The typed event taxonomy and the event bus.

Every observable occurrence in a network is described by the same fields:
*what* happened (``kind``), *where* (``node``, ``port``, ``vc``), *to whom*
(``packet_id``, ``flit_index``), and *when* (``cycle``).  The taxonomy is
shared by all three flow-control models so a VC run and an FR run can be
compared event-for-event; kinds that only one model can produce (e.g.
``reservation_grant``) simply never appear in the other's stream.

The :class:`EventBus` fans events out to subscribers at two levels.  A
*field* subscriber (``subscribe_fields``) is called with the bare fields
and no record is ever built for it; an *object* subscriber (``subscribe``,
``subscribe_all``) receives a :class:`NetworkEvent`, which is materialised
-- and its ``detail`` string rendered -- once per event, and only while an
object subscriber for that kind exists.  Probes feed the bus through the
per-kind callables ``publisher`` hands out.

The bus is designed for the *detached* case to cost nothing: networks only
publish through hooks that are ``None`` until a
:class:`~repro.obs.probe.NetworkProbe` installs them, so an unobserved run
executes exactly the same instruction stream as before this layer existed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterator, NamedTuple, Protocol

#: A control flit entered a router's control VC queue (FR only).  A cycle of
#: ``-1`` marks the on-node injection hop from the NI.
CONTROL_ARRIVAL = "control_arrival"
#: A data flit reached a router input (FR) or a flit entered an input VC
#: queue (VC/wormhole).
DATA_ARRIVAL = "data_arrival"
#: A flit left the network at its destination.
DATA_EJECT = "data_eject"
#: A flit won switch arbitration and traversed the crossbar (VC/wormhole).
FLIT_FORWARD = "flit_forward"
#: An output reservation table accepted a data flit's departure slot (FR).
RESERVATION_GRANT = "reservation_grant"
#: A control flit failed to schedule its data flits this cycle (FR).
RESERVATION_DENY = "reservation_deny"
#: A buffer credit went back upstream (control or advance credit in FR,
#: per-VC credit in VC/wormhole).
CREDIT_RETURN = "credit_return"
#: A data buffer was allocated at an input pool.
BUFFER_ALLOC = "buffer_alloc"
#: A data buffer was released back to an input pool.
BUFFER_FREE = "buffer_free"
#: A source created a packet (all models).
PACKET_CREATED = "packet_created"
#: The last flit of a packet left the network (all models).
PACKET_DELIVERED = "packet_delivered"

#: Every kind the bus accepts, in documentation order.
EVENT_KINDS: tuple[str, ...] = (
    CONTROL_ARRIVAL,
    DATA_ARRIVAL,
    DATA_EJECT,
    FLIT_FORWARD,
    RESERVATION_GRANT,
    RESERVATION_DENY,
    CREDIT_RETURN,
    BUFFER_ALLOC,
    BUFFER_FREE,
    PACKET_CREATED,
    PACKET_DELIVERED,
)


class NetworkEvent(NamedTuple):
    """One observed event.  Fields that do not apply to a kind stay at their
    defaults and are omitted from the JSONL export."""

    cycle: int
    kind: str
    node: int
    packet_id: int = -1
    port: int = -1
    vc: int = -1
    flit_index: int = -1
    value: int = -1
    detail: str = ""

    def as_dict(self) -> dict[str, int | str]:
        """A compact dict: always cycle/kind/node, other fields when set."""
        record: dict[str, int | str] = {
            "cycle": self.cycle,
            "kind": self.kind,
            "node": self.node,
        }
        for index, name, default in _OPTIONAL_FIELDS:
            value: Any = self[index]
            if value != default:
                record[name] = value
        return record


#: ``(position, name, default)`` of every field ``as_dict`` may omit.
_OPTIONAL_FIELDS: tuple[tuple[int, str, Any], ...] = tuple(
    (index, name, NetworkEvent._field_defaults[name])
    for index, name in enumerate(NetworkEvent._fields)
    if name in NetworkEvent._field_defaults
)

Subscriber = Callable[[NetworkEvent], None]
#: Called as ``(cycle, node, packet_id, port, vc, flit_index, value)``; a
#: field that does not apply to the kind is ``-1``.
FieldSubscriber = Callable[[int, int, int, int, int, int, int], None]


class Publisher(Protocol):
    """One kind's way into the bus: bare fields, positionally.

    ``detail`` is whatever the publisher's ``render`` turns into the
    event's detail string (the string itself when there is no ``render``).
    """

    def __call__(
        self,
        cycle: int,
        node: int,
        packet_id: int = -1,
        port: int = -1,
        vc: int = -1,
        flit_index: int = -1,
        value: int = -1,
        detail: Any = "",
    ) -> None: ...


class EventBus:
    """Fans events out to per-kind field and object subscribers.

    Subscribe before a probe attaches: probes install a hook only for the
    kinds ``wants`` reports.  A publisher reads the live subscriber lists,
    so a subscription made after its kind's publisher was handed out is
    still served from the next event on.
    """

    def __init__(self) -> None:
        self._fields: dict[str, list[FieldSubscriber]] = {}
        self._by_kind: dict[str, list[Subscriber]] = {}
        self._all: list[Subscriber] = []
        self.events_emitted = 0

    def subscribe(self, kind: str, subscriber: Subscriber) -> None:
        """Receive every event of one ``kind`` as a :class:`NetworkEvent`."""
        self._by_kind.setdefault(_known(kind), []).append(subscriber)

    def subscribe_fields(self, kind: str, subscriber: FieldSubscriber) -> None:
        """Receive the bare fields of every event of one ``kind``."""
        self._fields.setdefault(_known(kind), []).append(subscriber)

    def subscribe_all(self, subscriber: Subscriber) -> None:
        """Receive every event regardless of kind."""
        self._all.append(subscriber)

    def wants(self, kind: str) -> bool:
        """Whether any subscriber would see an event of ``kind``.

        Probes consult this at attach time so that a bus subscribed only
        to, say, ejections does not pay for reservation-table hooks.
        """
        return bool(self._all or self._by_kind.get(kind) or self._fields.get(kind))

    def publisher(
        self, kind: str, render: Callable[[Any], str] | None = None
    ) -> Publisher:
        """The callable a probe hook feeds events of ``kind`` through.

        With only field subscribers listening it counts the event and calls
        them with the fields as given: no record, no ``render``.  While an
        object subscriber exists it builds the :class:`NetworkEvent` and
        hands it to :meth:`emit`.
        """
        fields = self._fields.setdefault(_known(kind), [])
        by_kind = self._by_kind.setdefault(kind, [])
        everything = self._all

        def publish(
            cycle: int,
            node: int,
            packet_id: int = -1,
            port: int = -1,
            vc: int = -1,
            flit_index: int = -1,
            value: int = -1,
            detail: Any = "",
        ) -> None:
            if everything or by_kind:
                text = detail if render is None else render(detail)
                self.emit(
                    NetworkEvent(cycle, kind, node, packet_id, port, vc, flit_index, value, text)
                )
                return
            self.events_emitted += 1
            for subscriber in fields:
                subscriber(cycle, node, packet_id, port, vc, flit_index, value)

        return publish

    def emit(self, event: NetworkEvent) -> None:
        """Deliver one event object: field subscribers of its kind first,
        then its kind's object subscribers, then the catch-all ones, each
        group in subscription order."""
        self.events_emitted += 1
        cycle, kind, node, packet_id, port, vc, flit_index, value, _detail = event
        for listener in self._fields.get(kind, ()):
            listener(cycle, node, packet_id, port, vc, flit_index, value)
        for subscriber in self._by_kind.get(kind, ()):
            subscriber(event)
        for subscriber in self._all:
            subscriber(event)


def _known(kind: str) -> str:
    if kind not in EVENT_KINDS:
        known = ", ".join(EVENT_KINDS)
        raise ValueError(f"unknown event kind {kind!r}; known kinds: {known}")
    return kind


class EventCollector:
    """A bounded in-order sink of events (the exporters' data source).

    ``capacity`` bounds memory on long runs; the oldest events are dropped
    first and ``dropped`` counts how many were lost, so an exporter can say
    "log truncated" instead of silently presenting a partial history.
    """

    def __init__(self, capacity: int = 1_000_000) -> None:
        if capacity < 1:
            raise ValueError(f"collector capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.events: deque[NetworkEvent] = deque(maxlen=capacity)
        self.total_seen = 0

    def __call__(self, event: NetworkEvent) -> None:
        self.total_seen += 1
        self.events.append(event)

    @property
    def dropped(self) -> int:
        return self.total_seen - len(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[NetworkEvent]:
        return iter(self.events)
