"""Unit tests for the typed event bus and the bounded collector."""

from __future__ import annotations

import pytest

from repro.obs.events import (
    CONTROL_ARRIVAL,
    DATA_ARRIVAL,
    DATA_EJECT,
    EVENT_KINDS,
    EventBus,
    EventCollector,
    NetworkEvent,
)


def _event(kind: str = DATA_ARRIVAL, cycle: int = 7, node: int = 3) -> NetworkEvent:
    return NetworkEvent(cycle=cycle, kind=kind, node=node)


class TestNetworkEvent:
    def test_as_dict_omits_default_fields(self) -> None:
        record = _event().as_dict()
        assert record == {"cycle": 7, "kind": DATA_ARRIVAL, "node": 3}

    def test_as_dict_keeps_non_default_fields(self) -> None:
        event = NetworkEvent(
            cycle=1, kind=CONTROL_ARRIVAL, node=0, packet_id=9, vc=2, detail="head"
        )
        record = event.as_dict()
        assert record["packet_id"] == 9
        assert record["vc"] == 2
        assert record["detail"] == "head"
        assert "port" not in record
        assert "flit_index" not in record

    def test_events_are_immutable(self) -> None:
        with pytest.raises(AttributeError):
            _event().cycle = 0  # type: ignore[misc]

    def test_as_dict_key_order_is_the_field_order(self) -> None:
        event = NetworkEvent(4, DATA_ARRIVAL, 2, 9, 1, 0, 3, 7, "flit #3")
        assert list(event.as_dict()) == list(NetworkEvent._fields)
        assert list(event.as_dict().values()) == list(event)


class TestEventBus:
    def test_subscribe_rejects_unknown_kind(self) -> None:
        with pytest.raises(ValueError, match="unknown event kind"):
            EventBus().subscribe("not_a_kind", lambda event: None)

    def test_wants_reflects_subscriptions(self) -> None:
        bus = EventBus()
        assert not bus.wants(DATA_ARRIVAL)
        bus.subscribe(DATA_ARRIVAL, lambda event: None)
        assert bus.wants(DATA_ARRIVAL)
        assert not bus.wants(DATA_EJECT)

    def test_subscribe_all_wants_everything(self) -> None:
        bus = EventBus()
        bus.subscribe_all(lambda event: None)
        for kind in EVENT_KINDS:
            assert bus.wants(kind)

    def test_emit_fans_out_and_counts(self) -> None:
        bus = EventBus()
        by_kind: list[NetworkEvent] = []
        everything: list[NetworkEvent] = []
        bus.subscribe(DATA_ARRIVAL, by_kind.append)
        bus.subscribe_all(everything.append)
        bus.emit(_event(DATA_ARRIVAL))
        bus.emit(_event(DATA_EJECT))
        assert [event.kind for event in by_kind] == [DATA_ARRIVAL]
        assert [event.kind for event in everything] == [DATA_ARRIVAL, DATA_EJECT]
        assert bus.events_emitted == 2


class TestPublisher:
    def test_rejects_unknown_kind(self) -> None:
        with pytest.raises(ValueError, match="unknown event kind"):
            EventBus().publisher("not_a_kind")
        with pytest.raises(ValueError, match="unknown event kind"):
            EventBus().subscribe_fields("not_a_kind", lambda *fields: None)

    def test_field_subscribers_get_the_fields_and_no_detail_is_rendered(self) -> None:
        bus = EventBus()
        seen: list[tuple[int, ...]] = []
        bus.subscribe_fields(DATA_ARRIVAL, lambda *fields: seen.append(fields))
        assert bus.wants(DATA_ARRIVAL) and not bus.wants(DATA_EJECT)

        def render(detail: object) -> str:
            raise AssertionError("no object subscriber, nothing to render for")

        publish = bus.publisher(DATA_ARRIVAL, render)
        publish(7, 3, 9, -1, -1, 2, -1, 2)
        publish(8, 4)
        assert seen == [(7, 3, 9, -1, -1, 2, -1), (8, 4, -1, -1, -1, -1, -1)]
        assert bus.events_emitted == 2

    def test_object_subscribers_get_one_rendered_event(self) -> None:
        bus = EventBus()
        by_kind: list[NetworkEvent] = []
        everything: list[NetworkEvent] = []
        fields: list[tuple[int, ...]] = []
        bus.subscribe_all(everything.append)
        bus.subscribe(DATA_ARRIVAL, by_kind.append)
        bus.subscribe_fields(DATA_ARRIVAL, lambda *args: fields.append(args))
        bus.publisher(DATA_ARRIVAL, lambda index: f"flit #{index}")(7, 3, 9, -1, -1, 2, -1, 2)
        bus.publisher(DATA_EJECT)(8, 3, 9, -1, -1, 2, -1, "as given")
        arrival = NetworkEvent(7, DATA_ARRIVAL, 3, packet_id=9, flit_index=2, detail="flit #2")
        eject = NetworkEvent(8, DATA_EJECT, 3, packet_id=9, flit_index=2, detail="as given")
        assert by_kind == [arrival]
        assert by_kind[0] is everything[0]  # built once, shared
        assert everything == [arrival, eject]
        assert fields == [(7, 3, 9, -1, -1, 2, -1)]
        assert bus.events_emitted == 2

    def test_emit_serves_field_subscribers_too(self) -> None:
        bus = EventBus()
        fields: list[tuple[int, ...]] = []
        bus.subscribe_fields(CONTROL_ARRIVAL, lambda *args: fields.append(args))
        bus.emit(NetworkEvent(1, CONTROL_ARRIVAL, 0, packet_id=9, vc=2, value=1, detail="head"))
        assert fields == [(1, 0, 9, -1, 2, -1, 1)]
        assert bus.events_emitted == 1


class TestEventCollector:
    def test_collects_in_order(self) -> None:
        collector = EventCollector()
        collector(_event(cycle=1))
        collector(_event(cycle=2))
        assert [event.cycle for event in collector] == [1, 2]
        assert len(collector) == 2
        assert collector.dropped == 0

    def test_capacity_drops_oldest_and_reports(self) -> None:
        collector = EventCollector(capacity=3)
        for cycle in range(5):
            collector(_event(cycle=cycle))
        assert [event.cycle for event in collector] == [2, 3, 4]
        assert collector.total_seen == 5
        assert collector.dropped == 2

    def test_rejects_nonpositive_capacity(self) -> None:
        with pytest.raises(ValueError):
            EventCollector(capacity=0)
