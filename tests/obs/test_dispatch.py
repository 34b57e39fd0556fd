"""Field-level dispatch changes who pays for an event, never what is seen.

For FR6 / VC8 / WH8 x three seeds, a collector-only, an attributor-only and
a both-attached run must produce the same JSONL bytes and the same
attribution records as each other and as
``tests/obs/fixtures/dispatch.golden.json`` -- SHA-256 digests recorded
with the pre-publisher probe (one ``NetworkEvent`` per event, object
subscribers only).  Regenerate with ``FRFC_REGEN_GOLDEN=1 pytest
tests/obs/test_dispatch.py`` after an *intentional* change to the event
stream or the attribution, and say so in the commit message.

The perf claim has a deterministic proxy here: with only an attributor
attached, no ``NetworkEvent`` is constructed and no detail string rendered.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable

import pytest

from repro import FR6, VC8, WormholeConfig
from repro.analysis.permute import digest_network
from repro.harness.experiment import build_network
from repro.obs import events as ev
from repro.obs.attribution import SUBSCRIBED_KINDS, LatencyAttributor, PacketAttribution
from repro.obs.events import EventBus, EventCollector, NetworkEvent
from repro.obs.exporters import write_events_jsonl
from repro.obs.probe import NetworkProbe
from repro.sim.kernel import Simulator
from repro.topology.mesh import Mesh2D

GOLDEN = Path(__file__).parent / "fixtures" / "dispatch.golden.json"
CYCLES = 300
SEEDS = (1, 2, 3)
MODELS: dict[str, tuple[Any, float]] = {
    "FR6": (FR6, 0.5),
    "VC8": (VC8, 0.4),
    "WH8": (WormholeConfig(buffers_per_input=8), 0.3),
}
CASES = [(model, seed) for model in MODELS for seed in SEEDS]


def _build(model: str, seed: int):
    config, load = MODELS[model]
    return build_network(config, load, seed=seed, mesh=Mesh2D(4, 4))


class _Run:
    """One stepped network and whatever watched it."""

    def __init__(
        self, model: str, seed: int, collect: bool, attribute: bool, bus: EventBus | None = None
    ) -> None:
        self.network = _build(model, seed)
        self.bus = bus if bus is not None else EventBus()
        self.collector = EventCollector() if collect else None
        if self.collector is not None:
            self.bus.subscribe_all(self.collector)
        self.attributor = None
        if attribute:
            self.attributor = LatencyAttributor(self.bus).configure_for(self.network)
        probe = NetworkProbe(self.bus).attach(self.network)
        self.network.set_measure_window(0, CYCLES)
        Simulator(self.network).step(CYCLES)
        probe.detach()

    def jsonl(self, tmp_path: Path) -> bytes:
        assert self.collector is not None
        out = tmp_path / "events.jsonl"
        write_events_jsonl(self.collector, out)
        return out.read_bytes()

    def records(self) -> list[PacketAttribution]:
        assert self.attributor is not None
        return self.attributor.records


def _records_digest(records: list[PacketAttribution]) -> str:
    canonical = [
        {
            "packet_id": r.packet_id,
            "source": r.source,
            "destination": r.destination,
            "created_cycle": r.created_cycle,
            "delivered_cycle": r.delivered_cycle,
            "model": r.model,
            "critical_flit": r.critical_flit,
            "hops": r.hops,
            "denies": r.denies,
            "measured": r.measured,
            "components": r.components,
            "segments": [[s.component, s.start, s.end, s.node] for s in r.segments],
        }
        for r in records
    ]
    return hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()


def _golden() -> dict[str, dict[str, Any]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_regenerate_golden(tmp_path) -> None:
    if not os.environ.get("FRFC_REGEN_GOLDEN"):
        pytest.skip("set FRFC_REGEN_GOLDEN=1 to rewrite dispatch.golden.json")
    golden = {}
    for model, seed in CASES:
        run = _Run(model, seed, collect=True, attribute=True)
        golden[f"{model}/{seed}"] = {
            "events": len(run.collector),
            "jsonl_sha256": hashlib.sha256(run.jsonl(tmp_path)).hexdigest(),
            "records": len(run.records()),
            "records_sha256": _records_digest(run.records()),
        }
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@pytest.mark.parametrize("model,seed", CASES)
def test_every_subscriber_mix_sees_the_pinned_stream(model: str, seed: int, tmp_path) -> None:
    expected = _golden()[f"{model}/{seed}"]
    collected = _Run(model, seed, collect=True, attribute=False)
    attributed = _Run(model, seed, collect=False, attribute=True)
    both = _Run(model, seed, collect=True, attribute=True)

    stream = collected.jsonl(tmp_path)
    assert stream == both.jsonl(tmp_path)
    assert len(collected.collector) == expected["events"] > 0
    assert hashlib.sha256(stream).hexdigest() == expected["jsonl_sha256"]

    assert attributed.records() == both.records()
    assert len(attributed.records()) == expected["records"] > 0
    assert _records_digest(attributed.records()) == expected["records_sha256"]

    # The count is of events published, whoever listened.
    for run in (collected, both):
        assert run.bus.events_emitted == run.collector.total_seen == expected["events"]
    wanted = sum(1 for event in both.collector if event.kind in SUBSCRIBED_KINDS)
    assert attributed.bus.events_emitted == wanted


class _CountingBus(EventBus):
    """An ``EventBus`` that counts the detail strings its publishers render."""

    def __init__(self) -> None:
        super().__init__()
        self.rendered = 0

    def publisher(self, kind: str, render: Callable[[Any], str] | None = None) -> ev.Publisher:
        if render is None:
            return super().publisher(kind)

        def counted(detail: Any) -> str:
            self.rendered += 1
            return render(detail)

        return super().publisher(kind, counted)


@pytest.fixture()
def constructed(monkeypatch) -> list[int]:
    """Counts ``NetworkEvent`` constructions made through ``repro.obs.events``."""
    count = [0]

    def counting(*args: Any, **kwargs: Any) -> NetworkEvent:
        count[0] += 1
        return NetworkEvent(*args, **kwargs)

    monkeypatch.setattr(ev, "NetworkEvent", counting)
    return count


@pytest.mark.parametrize("model", sorted(MODELS))
def test_an_attributor_alone_builds_no_event_and_renders_no_detail(
    model: str, constructed: list[int]
) -> None:
    seed = SEEDS[0]
    detached = _build(model, seed)
    detached.set_measure_window(0, CYCLES)
    Simulator(detached).step(CYCLES)
    baseline = digest_network(detached, CYCLES, "never-observed")

    bus = _CountingBus()
    run = _Run(model, seed, collect=False, attribute=True, bus=bus)

    assert run.records() and bus.events_emitted > 0  # it really was watching
    assert constructed[0] == 0
    assert bus.rendered == 0
    assert baseline.hexdigest() == digest_network(run.network, CYCLES, "attributed").hexdigest()


@pytest.mark.parametrize("model", sorted(MODELS))
def test_a_collector_gets_one_event_and_at_most_one_detail_per_publication(
    model: str, constructed: list[int]
) -> None:
    bus = _CountingBus()
    run = _Run(model, SEEDS[0], collect=True, attribute=True, bus=bus)
    assert constructed[0] == bus.events_emitted == run.collector.total_seen
    detailed = sum(
        1 for event in run.collector if event.detail and event.kind != ev.CREDIT_RETURN
    )
    assert bus.rendered == detailed > 0


class TestLateSubscription:
    """A subscription made after a kind's publisher is out is served."""

    def _stepping(self, bus: EventBus):
        network = _build("FR6", SEEDS[0])
        probe = NetworkProbe(bus).attach(network)
        return network, Simulator(network), probe

    def test_object_subscriber_joining_a_field_only_publisher(self) -> None:
        bus = EventBus()
        fields_seen: list[int] = []
        bus.subscribe_fields(
            ev.DATA_ARRIVAL,
            lambda cycle, node, packet_id, port, vc, flit_index, value: fields_seen.append(cycle),
        )
        _, simulator, probe = self._stepping(bus)
        simulator.step(100)
        early = len(fields_seen)
        assert early > 0

        late: list[NetworkEvent] = []
        bus.subscribe(ev.DATA_ARRIVAL, late.append)
        simulator.step(100)
        probe.detach()
        assert len(late) == len(fields_seen) - early > 0
        assert [event.cycle for event in late] == fields_seen[early:]
        assert all(event.detail == f"flit #{event.flit_index}" for event in late)
        assert bus.events_emitted == len(fields_seen)

    def test_field_and_catch_all_subscribers_joining_an_object_publisher(self) -> None:
        bus = EventBus()
        first: list[NetworkEvent] = []
        bus.subscribe(ev.DATA_EJECT, first.append)
        _, simulator, probe = self._stepping(bus)
        simulator.step(150)
        early = len(first)
        assert early > 0

        late_fields: list[tuple[int, ...]] = []
        late_all: list[NetworkEvent] = []
        bus.subscribe_fields(ev.DATA_EJECT, lambda *fields: late_fields.append(fields))
        bus.subscribe_all(late_all.append)
        simulator.step(150)
        probe.detach()
        assert late_all == first[early:]
        assert late_fields == [
            (e.cycle, e.node, e.packet_id, e.port, e.vc, e.flit_index, e.value)
            for e in first[early:]
        ]

    def test_a_kind_nobody_wanted_at_attach_stays_unhooked(self) -> None:
        """The documented limit: probes hook only what ``wants`` reported."""
        bus = EventBus()
        bus.subscribe(ev.DATA_EJECT, lambda event: None)
        network, simulator, probe = self._stepping(bus)
        assert network.routers[0].on_reservation_grant is None
        late: list[NetworkEvent] = []
        bus.subscribe(ev.RESERVATION_GRANT, late.append)
        simulator.step(100)
        probe.detach()
        assert late == []


class TestVcHooksAreChosenAtAttach:
    def test_only_wanted_kinds_are_published(self) -> None:
        bus = EventBus()
        seen: list[NetworkEvent] = []
        bus.subscribe(ev.BUFFER_FREE, seen.append)
        network = _build("VC8", SEEDS[0])
        router = network.routers[0]
        probe = NetworkProbe(bus).attach(network)
        assert router.on_flit_arrival is None  # neither arrival nor alloc wanted
        assert router.on_flit_forward is not None
        Simulator(network).step(200)
        probe.detach()
        assert seen and {event.kind for event in seen} == {ev.BUFFER_FREE}
        # Nothing else was published, let alone built.
        assert bus.events_emitted == len(seen)

    def test_hooks_never_ask_the_bus(self, monkeypatch) -> None:
        bus = EventBus()
        bus.subscribe_all(lambda event: None)
        network = _build("WH8", SEEDS[0])
        probe = NetworkProbe(bus).attach(network)

        def fail(kind: str) -> bool:
            raise AssertionError(f"bus.wants({kind!r}) called at run time")

        monkeypatch.setattr(bus, "wants", fail)
        Simulator(network).step(100)
        probe.detach()
        assert bus.events_emitted > 0
