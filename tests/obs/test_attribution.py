"""The latency attributor: conservation, component semantics, lifecycle.

The headline pin is the paper's mechanism claim: at low load a
flit-reservation run attributes **zero** cycles to routing/arbitration and
buffer turnaround -- FR's data path simply has no such stages -- while the
same-seed VC run shows both nonzero, and the wormhole run (a single-VC
special case) shows the same shape.  Every decomposition must sum exactly
to the measured latency; there is no "other" bucket to hide a bookkeeping
error in.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.baselines.vc.config import VC8, VCConfig
from repro.baselines.vc.network import VCNetwork
from repro.baselines.wormhole.network import WormholeConfig, WormholeNetwork
from repro.core.config import FR6, FRConfig
from repro.core.network import FRNetwork
from repro.harness.experiment import build_network
from repro.obs.attribution import (
    COMPONENTS,
    AttributionError,
    LatencyAttributor,
    PacketAttribution,
    Segment,
)
from repro.obs.events import EventBus
from repro.obs.probe import NetworkProbe
from repro.obs.report import AttributionSummary, iter_waterfall_records
from repro.sim.kernel import Simulator
from repro.topology.mesh import Mesh2D

CYCLES = 600


def _fr_network(seed: int = 11, rate: float = 0.05) -> FRNetwork:
    return FRNetwork(
        FRConfig(data_buffers_per_input=6),
        mesh=Mesh2D(4, 4),
        injection_rate=rate,
        seed=seed,
    )


def _vc_network(seed: int = 11, rate: float = 0.05) -> VCNetwork:
    return VCNetwork(
        VCConfig(num_vcs=2, buffers_per_vc=4),
        mesh=Mesh2D(4, 4),
        injection_rate=rate,
        seed=seed,
    )


def _wh_network(seed: int = 11, rate: float = 0.05) -> WormholeNetwork:
    return WormholeNetwork(
        WormholeConfig(buffers_per_input=8),
        mesh=Mesh2D(4, 4),
        injection_rate=rate,
        seed=seed,
    )


BUILDERS = [
    pytest.param(_fr_network, id="fr"),
    pytest.param(_vc_network, id="vc"),
    pytest.param(_wh_network, id="wormhole"),
]


def _attribute(network, cycles: int = CYCLES) -> LatencyAttributor:
    bus = EventBus()
    attributor = LatencyAttributor(bus).configure_for(network)
    probe = NetworkProbe(bus).attach(network)
    Simulator(network).step(cycles)
    probe.detach()
    return attributor


@pytest.mark.parametrize("build", BUILDERS)
def test_every_packet_fully_attributed(build):
    """Probe attached from cycle 0: no packet may fail reconstruction."""
    attributor = _attribute(build())
    assert attributor.records, "no packets delivered in the test run"
    assert attributor.unattributed == 0, attributor.last_failure
    assert attributor.records_dropped == 0


@pytest.mark.parametrize("build", BUILDERS)
def test_components_sum_exactly_to_latency(build):
    for record in _attribute(build()).records:
        assert sum(record.components.values()) == record.latency
        assert set(record.components) == set(COMPONENTS)
        assert all(value >= 0 for value in record.components.values())


@pytest.mark.parametrize("build", BUILDERS)
def test_latency_matches_network_measurement(build):
    """The attributor's latency is delivery - creation, same as the model's."""
    network = build()
    network.set_measure_window(0, CYCLES)
    attributor = _attribute(network)
    measured = sorted(network.latency_stats.samples())
    attributed = sorted(record.latency for record in attributor.records)
    # Every measured packet is also attributed (the window covers the run;
    # packets still in flight at the end appear in neither list).
    assert measured == attributed[: len(measured)] or measured == attributed


def test_fr_attributes_zero_turnaround_and_arbitration():
    """The tentpole mechanism pin, FR side: no routing/arbitration stage and
    no credit turnaround exist on FR's data path, so at low load those
    components are exactly zero for every packet."""
    attributor = _attribute(_fr_network())
    assert attributor.records
    for record in attributor.records:
        assert record.model == "fr"
        assert record.components["routing_arbitration"] == 0
        assert record.components["turnaround_stall"] == 0


def test_vc_same_seed_shows_nonzero_turnaround():
    """The mechanism pin, VC side: the same-seed VC run pays for switch
    arbitration on every hop and stalls on the credit loop (5-flit packets
    against 4 credits per VC force a turnaround wait even at low load)."""
    attributor = _attribute(_vc_network())
    assert attributor.records
    assert all(record.model == "vc" for record in attributor.records)
    total_arbitration = sum(
        record.components["routing_arbitration"] for record in attributor.records
    )
    total_turnaround = sum(
        record.components["turnaround_stall"] for record in attributor.records
    )
    assert total_arbitration > 0
    assert total_turnaround > 0
    assert all(
        record.components["reservation_wait"] == 0 for record in attributor.records
    )


def test_wormhole_matches_vc_shape():
    attributor = _attribute(_wh_network())
    assert attributor.records
    for record in attributor.records:
        assert record.model == "vc"
        assert record.components["reservation_wait"] == 0


@pytest.mark.parametrize("build", BUILDERS)
def test_segments_tile_the_packet_lifetime(build):
    """Segments are the same decomposition as absolute intervals: in order,
    non-overlapping, covering creation to delivery exactly (zero-length
    components omitted)."""
    for record in _attribute(build()).records:
        assert sum(segment.cycles for segment in record.segments) == record.latency
        cursor = record.created_cycle
        for segment in record.segments:
            assert segment.start == cursor
            assert segment.end > segment.start
            assert segment.component in COMPONENTS
            cursor = segment.end
        if record.segments:
            assert record.segments[-1].end == record.delivered_cycle


def test_midrun_attach_counts_unattributed_not_garbage():
    """Packets created before the attributor attached cannot be
    reconstructed; they must land in `unattributed`, never in `records`."""
    network = _fr_network()
    simulator = Simulator(network)
    simulator.step(200)  # packets in flight, unobserved
    bus = EventBus()
    attributor = LatencyAttributor(bus).configure_for(network)
    probe = NetworkProbe(bus).attach(network)
    simulator.step(200)
    probe.detach()
    assert attributor.unattributed > 0
    for record in attributor.records:
        assert sum(record.components.values()) == record.latency


def test_note_window_marks_measured_records():
    network = _fr_network()
    bus = EventBus()
    attributor = LatencyAttributor(bus).configure_for(network)
    attributor.note_window(200, 400)
    probe = NetworkProbe(bus).attach(network)
    Simulator(network).step(CYCLES)
    probe.detach()
    measured = attributor.measured_records()
    assert measured
    assert len(measured) < len(attributor.records)
    for record in measured:
        assert record.measured
        assert 200 <= record.created_cycle < 400


def test_capacity_bounds_records_and_counts_drops():
    network = _fr_network()
    bus = EventBus()
    attributor = LatencyAttributor(bus, capacity=5).configure_for(network)
    probe = NetworkProbe(bus).attach(network)
    Simulator(network).step(CYCLES)
    probe.detach()
    assert len(attributor.records) == 5
    assert attributor.records_dropped > 0


def test_configure_for_reads_link_delay():
    network = _fr_network()
    attributor = LatencyAttributor().configure_for(network)
    assert attributor.data_link_delay == network.config.data_link_delay


def test_invalid_component_sum_rejected():
    with pytest.raises(AttributionError, match="sum"):
        PacketAttribution(
            packet_id=1,
            source=0,
            destination=5,
            created_cycle=0,
            delivered_cycle=10,
            model="fr",
            critical_flit=0,
            hops=1,
            denies=0,
            measured=False,
            components={name: 0 for name in COMPONENTS},
            segments=(),
        )


def test_negative_component_rejected():
    components = dict.fromkeys(COMPONENTS, 0)
    components["source_queueing"] = 12
    components["ejection"] = -2
    with pytest.raises(AttributionError, match="negative"):
        PacketAttribution(
            packet_id=1,
            source=0,
            destination=5,
            created_cycle=0,
            delivered_cycle=10,
            model="fr",
            critical_flit=0,
            hops=1,
            denies=0,
            measured=False,
            components=components,
            segments=(),
        )


def test_segment_cycles():
    segment = Segment(component="ejection", start=4, end=9, node=3)
    assert segment.cycles == 5



# -- storage: rows kept, records built on read ---------------------------------

#: Bytes per delivered packet that an attributor keeping one
#: PacketAttribution (components dict, Segment tuples) per packet retained
#: on the drained point below, under tracemalloc on CPython 3.11: FR6 952,
#: VC8 1,271.  Rows plus milestone chains retain about 222 and 287.
RECORD_OBJECT_BYTES = {"FR6": 952, "VC8": 1_271}
WH8 = WormholeConfig(buffers_per_input=8)


def _drained_point(config, seed: int = 1, cycles: int = 300):
    """A 4x4 point at load 0.5, observed from cycle 0, then drained, with a
    second attributor of capacity 5 on the same bus."""
    network = build_network(config, 0.5, seed=seed, mesh=Mesh2D(4, 4))
    bus = EventBus()
    attributor = LatencyAttributor(bus).configure_for(network)
    capped = LatencyAttributor(bus, capacity=5).configure_for(network)
    for observer in (attributor, capped):
        observer.note_window(cycles // 4, cycles // 2)
    probe = NetworkProbe(bus).attach(network)
    simulator = Simulator(network)
    simulator.step(cycles)
    network.stop_injection()
    simulator.run_until(lambda: attributor.open_packets == 0, deadline=cycles + 500)
    probe.detach()
    return attributor, capped


@pytest.mark.parametrize("name,config", [("FR6", FR6), ("VC8", VC8)])
def test_rows_hold_no_record_objects_and_a_quarter_of_the_bytes(name, config):
    def live_records() -> int:
        return sum(isinstance(obj, PacketAttribution) for obj in gc.get_objects())

    gc.collect()
    before = live_records()  # other tests' module-level records
    tracemalloc.start()
    try:
        attributor, _capped = _drained_point(config)
        del _capped
        gc.collect()
        rows = attributor.row_count
        assert rows > 100 and attributor.unattributed == 0, attributor.last_failure
        assert live_records() == before

        records = attributor.records
        assert records == attributor.records
        assert len(records) == rows
        assert len(attributor.measured_records()) == sum(attributor.columns()["measured"])
        del records
        gc.collect()

        held = tracemalloc.get_traced_memory()[0]
        del attributor
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained / rows <= RECORD_OBJECT_BYTES[name] / 4


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("config", [FR6, VC8, WH8], ids=["FR6", "VC8", "WH8"])
def test_row_readers_agree_with_the_records(config, seed):
    """The summary and the waterfall read the rows; both must equal what
    the same code computes from the records built on read."""
    attributor, capped = _drained_point(config, seed=seed, cycles=160)
    measured = attributor.measured_records()
    assert 0 < len(measured) < attributor.row_count
    assert AttributionSummary.from_attributor(attributor) == AttributionSummary.from_records(
        measured
    )
    assert AttributionSummary.from_attributor(
        attributor, measured_only=False
    ) == AttributionSummary.from_records(attributor.records)
    assert list(iter_waterfall_records(attributor.spans())) == list(
        iter_waterfall_records(attributor.records)
    )
    assert capped.row_count == 5 == len(capped.records)
    assert capped.records == attributor.records[:5]
    assert capped.records_dropped == attributor.row_count - 5
