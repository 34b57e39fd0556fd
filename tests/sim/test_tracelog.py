"""Tests for the FR event trace log."""

import pytest

from repro.core.config import FRConfig
from repro.core.network import FRNetwork
from repro.obs.trace import TraceLog
from repro.sim.kernel import Simulator
from repro.topology.mesh import Mesh2D


@pytest.fixture
def traced_network(mesh4):
    network = FRNetwork(
        FRConfig(data_buffers_per_input=6), mesh=mesh4, injection_rate=0.03, seed=1
    )
    log = TraceLog().attach(network)
    Simulator(network).step(300)
    return network, log


class TestTraceLog:
    def test_records_all_event_kinds(self, traced_network):
        _, log = traced_network
        kinds = {event.kind for event in log.events}
        assert kinds == {"control_arrival", "data_arrival", "data_eject"}

    def test_packet_timeline_is_ordered_and_consistent(self, traced_network):
        _, log = traced_network
        ejected = {e.packet_id for e in log.events if e.kind == "data_eject"}
        packet_id = sorted(ejected)[0]
        events = log.packet_events(packet_id)
        cycles = [event.cycle for event in events]
        assert cycles == sorted(cycles)
        # Every ejection is preceded by an arrival of the same flit somewhere.
        ejects = [e for e in events if e.kind == "data_eject"]
        arrivals = [e for e in events if e.kind == "data_arrival"]
        assert len(arrivals) >= len(ejects)

    def test_control_precedes_first_data_at_destination(self, traced_network):
        """The defining property of flit-reservation flow control, read
        straight off the trace: at the destination, the control head flit
        arrives no later than the first ejected data flit."""
        network, log = traced_network
        checked = 0
        ejected = {e.packet_id for e in log.events if e.kind == "data_eject"}
        for packet_id in sorted(ejected)[:20]:
            events = log.packet_events(packet_id)
            dest_ejects = [e for e in events if e.kind == "data_eject"]
            dest = dest_ejects[0].node
            controls = [
                e for e in events
                if e.kind == "control_arrival" and e.node == dest
            ]
            if not controls:
                continue  # head consumed before tracing saw it (edge window)
            assert controls[0].cycle <= dest_ejects[0].cycle
            checked += 1
        assert checked > 5

    def test_format_packet(self, traced_network):
        _, log = traced_network
        packet_id = next(iter(e.packet_id for e in log.events))
        text = log.format_packet(packet_id)
        assert f"packet {packet_id} timeline:" in text
        assert "cycle" in text

    def test_format_unknown_packet(self, traced_network):
        _, log = traced_network
        assert "no events" in log.format_packet(999_999)

    def test_capacity_bounds_memory(self, mesh4):
        network = FRNetwork(
            FRConfig(data_buffers_per_input=6), mesh=mesh4, injection_rate=0.05, seed=1
        )
        log = TraceLog(capacity=50).attach(network)
        Simulator(network).step(300)
        assert len(log) == 50

    def test_detach_restores_hooks(self, mesh4):
        network = FRNetwork(
            FRConfig(data_buffers_per_input=6), mesh=mesh4, injection_rate=0.03, seed=1
        )
        original_ejects = [router.eject_data for router in network.routers]
        log = TraceLog().attach(network)
        log.detach()
        for router, original in zip(network.routers, original_ejects):
            assert router.eject_data is original
            assert router.on_control_arrival is None

    def test_double_attach_rejected(self, mesh4):
        network = FRNetwork(
            FRConfig(data_buffers_per_input=6), mesh=mesh4, injection_rate=0.03, seed=1
        )
        log = TraceLog().attach(network)
        with pytest.raises(RuntimeError):
            log.attach(network)
