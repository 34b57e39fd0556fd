"""Tests for the shared network-model scaffolding."""

import pytest

from repro.sim.netbase import NetworkModel
from repro.topology.mesh import Mesh2D
from repro.traffic.packet import Packet


class MinimalNetwork(NetworkModel):
    """A network that delivers nothing -- enough to test the bookkeeping."""

    @property
    def flow_control_name(self):
        return "MIN"

    def source_queue_length(self, node):
        return 0

    def step(self, cycle):
        self._create_packets(cycle)


@pytest.fixture
def network():
    return MinimalNetwork(Mesh2D(4, 4), packet_length=5, injection_rate=0.5, seed=1)


class TestPacketCreation:
    def test_packets_registered_in_flight(self, network):
        for cycle in range(20):
            network.step(cycle)
        assert len(network.packets_in_flight) > 50
        created = sum(source.packets_created for source in network.sources)
        assert created == len(network.packets_in_flight)

    def test_unique_packet_ids(self, network):
        for cycle in range(20):
            network.step(cycle)
        ids = list(network.packets_in_flight)
        assert len(ids) == len(set(ids))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            MinimalNetwork(Mesh2D(4, 4), packet_length=5, injection_rate=0.0)


class TestMeasurement:
    def test_window_tags_packets(self, network):
        network.set_measure_window(5, 10)
        for cycle in range(20):
            network.step(cycle)
        measured = [p for p in network.packets_in_flight.values() if p.measured]
        assert measured
        for packet in measured:
            assert 5 <= packet.creation_cycle < 10
        assert network.measured_outstanding == len(measured)

    def test_eject_flit_accounting(self, network):
        network.set_measure_window(0, 100)
        network.step(0)
        packet = next(iter(network.packets_in_flight.values()))
        for i in range(packet.length):
            network.accounting.eject_flit(packet, cycle=30 + i)
        assert packet.packet_id not in network.packets_in_flight
        assert network.packets_delivered == 1
        if packet.measured:
            assert network.latency_stats.count == 1

    def test_stop_injection(self, network):
        network.stop_injection()
        for cycle in range(20):
            network.step(cycle)
        assert not network.packets_in_flight

    def test_traffic_pattern_instance_accepted(self):
        from repro.traffic.patterns import TransposeTraffic

        mesh = Mesh2D(4, 4)
        network = MinimalNetwork(
            mesh, packet_length=5, injection_rate=0.5, seed=1,
            traffic=TransposeTraffic(mesh),
        )
        for cycle in range(10):
            network.step(cycle)
        for packet in network.packets_in_flight.values():
            x, y = mesh.coordinates(packet.source)
            assert packet.destination == mesh.node_at(y, x)
