"""The FR node interface makes a packet's control groups one at a time."""

from dataclasses import replace

import pytest

from repro import FR6
from repro.core.flits import packet_to_control_flits
from repro.harness.experiment import build_network
from repro.topology.mesh import Mesh2D
from repro.traffic.packet import Packet


class TestGroupAtATime:
    def test_enqueue_makes_no_flits(self):
        network = build_network(FR6, 0.1, mesh=Mesh2D(2, 2), seed=1)
        interface = network.interfaces[0]
        for packet_id in range(3):
            interface.enqueue(Packet(packet_id, source=0, destination=3, length=5, creation_cycle=0))
        assert len(interface.packet_queue) == 3 and not interface.control_queue
        assert interface.packets_pending == 3
        assert interface.data_flits_pending == 15

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_groups_follow_the_head_packet_in_order(self, d):
        config = replace(FR6, data_flits_per_control=d)
        network = build_network(config, 0.1, mesh=Mesh2D(2, 2), seed=1)
        interface = network.interfaces[0]
        packets = [Packet(i, source=0, destination=3, length=5, creation_cycle=0) for i in range(2)]
        for packet in packets:
            interface.enqueue(packet)
        seen = []
        while interface.packet_queue:
            interface._queue_next_group()
            flit = interface.control_queue.pop()
            seen.append((flit.packet.packet_id, flit.is_head, flit.is_last, len(flit.data_flits)))
        expected = [
            (packet.packet_id, control.is_head, control.is_last, len(control.data_flits))
            for packet in packets
            for control in packet_to_control_flits(packet, d)[0]
        ]
        assert seen == expected
