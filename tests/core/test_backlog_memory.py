"""Backlog memory witness: the FR source queue holds packets, not flits.

Open-loop sources past saturation grow the source queue without bound, so
what a waiting packet costs decides how long an oversaturated run can be.
The NI keeps each waiting packet whole and makes its control groups (one
control flit and the ``d`` data flits it leads) one at a time, only when the
previous group has left.  An NI that expanded packets at creation retains
~2.5 KB per waiting packet here and holds a whole backlog of groups.
"""

import gc
import tracemalloc

from repro import FR6
from repro.harness.experiment import build_network
from repro.topology.mesh import Mesh2D

#: Untraced warm-up, first and second measured length (cycles).  Load 1.0
#: is past the 4x4 mesh's saturation, so every NI's backlog grows.
WARMUP, FIRST, SECOND = 200, 300, 600

#: Retained bytes per extra waiting packet: the Packet, its id, its slot
#: in ``packets_in_flight`` and the source queue (~330 B measured at these
#: lengths); expanding each packet at creation costs ~2.5 KB.
BYTES_PER_WAITING_PACKET = 600


def holds_at_most_one_group(interface, d):
    """The NI's queued control flits are one group of one packet."""
    queue = interface.control_queue
    if not queue:
        return True
    packet = queue[0].packet
    return all(flit.packet is packet for flit in queue) and (
        sum(len(flit.data_flits) for flit in queue) <= d
    )


def waiting_packets(network):
    return sum(interface.packets_pending for interface in network.interfaces)


class TestBacklogMemory:
    def test_a_waiting_packet_costs_no_flits(self):
        network = build_network(FR6, 1.0, mesh=Mesh2D(4, 4), seed=1)
        d = FR6.data_flits_per_control

        def step(start, stop):
            for cycle in range(start, stop):
                network.step(cycle)
                for node, interface in enumerate(network.interfaces):
                    assert holds_at_most_one_group(interface, d), (
                        f"NI {node} holds {len(interface.control_queue)} control "
                        f"flits at cycle {cycle}"
                    )

        def retained():
            gc.collect()
            return tracemalloc.get_traced_memory()[0], waiting_packets(network)

        step(0, WARMUP)
        tracemalloc.start()
        try:
            step(WARMUP, FIRST)
            bytes_first, waiting_first = retained()
            step(FIRST, SECOND)
            bytes_second, waiting_second = retained()
        finally:
            tracemalloc.stop()
        extra = waiting_second - waiting_first
        assert extra > 200, "load 1.0 must grow the backlog"
        per_packet = (bytes_second - bytes_first) / extra
        assert per_packet <= BYTES_PER_WAITING_PACKET, (
            f"{per_packet:.0f} B retained per extra waiting packet"
        )
