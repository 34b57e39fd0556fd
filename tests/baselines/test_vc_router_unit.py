"""Unit tests of the virtual-channel router on a hand-wired two-router rig.

Pins the per-cycle behaviour: single-stage pipeline timing, credit
consumption and return, VC allocation/release, and the buffer turnaround
that flit-reservation flow control eliminates.
"""

import pytest

from repro.baselines.vc.config import VCConfig
from repro.baselines.vc.flits import BODY, HEAD, HEAD_TAIL, TAIL, packet_to_flits
from repro.baselines.vc.router import VCRouter
from repro.sim.link import Link
from repro.sim.rng import DeterministicRng
from repro.topology.mesh import EAST, INJECT, WEST, Mesh2D
from repro.topology.routing import DimensionOrderRouting
from repro.traffic.packet import Packet


class Rig:
    """Routers 0 and 1 of a 2x2 mesh, wired only along the east-west edge."""

    def __init__(self, config=None):
        self.config = config or VCConfig(num_vcs=2, buffers_per_vc=4)
        mesh = Mesh2D(2, 2)
        routing = DimensionOrderRouting(mesh)
        self.ejected = []
        self.left = VCRouter(
            0, self.config, routing, DeterministicRng(1),
            lambda flit, now: self.ejected.append((0, flit, now)),
        )
        self.right = VCRouter(
            1, self.config, routing, DeterministicRng(2),
            lambda flit, now: self.ejected.append((1, flit, now)),
        )
        data = Link(self.config.data_link_delay)
        credit = Link(self.config.credit_link_delay)
        self.left.connect_output(EAST, data, credit)
        self.right.connect_input(WEST, data, credit)
        self.ni_credits = []
        for router in (self.left, self.right):
            router.ni_credit = self.ni_credits.append
        self.cycle = 0

    def step(self, cycles=1):
        for _ in range(cycles):
            for router in (self.left, self.right):
                router.deliver_credits(self.cycle)
                router.switch_traversal(self.cycle)
            for router in (self.left, self.right):
                router.deliver_flits(self.cycle)
            for router in (self.left, self.right):
                router.route_and_allocate(self.cycle)
            self.cycle += 1

    def inject_packet(self, destination=1, length=1, vc=0):
        packet = Packet(1, source=0, destination=destination, length=length,
                        creation_cycle=self.cycle)
        for flit in packet_to_flits(packet):
            self.left.accept_flit(INJECT, vc, flit)
        return packet


class TestFlitFraming:
    @pytest.mark.parametrize(
        "length,kinds",
        [
            (1, [HEAD_TAIL]),
            (2, [HEAD, TAIL]),
            (5, [HEAD, BODY, BODY, BODY, TAIL]),
        ],
    )
    def test_head_and_tail_flags_follow_the_kind(self, length, kinds):
        packet = Packet(7, source=0, destination=1, length=length, creation_cycle=0)
        flits = packet_to_flits(packet)
        assert [flit.kind for flit in flits] == kinds
        assert [flit.index for flit in flits] == list(range(length))
        assert [flit.is_head for flit in flits] == [True] + [False] * (length - 1)
        assert [flit.is_tail for flit in flits] == [False] * (length - 1) + [True]
        assert all(flit.destination == 1 for flit in flits)

    def test_repr_names_the_kind(self):
        packet = Packet(7, source=0, destination=1, length=3, creation_cycle=0)
        assert [repr(flit) for flit in packet_to_flits(packet)] == [
            "VCFlit(pkt=7, head, #0)",
            "VCFlit(pkt=7, body, #1)",
            "VCFlit(pkt=7, tail, #2)",
        ]
        single = Packet(8, source=0, destination=1, length=1, creation_cycle=0)
        assert repr(packet_to_flits(single)[0]) == "VCFlit(pkt=8, head+tail, #0)"


class TestPipelineTiming:
    def test_one_cycle_per_router_plus_wire(self):
        """Flit injected before cycle 0 departs at 1, arrives at 1+delay,
        and is ejected after one more router cycle."""
        rig = Rig()
        packet = rig.inject_packet(destination=1, length=1)
        rig.step(1)  # cycle 0: routed + VC allocated; no traversal yet
        assert not rig.ejected
        rig.step(1)  # cycle 1: wins the switch at node 0, enters the wire
        assert rig.left.in_queues[INJECT][0] == type(rig.left.in_queues[INJECT][0])()
        # delay=4 wire: arrives at right router at cycle 5, ejects at 6.
        rig.step(5)
        assert rig.ejected
        node, flit, when = rig.ejected[0]
        assert node == 1
        assert when == 6


class TestCredits:
    def test_send_consumes_credit_and_pop_restores_it(self):
        rig = Rig()
        per_vc = rig.config.buffers_per_vc
        rig.inject_packet(destination=1, length=1)
        rig.step(2)  # route + traverse
        assert sum(rig.left.out_credits[EAST]) == 2 * per_vc - 1
        rig.step(6)  # arrival, ejection, credit return (1-cycle wire back)
        assert sum(rig.left.out_credits[EAST]) == 2 * per_vc

    def test_ni_credit_returned_on_forward(self):
        rig = Rig()
        rig.inject_packet(destination=1, length=1, vc=1)
        rig.step(2)
        assert rig.ni_credits == [1]

    def test_no_send_without_credit(self):
        """Fill the downstream VC queue; the sender must stall until a
        credit comes back."""
        config = VCConfig(num_vcs=1, buffers_per_vc=2)
        rig = Rig(config)
        # Two 1-flit packets fill the downstream queue if nothing drains;
        # block draining by giving the right router no eject opportunity?
        # Ejection always drains, so instead check accounting: credits
        # never go negative while a long packet streams.
        packet = Packet(1, 0, 1, 8, 0)
        for flit in packet_to_flits(packet):
            try:
                rig.left.accept_flit(INJECT, 0, flit)
            except RuntimeError:
                break  # input buffer full: expected for a long packet
        for _ in range(30):
            rig.step()
            assert rig.left.out_credits[EAST][0] >= 0


class TestVCAllocation:
    def test_vc_released_after_tail(self):
        rig = Rig()
        rig.inject_packet(destination=1, length=3)
        rig.step(2)
        assert any(rig.left.out_vc_owned[EAST])
        rig.step(4)  # head, body, tail all traverse
        assert not any(rig.left.out_vc_owned[EAST])

    def test_two_packets_use_distinct_vcs(self):
        rig = Rig()
        long_a = Packet(1, 0, 1, 6, 0)
        long_b = Packet(2, 0, 1, 6, 0)
        for flit in packet_to_flits(long_a)[:4]:
            rig.left.accept_flit(INJECT, 0, flit)
        for flit in packet_to_flits(long_b)[:4]:
            rig.left.accept_flit(INJECT, 1, flit)
        rig.step(3)
        owned = rig.left.out_vc_owned[EAST]
        assert owned.count(True) == 2


class TestBufferTurnaround:
    def test_vc_buffer_idles_for_the_round_trip(self):
        """The inefficiency the paper's Figure 1 shows: after a flit departs
        downstream, its buffer slot is unusable upstream until the credit
        returns -- departure cycle + wire (1) + delivery."""
        config = VCConfig(num_vcs=1, buffers_per_vc=1)
        rig = Rig(config)
        rig.inject_packet(destination=1, length=1)
        rig.step(2)  # flit on the wire at cycle 1; credit count now 0
        assert rig.left.out_credits[EAST][0] == 0
        # Flit arrives at 5, ejects at 6, credit sent at 6, delivered at 7:
        # the buffer slot was unusable upstream for the whole round trip.
        for cycle_end, expected in [(5, 0), (6, 0), (7, 1)]:
            rig.step(cycle_end - rig.cycle + 1)
            assert rig.left.out_credits[EAST][0] == expected, f"cycle {cycle_end}"
