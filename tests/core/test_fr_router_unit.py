"""Unit tests of the flit-reservation router on a hand-wired two-router rig.

The network-level tests exercise the router statistically; these tests pin
the control plane's per-cycle behaviour on a minimal east-west pair: control
flit processing latency, reservation feedback, advance credits, and control
credit backpressure.
"""

import pytest

from repro.core.config import FRConfig
from repro.core.flits import packet_to_control_flits
from repro.core.router import FRRouter
from repro.sim.link import Link
from repro.sim.rng import DeterministicRng
from repro.topology.mesh import EAST, INJECT, WEST, Mesh2D
from repro.topology.routing import DimensionOrderRouting


class Rig:
    """Two routers on a 2x1 mesh... actually a 2x2 mesh using its top edge."""

    def __init__(self, config=None):
        self.config = config or FRConfig(data_buffers_per_input=4, control_vcs=2)
        mesh = Mesh2D(2, 2)
        routing = DimensionOrderRouting(mesh)
        self.ejected = []
        self.consumed = []
        self.left = FRRouter(
            0, self.config, routing, DeterministicRng(1),
            lambda flit, now: self.ejected.append((0, flit, now)),
            lambda flit, now: self.consumed.append((0, flit, now)),
        )
        self.right = FRRouter(
            1, self.config, routing, DeterministicRng(2),
            lambda flit, now: self.ejected.append((1, flit, now)),
            lambda flit, now: self.consumed.append((1, flit, now)),
        )
        cfg = self.config
        data = Link(cfg.data_link_delay)
        ctrl = Link(cfg.control_link_delay, width=cfg.control_flits_per_cycle)
        adv = Link(cfg.credit_link_delay, width=4)
        ctrl_credit = Link(cfg.credit_link_delay, width=4)
        self.left.connect_output(EAST, data, ctrl, adv, ctrl_credit)
        self.right.connect_input(WEST, data, ctrl, adv, ctrl_credit)
        # The NI side of both routers (tests feed the local input directly).
        self.ni_advance_credits = []
        self.ni_control_credits = [0] * self.config.control_vcs
        for router in (self.left, self.right):
            router.ni_advance_credit = lambda now, t: self.ni_advance_credits.append(t)
            router.ni_control_credits = self.ni_control_credits
        self.cycle = 0

    def step(self, cycles=1):
        for _ in range(cycles):
            for router in (self.left, self.right):
                router.control_phase(self.cycle)
            for router in (self.left, self.right):
                router.data_departures(self.cycle)
            for router in (self.left, self.right):
                router.data_arrivals(self.cycle)
            self.cycle += 1

    def make_packet_flits(self, destination=1, length=1):
        from repro.traffic.packet import Packet

        packet = Packet(1, source=0, destination=destination, length=length,
                        creation_cycle=0)
        return packet_to_control_flits(packet, self.config.data_flits_per_control)


class TestControlPipeline:
    def test_control_flit_processed_then_forwarded_next_cycle(self):
        rig = Rig()
        control, _ = rig.make_packet_flits(destination=1, length=1)
        control[0].arrival_times = [2]  # normally set by the NI's scheduling
        rig.left.accept_control_flit(rig.left, INJECT, 0, control[0], 0)
        rig.step()  # cycle 0: processed (reservation committed)
        assert control[0].fully_scheduled()
        assert control[0].forward_at == 1
        rig.step()  # cycle 1: forwarded onto the control link
        assert not rig.left.ctrl_queues[INJECT][0]
        rig.step()  # cycle 2: arrives and is processed at the right router
        # Destination is node 1, so the right router consumes it.
        assert rig.consumed and rig.consumed[0][0] == 1

    def test_reservation_feedback_fills_input_scheduler(self):
        rig = Rig()
        control, data = rig.make_packet_flits(destination=1, length=1)
        control[0].arrival_times = [3]  # data flit will reach node 0 at cycle 3
        rig.left.accept_control_flit(rig.left, INJECT, 0, control[0], 0)
        rig.step()  # processing commits the reservation
        scheduler = rig.left.input_sched[INJECT]
        assert 3 in scheduler.expected
        departure, out_port = scheduler.expected[3]
        assert out_port == EAST
        assert departure >= 3

    def test_advance_credit_sent_to_upstream_of_input(self):
        rig = Rig()
        control, _ = rig.make_packet_flits(destination=1, length=1)
        control[0].arrival_times = [5]
        rig.left.accept_control_flit(rig.left, INJECT, 0, control[0], 0)
        rig.step()
        # The local input's upstream is the NI: it received the departure time.
        assert rig.ni_advance_credits
        assert rig.ni_advance_credits[0] >= 5

    def test_control_credit_returned_on_forward(self):
        rig = Rig()
        control, _ = rig.make_packet_flits(destination=1, length=1)
        control[0].arrival_times = [3]
        rig.left.accept_control_flit(rig.left, INJECT, 0, control[0], 0)
        rig.step(2)  # process + forward
        assert rig.ni_control_credits == [1, 0]

    def test_downstream_credit_consumed_and_restored(self):
        rig = Rig()
        per_vc = rig.config.control_buffers_per_vc
        control, _ = rig.make_packet_flits(destination=1, length=1)
        control[0].arrival_times = [3]
        rig.left.accept_control_flit(rig.left, INJECT, 0, control[0], 0)
        rig.step()  # commit consumes one downstream control credit
        assert sum(rig.left.ctrl_credits[EAST]) == 2 * per_vc - 1
        rig.step(6)  # forward, consume at right router, credit returns
        assert sum(rig.left.ctrl_credits[EAST]) == 2 * per_vc

    def test_control_vc_released_after_last_flit(self):
        rig = Rig()
        control, _ = rig.make_packet_flits(destination=1, length=2)
        assert len(control) == 2
        for i, flit in enumerate(control):
            flit.arrival_times = [3 + i]
        rig.left.accept_control_flit(rig.left, INJECT, 0, control[0], 0)
        rig.left.accept_control_flit(rig.left, INJECT, 0, control[1], 0)
        rig.step()
        assert any(rig.left.ctrl_vc_owned[EAST])
        rig.step(4)
        assert not any(rig.left.ctrl_vc_owned[EAST])


class TestDataPath:
    def test_data_flit_follows_reservation_end_to_end(self):
        rig = Rig()
        control, data = rig.make_packet_flits(destination=1, length=1)
        control[0].arrival_times = [2]
        rig.left.accept_control_flit(rig.left, INJECT, 0, control[0], 0)
        rig.step(2)
        departure = None
        # Inject the data flit at its expected arrival cycle (2).
        rig.left.inject_data(data[0], 2)
        rig.step(12)
        ejections = [(node, flit) for node, flit, _ in rig.ejected]
        assert (1, data[0]) in ejections
