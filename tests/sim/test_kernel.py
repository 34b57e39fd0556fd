"""Tests for the simulation kernel."""

import re

import pytest

from repro import FR6
from repro.harness.experiment import build_network
from repro.sim.kernel import SimulationError, Simulator
from repro.topology.mesh import PORT_NAMES, Mesh2D


class CountingNetwork:
    def __init__(self):
        self.cycles_seen = []

    def step(self, cycle):
        self.cycles_seen.append(cycle)


class TestStepping:
    def test_step_advances_clock(self):
        sim = Simulator(CountingNetwork())
        sim.step()
        sim.step(3)
        assert sim.cycle == 4

    def test_network_sees_consecutive_cycles(self):
        net = CountingNetwork()
        sim = Simulator(net)
        sim.step(5)
        assert net.cycles_seen == [0, 1, 2, 3, 4]

    def test_hard_ceiling(self):
        sim = Simulator(CountingNetwork(), max_cycles=10)
        with pytest.raises(SimulationError):
            sim.step(100)


class TestRunUntil:
    def test_stops_when_condition_true(self):
        net = CountingNetwork()
        sim = Simulator(net)
        end = sim.run_until(lambda: len(net.cycles_seen) >= 7)
        assert end == 7
        assert sim.cycle == 7

    def test_immediate_condition_runs_zero_cycles(self):
        sim = Simulator(CountingNetwork())
        assert sim.run_until(lambda: True) == 0

    def test_deadline_raises(self):
        sim = Simulator(CountingNetwork())
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False, deadline=50)

    def test_check_every_granularity(self):
        net = CountingNetwork()
        sim = Simulator(net)
        sim.run_until(lambda: len(net.cycles_seen) >= 5, check_every=4)
        # Overshoot is bounded by the check granularity.
        assert 5 <= sim.cycle <= 8


class TestStallReport:
    """A run that misses its deadline says what the network still holds."""

    def test_tight_deadline_names_awake_phases_and_the_oldest_packet(self):
        network = build_network(FR6, 0.5, mesh=Mesh2D(4, 4), seed=1)
        sim = Simulator(network)
        with pytest.raises(SimulationError) as caught:
            sim.run_until(lambda: False, deadline=30)
        message = str(caught.value)
        assert message.startswith("stop condition not reached by cycle 30")
        awake = re.search(r"FRRouter\.control_phase awake at nodes: (\d+)", message)
        assert awake is not None, message
        assert network.phases[0].flags[int(awake.group(1))] == 1
        assert "FRNodeInterface.data_phase awake at nodes: " in message
        oldest = min(network.packets_in_flight.values(), key=lambda p: p.creation_cycle)
        assert (
            f"{len(network.packets_in_flight)} packets in flight; "
            f"oldest #{oldest.packet_id} from node {oldest.source} to node "
            f"{oldest.destination}, created at cycle {oldest.creation_cycle}"
        ) in message

    def test_fr_report_names_head_control_flits_and_ni_backlogs(self):
        network = build_network(FR6, 1.0, mesh=Mesh2D(4, 4), seed=1)
        sim = Simulator(network)
        with pytest.raises(SimulationError) as caught:
            sim.run_until(lambda: False, deadline=60)
        message = str(caught.value)
        control_flags = network.phases[0].flags
        heads = re.findall(
            r"router (\d+) (\w+) vc (\d+): head control flit of packet #(\d+) "
            r"\((\d+) queued\), unscheduled (\d+), forward_at (-?\d+)",
            message,
        )
        assert heads, message
        port_numbers = {name: port for port, name in PORT_NAMES.items()}
        for node, port, vc, packet_id, queued, unscheduled, forward_at in heads:
            router = network.routers[int(node)]
            assert control_flags[router.node] == 1
            queue = router.ctrl_queues[port_numbers[port]][int(vc)]
            head = queue[0]
            assert (head.packet.packet_id, len(queue), head.unscheduled, head.forward_at) == (
                int(packet_id), int(queued), int(unscheduled), int(forward_at)
            )
        backlogs = re.findall(r"NI (\d+): (\d+) packets queued, current packet (#\d+|none)", message)
        assert len(backlogs) == sum(1 for ni in network.interfaces if ni.packets_pending)
        for node, queued, current in backlogs:
            interface = network.interfaces[int(node)]
            assert int(queued) == interface.packets_pending > 0
            if interface.control_queue:
                assert current == f"#{interface.control_queue[0].packet.packet_id}"

    def test_a_network_without_a_report_keeps_the_plain_message(self):
        sim = Simulator(CountingNetwork())
        with pytest.raises(SimulationError, match=r"deadline is too tight$"):
            sim.run_until(lambda: False, deadline=5)
