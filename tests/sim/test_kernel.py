"""Tests for the simulation kernel."""

import re

import pytest

from repro import FR6
from repro.harness.experiment import build_network
from repro.sim.kernel import SimulationError, Simulator
from repro.topology.mesh import Mesh2D


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

    def test_a_network_without_a_report_keeps_the_plain_message(self):
        sim = Simulator(CountingNetwork())
        with pytest.raises(SimulationError, match=r"deadline is too tight$"):
            sim.run_until(lambda: False, deadline=5)
