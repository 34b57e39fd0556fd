"""Tests for the simulation kernel."""

import re

import pytest

from repro import FR6, VC8
from repro.harness.experiment import build_network
from repro.sim.kernel import SimulationError, Simulator
from repro.topology.mesh import EAST, EJECT, PORT_NAMES, Mesh2D

PORT_NUMBERS = {name: port for port, name in PORT_NAMES.items()}


def _stuck_report(config, credits_of):
    """Run a 4x4 network whose router 5 has no credits left east (the list
    ``credits_of(router)[EAST]`` is zeroed), until its deadline fails."""
    network = build_network(config, 0.3, mesh=Mesh2D(4, 4), seed=1)
    stuck = credits_of(network.routers[5])[EAST]
    stuck[:] = [0] * len(stuck)
    with pytest.raises(SimulationError) as caught:
        Simulator(network).run_until(lambda: False, deadline=300)
    return network, str(caught.value)


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
        assert sim.cycle == 50  # the condition is checked every cycle


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
        for node, port, vc, packet_id, queued, unscheduled, forward_at in heads:
            router = network.routers[int(node)]
            assert control_flags[router.node] == 1
            queue = router.ctrl_queues[PORT_NUMBERS[port]][int(vc)]
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

    def test_fr_report_gives_each_blocked_output_tables_state(self):
        network, message = _stuck_report(FR6, lambda router: router.ctrl_credits)
        tables = re.findall(
            r"router (\d+) (\w+) vc (\d+): head control flit of packet #\d+ \(\d+ queued\), "
            r"unscheduled (\d+), forward_at -?\d+; output (\w+) table: (\d+) busy slots, "
            r"(\d+|unbounded) free at window end",
            message,
        )
        assert tables, message
        for node, port, vc, unscheduled, output, busy, free in tables:
            router = network.routers[int(node)]
            assert int(unscheduled) == router.ctrl_queues[PORT_NUMBERS[port]][int(vc)][0].unscheduled > 0
            entry = router.route_table[PORT_NUMBERS[port]][int(vc)]
            assert entry[0] == PORT_NUMBERS[output]
            table = router.out_tables[entry[0]]
            assert int(busy) == table.busy_slots()
            assert free == (
                "unbounded" if table.infinite_buffers
                else str(table.free_buffers_at(table.window_end))
            )
        control_flags = network.phases[0].flags
        assert len(tables) == sum(
            1
            for router in network.routers
            if control_flags[router.node]
            for port, queues in enumerate(router.ctrl_queues)
            for vc, queue in enumerate(queues)
            if queue and queue[0].unscheduled and router.route_table[port][vc] is not None
        )
        # Router 5 holds flits for its credit-less east output.
        assert ("5", "east") in {(node, output) for node, _, _, _, output, _, _ in tables}

    def test_vc_report_names_head_flits_routes_credits_and_ni_queues(self):
        network, message = _stuck_report(VC8, lambda router: router.out_credits)
        heads = re.findall(
            r"router (\d+) (\w+) vc (\d+): head flit of packet #(\d+) \(head (True|False), "
            r"tail (True|False), (\d+) queued\), (unrouted|output local \(eject\)|"
            r"output (\w+) vc (\d+), (\d+) credits left)",
            message,
        )
        assert heads, message
        awake = network.phases[0].flags
        for node, port, vc, packet_id, head, tail, queued, route, output, out_vc, left in heads:
            router = network.routers[int(node)]
            assert awake[router.node] == 1
            port, vc = PORT_NUMBERS[port], int(vc)
            queue = router.in_queues[port][vc]
            assert (queue[0].packet.packet_id, str(queue[0].is_head), str(queue[0].is_tail),
                    len(queue)) == (int(packet_id), head, tail, int(queued))
            out_port = router.in_route[port][vc]
            if route == "unrouted":
                assert out_port == -1
            elif output == "":
                assert out_port == EJECT
            else:
                assert (out_port, router.in_out_vc[port][vc]) == (PORT_NUMBERS[output], int(out_vc))
                assert router.out_credits[out_port][int(out_vc)] == int(left)
        assert len(heads) == sum(
            1
            for router in network.routers
            if awake[router.node]
            for queues in router.in_queues
            for queue in queues
            if queue
        )
        # Router 5 holds flits routed to its credit-less east output.
        assert any(
            node == "5" and output == "east" and left == "0"
            for node, *_, output, _, left in heads
        )
        backlogs = re.findall(
            r"NI (\d+): (\d+) packets queued \(([^)]*)\), injecting (#\d+|none)", message
        )
        assert len(backlogs) == sum(1 for ni in network.interfaces if ni.queue_length) > 0
        for node, queued, shown, injecting in backlogs:
            interface = network.interfaces[int(node)]
            ids = [f"#{packet.packet_id}" for packet in interface.packet_queue]
            assert int(queued) == len(ids)
            assert shown == (", ".join(ids[:8] + ["..."] * (len(ids) > 8)) or "none")
            current = interface.current_packet
            assert injecting == ("none" if current is None else f"#{current.packet_id}")

    def test_a_network_without_a_report_keeps_the_plain_message(self):
        sim = Simulator(CountingNetwork())
        with pytest.raises(SimulationError, match=r"deadline is too tight$"):
            sim.run_until(lambda: False, deadline=5)
