"""Conservation invariants of the flit-reservation network after a drain.

When every packet has been delivered and the NIs are empty, all transient
state must have returned to rest: free-buffer views back at pool size,
control credits fully restored, no residual reservations, empty pools.
Any leak here (a lost credit, an unmatched reservation) would slowly
strangle a long-running network.
"""

import pytest

from repro.core.config import FRConfig
from repro.core.network import FRNetwork
from repro.sim.kernel import Simulator
from repro.topology.mesh import Mesh2D, opposite_port


@pytest.fixture(params=["d1", "d4"])
def drained_network(request, mesh4):
    if request.param == "d1":
        config = FRConfig(data_buffers_per_input=6, control_vcs=2)
        rate = 0.08
    else:
        config = FRConfig(
            data_buffers_per_input=5, control_vcs=2, data_flits_per_control=4
        )
        rate = 0.07
    network = FRNetwork(config, mesh=mesh4, injection_rate=rate, seed=9)
    simulator = Simulator(network)
    simulator.step(1_500)
    network.stop_injection()
    simulator.run_until(
        lambda: not network.packets_in_flight
        and all(ni.queue_length == 0 for ni in network.interfaces),
        deadline=40_000,
    )
    # A few extra cycles so in-flight credits land.
    simulator.step(20)
    return network, simulator.cycle


class TestConservation:
    def test_all_pools_empty(self, drained_network):
        network, _ = drained_network
        for router in network.routers:
            for scheduler in router.input_sched:
                assert scheduler.occupancy == 0
                assert not scheduler.schedule_list
                assert not scheduler.expected
                assert not scheduler.departures

    def test_free_buffer_views_fully_restored(self, drained_network):
        network, now = drained_network
        pool = network.config.data_buffers_per_input
        for router in network.routers:
            for port in router.connected_outputs:
                table = router.out_tables[port]
                table.advance(now)
                for cycle in range(now, now + network.config.scheduling_horizon):
                    assert table.free_buffers_at(cycle) == pool, (
                        f"node {router.node} port {port} cycle {cycle}"
                    )

    def test_control_credits_fully_restored(self, drained_network):
        network, _ = drained_network
        per_vc = network.config.control_buffers_per_vc
        for router in network.routers:
            for port in router.connected_outputs:
                for vc in range(network.config.control_vcs):
                    assert router.ctrl_credits[port][vc] == per_vc

    def test_control_queues_and_vc_ownership_clear(self, drained_network):
        network, _ = drained_network
        for router in network.routers:
            for queues in router.ctrl_queues:
                assert all(not queue for queue in queues)
            for owned in router.ctrl_vc_owned:
                assert not any(owned)
            for entries in router.route_table:
                assert all(entry is None for entry in entries)

    def test_injection_tables_restored(self, drained_network):
        network, now = drained_network
        pool = network.config.data_buffers_per_input
        for interface in network.interfaces:
            table = interface.injection_table
            table.advance(now)
            for cycle in range(now, now + network.config.scheduling_horizon):
                assert table.free_buffers_at(cycle) == pool
