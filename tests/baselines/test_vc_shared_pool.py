"""Tests for the Tamir-Frazier shared buffer pool variant of the VC router."""

import pytest

from repro.baselines.vc.config import VCConfig
from repro.baselines.vc.network import VCNetwork
from repro.harness.saturation import measure_throughput
from repro.sim.invariants import InvariantChecker
from repro.sim.kernel import Simulator
from repro.topology.mesh import Mesh2D


@pytest.fixture
def pool_config():
    return VCConfig(num_vcs=2, buffers_per_vc=4, buffer_sharing="pool")


class TestSharedPool:
    def test_delivers_under_sustained_high_load(self, mesh4, pool_config):
        """The dedicated-slot rule keeps the pool deadlock-free even past
        saturation (a naive fully shared pool deadlocks here)."""
        network = VCNetwork(pool_config, mesh=mesh4, injection_rate=0.14, seed=7)
        simulator = Simulator(network)
        simulator.step(2_500)
        network.stop_injection()
        simulator.run_until(
            lambda: not network.packets_in_flight
            and all(ni.queue_length == 0 for ni in network.interfaces),
            deadline=40_000,
        )
        assert network.packets_delivered > 700

    def test_queue_can_exceed_private_share(self, mesh4, pool_config):
        """The point of pooling: one VC may hold more than buffers_per_vc."""
        network = VCNetwork(pool_config, mesh=mesh4, injection_rate=0.12, seed=5)
        simulator = Simulator(network, checker=InvariantChecker())  # sanitized: borrowing is legal
        exceeded = False
        for _ in range(120):
            simulator.step(10)
            for router in network.routers:
                for queues in router.in_queues:
                    if any(len(q) > pool_config.buffers_per_vc for q in queues):
                        exceeded = True
        assert exceeded

    def test_pool_occupancy_bounded(self, mesh4, pool_config):
        network = VCNetwork(pool_config, mesh=mesh4, injection_rate=0.12, seed=5)
        simulator = Simulator(network, checker=InvariantChecker())
        for _ in range(60):
            simulator.step(20)
            for router in network.routers:
                for port in range(5):
                    assert router.pool_occupancy[port] <= pool_config.buffers_per_input

    def test_no_throughput_gain_over_private(self, mesh8):
        """The paper's Section 5 finding, at VC8's saturation point."""
        private = measure_throughput(
            VCConfig(num_vcs=2, buffers_per_vc=4), 0.66, seed=2, preset="quick"
        )
        pooled = measure_throughput(
            VCConfig(num_vcs=2, buffers_per_vc=4, buffer_sharing="pool"),
            0.66,
            seed=2,
            preset="quick",
        )
        assert pooled <= private + 0.05
