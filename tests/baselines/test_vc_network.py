"""Integration tests for the virtual-channel network."""

import pytest

from repro.baselines.vc.config import VCConfig
from repro.baselines.vc.flits import packet_to_flits
from repro.baselines.vc.network import VCNetwork
from repro.sim.kernel import Simulator
from repro.traffic.packet import Packet


def run_traffic(config, mesh, cycles, rate, seed=5, **kwargs):
    network = VCNetwork(config, mesh=mesh, injection_rate=rate, seed=seed, **kwargs)
    simulator = Simulator(network)
    simulator.step(cycles)
    network.stop_injection()
    simulator.run_until(
        lambda: not network.packets_in_flight
        and all(ni.queue_length == 0 for ni in network.interfaces),
        deadline=cycles + 20_000,
    )
    return network, simulator


class TestFlitFraming:
    def test_five_flit_packet(self):
        packet = Packet(1, 0, 1, 5, 0)
        flits = packet_to_flits(packet)
        assert len(flits) == 5
        assert flits[0].is_head and not flits[0].is_tail
        assert flits[-1].is_tail and not flits[-1].is_head
        assert all(not f.is_head and not f.is_tail for f in flits[1:-1])

    def test_single_flit_packet_is_head_and_tail(self):
        flits = packet_to_flits(Packet(1, 0, 1, 1, 0))
        assert len(flits) == 1
        assert flits[0].is_head and flits[0].is_tail


class TestDelivery:
    def test_all_packets_delivered(self, mesh4, small_vc_config):
        network, _ = run_traffic(small_vc_config, mesh4, cycles=1_500, rate=0.02)
        assert network.packets_delivered > 50
        assert not network.packets_in_flight

    def test_single_packet_end_to_end(self, mesh4, small_vc_config):
        network = VCNetwork(small_vc_config, mesh=mesh4, injection_rate=0.5, seed=1)
        network.stop_injection()
        packet = Packet(1, source=0, destination=15, length=5, creation_cycle=0)
        network.packets_in_flight[1] = packet
        network.interfaces[0].enqueue(packet)
        simulator = Simulator(network)
        simulator.run_until(lambda: packet.delivered, deadline=500)
        # 6 hops at 5 cycles each, plus injection/ejection/serialisation.
        assert 30 <= packet.latency <= 40

    def test_heavy_load_no_loss(self, mesh4, small_vc_config):
        network, _ = run_traffic(small_vc_config, mesh4, cycles=2_000, rate=0.12)
        assert network.packets_delivered > 500
        assert not network.packets_in_flight

    def test_single_vc_wormhole_mode(self, mesh4):
        config = VCConfig(num_vcs=1, buffers_per_vc=8)
        network, _ = run_traffic(config, mesh4, cycles=1_200, rate=0.04)
        assert network.packets_delivered > 150

    def test_shared_pool_mode(self, mesh4):
        config = VCConfig(num_vcs=2, buffers_per_vc=4, buffer_sharing="pool")
        network, _ = run_traffic(config, mesh4, cycles=1_500, rate=0.08)
        assert network.packets_delivered > 300
        assert not network.packets_in_flight

    def test_when_empty_reallocation(self, mesh4):
        config = VCConfig(num_vcs=2, buffers_per_vc=4, vc_reallocation="when_empty")
        network, _ = run_traffic(config, mesh4, cycles=1_200, rate=0.04)
        assert network.packets_delivered > 150

    def test_long_packets(self, mesh4, small_vc_config):
        network, _ = run_traffic(
            small_vc_config, mesh4, cycles=1_200, rate=0.008, packet_length=21
        )
        assert network.packets_delivered > 20


class TestInvariants:
    def test_credit_conservation(self, mesh4, small_vc_config):
        """After draining, every credit must have returned home."""
        network, simulator = run_traffic(small_vc_config, mesh4, cycles=1_000, rate=0.05)
        # The last flits' credits are still crossing their links.
        simulator.step(small_vc_config.credit_link_delay + 1)
        for router in network.routers:
            for port in network.mesh.mesh_ports(router.node):
                for vc in range(small_vc_config.num_vcs):
                    assert (
                        router.out_credits[port][vc] == small_vc_config.buffers_per_vc
                    ), f"credit leak at node {router.node} port {port} vc {vc}"

    def test_no_stranded_flits(self, mesh4, small_vc_config):
        network, simulator = run_traffic(small_vc_config, mesh4, cycles=1_000, rate=0.05)
        # The last flits' credits are still crossing their links.
        simulator.step(small_vc_config.credit_link_delay + 1)
        for router in network.routers:
            for queues in router.in_queues:
                for queue in queues:
                    assert not queue

    def test_determinism(self, mesh4, small_vc_config):
        a, _ = run_traffic(small_vc_config, mesh4, cycles=800, rate=0.05, seed=11)
        b, _ = run_traffic(small_vc_config, mesh4, cycles=800, rate=0.05, seed=11)
        assert a.packets_delivered == b.packets_delivered
        assert a.latency_stats.samples() == b.latency_stats.samples()
