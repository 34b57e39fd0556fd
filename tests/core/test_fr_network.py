"""Integration tests for the flit-reservation network."""

from dataclasses import replace

import pytest

from repro.core.config import FRConfig
from repro.core.network import FRNetwork
from repro.sim.kernel import Simulator
from repro.topology.mesh import Mesh2D


def drain(network, max_cycles=30_000):
    simulator = Simulator(network)
    return simulator, simulator.cycle


def run_traffic(config, mesh, cycles, rate, seed=5, **kwargs):
    network = FRNetwork(
        config, mesh=mesh, injection_rate=rate, seed=seed, **kwargs
    )
    simulator = Simulator(network)
    simulator.step(cycles)
    network.stop_injection()
    simulator.run_until(
        lambda: not network.packets_in_flight
        and all(ni.queue_length == 0 for ni in network.interfaces),
        deadline=cycles + 20_000,
        check_every=5,
    )
    return network, simulator


class TestDelivery:
    def test_all_packets_delivered_exactly_once(self, mesh4, small_fr_config):
        network, _ = run_traffic(small_fr_config, mesh4, cycles=1_500, rate=0.02)
        assert network.packets_delivered > 50
        assert not network.packets_in_flight

    def test_single_packet_end_to_end(self, mesh4, small_fr_config):
        network = FRNetwork(small_fr_config, mesh=mesh4, injection_rate=0.5, seed=1)
        network.stop_injection()
        from repro.traffic.packet import Packet

        packet = Packet(1, source=0, destination=15, length=5, creation_cycle=0)
        network.packets_in_flight[1] = packet
        network.interfaces[0].enqueue(packet)
        simulator = Simulator(network)
        simulator.run_until(lambda: packet.delivered, deadline=500)
        assert packet.flits_delivered == 5

    def test_heavy_load_no_loss(self, mesh4):
        """Near saturation, every injected flit still arrives exactly once
        (the reservation protocol must never drop or duplicate)."""
        config = FRConfig(data_buffers_per_input=4, control_vcs=2)
        network, _ = run_traffic(config, mesh4, cycles=2_000, rate=0.12)
        assert network.packets_delivered > 500
        assert not network.packets_in_flight

    def test_long_packets(self, mesh4, small_fr_config):
        network, _ = run_traffic(
            small_fr_config, mesh4, cycles=1_200, rate=0.008, packet_length=21
        )
        assert network.packets_delivered > 20
        assert not network.packets_in_flight

    def test_single_flit_packets(self, mesh4, small_fr_config):
        network, _ = run_traffic(
            small_fr_config, mesh4, cycles=1_000, rate=0.05, packet_length=1
        )
        assert network.packets_delivered > 100
        assert not network.packets_in_flight


class TestAnonymityOfDataFlits:
    def test_flits_delivered_by_timing_alone(self, mesh4, small_fr_config):
        """The routers never read DataFlit.packet for decisions; if the
        timing tables were wrong, the destination assertion in the ejection
        hook would fire.  This test just confirms it holds under load with
        deterministic permutation traffic (every node sending)."""
        network, _ = run_traffic(
            small_fr_config, mesh4, cycles=1_500, rate=0.06, traffic="bit_complement"
        )
        assert network.packets_delivered > 300


class TestLeadingControl:
    @pytest.mark.parametrize("lead", [1, 2, 4])
    def test_delivery_with_injection_lead(self, mesh4, small_fr_config, lead):
        config = small_fr_config.with_leading_control(lead)
        network, _ = run_traffic(config, mesh4, cycles=1_200, rate=0.04)
        assert network.packets_delivered > 150
        assert not network.packets_in_flight

    def test_larger_lead_does_not_break_horizon(self, mesh4, small_fr_config):
        config = small_fr_config.with_leading_control(10)
        network, _ = run_traffic(config, mesh4, cycles=1_000, rate=0.02)
        assert network.packets_delivered > 50


class TestSchedulingPolicies:
    def test_all_or_nothing_delivers(self, mesh4):
        config = FRConfig(
            data_buffers_per_input=6,
            data_flits_per_control=4,
            scheduling_policy="all_or_nothing",
        )
        network, _ = run_traffic(config, mesh4, cycles=1_200, rate=0.03)
        assert network.packets_delivered > 100
        assert not network.packets_in_flight

    def test_all_or_nothing_bound_is_the_buffer_count(self, mesh4):
        # A control flit leads min(d, packet length) data flits; all of them
        # must fit the next hop's buffers in one cycle.  B flits deliver...
        config = FRConfig(
            data_buffers_per_input=4,
            data_flits_per_control=5,
            scheduling_policy="all_or_nothing",
        )
        network, _ = run_traffic(config, mesh4, cycles=1_000, rate=0.02, packet_length=4)
        assert network.packets_delivered > 50
        assert not network.packets_in_flight
        # ...B + 1 never would, so the network is refused, naming all three.
        with pytest.raises(ValueError) as refused:
            FRNetwork(config, mesh=mesh4, packet_length=5)
        message = str(refused.value)
        for field in ("data_flits_per_control=5", "packet_length=5", "data_buffers_per_input=4"):
            assert field in message
        # The bound is on the flits one control flit leads, not on d alone.
        FRNetwork(replace(config, data_flits_per_control=4), mesh=mesh4, packet_length=5)

    def test_wide_control_flits_deliver(self, mesh4):
        config = FRConfig(data_buffers_per_input=6, data_flits_per_control=4)
        network, _ = run_traffic(config, mesh4, cycles=1_200, rate=0.03)
        assert network.packets_delivered > 100

    def test_at_reservation_allocation_counts_transfers(self, mesh4):
        config = FRConfig(data_buffers_per_input=4, buffer_allocation="at_reservation")
        network, _ = run_traffic(config, mesh4, cycles=1_500, rate=0.10)
        # The counter exists and is non-negative; the ablation benchmark
        # quantifies it under contention.
        assert network.buffer_transfer_count() >= 0


class TestBypass:
    def test_bypass_dominates_at_low_load(self, mesh4, small_fr_config):
        network, _ = run_traffic(small_fr_config, mesh4, cycles=1_500, rate=0.01)
        assert network.bypass_fraction() > 0.5

    def test_bypass_declines_under_load(self, mesh4, small_fr_config):
        light, _ = run_traffic(small_fr_config, mesh4, cycles=1_500, rate=0.01)
        heavy, _ = run_traffic(small_fr_config, mesh4, cycles=1_500, rate=0.12)
        assert heavy.bypass_fraction() < light.bypass_fraction()


class TestDeterminism:
    def test_same_seed_same_results(self, mesh4, small_fr_config):
        a, _ = run_traffic(small_fr_config, mesh4, cycles=800, rate=0.05, seed=11)
        b, _ = run_traffic(small_fr_config, mesh4, cycles=800, rate=0.05, seed=11)
        assert a.packets_delivered == b.packets_delivered
        assert a.bypass_fraction() == b.bypass_fraction()

    def test_different_seed_different_results(self, mesh4, small_fr_config):
        a, _ = run_traffic(small_fr_config, mesh4, cycles=800, rate=0.05, seed=11)
        b, _ = run_traffic(small_fr_config, mesh4, cycles=800, rate=0.05, seed=12)
        assert a.packets_delivered != b.packets_delivered or (
            a.bypass_fraction() != b.bypass_fraction()
        )
