"""Tests for the control-flit splitting extension (wide control flits).

With d > 1 and per-flit scheduling, a control flit stalled mid-group
forwards its progress as a *split* control flit so the data flits that
already moved ahead can be scheduled onward -- the deadlock-avoidance
extension for the cross-dependency the paper's Section 5 leaves open.
"""

import pytest

from repro.core.config import FRConfig
from repro.core.flits import ControlFlit, packet_to_control_flits
from repro.core.network import FRNetwork
from repro.sim.kernel import Simulator
from repro.topology.mesh import Mesh2D
from repro.traffic.packet import Packet


def make_wide_flit(length=4):
    packet = Packet(1, source=0, destination=9, length=length, creation_cycle=0)
    control, _ = packet_to_control_flits(packet, data_flits_per_control=length)
    return control[0]


class TestSplitScheduled:
    def test_split_partitions_the_group(self):
        flit = make_wide_flit(4)
        flit.scheduled = [True, True, False, False]
        flit.arrival_times = [10, 11, -1, -1]
        split = flit.split_scheduled()
        assert [f.index for f in split.data_flits] == [0, 1]
        assert split.arrival_times == [10, 11]
        assert split.fully_scheduled()
        assert [f.index for f in flit.data_flits] == [2, 3]
        assert not any(flit.scheduled)

    def test_split_takes_headness(self):
        flit = make_wide_flit(4)
        flit.scheduled = [True, False, False, False]
        assert flit.is_head
        split = flit.split_scheduled()
        assert split.is_head
        assert not flit.is_head

    def test_is_last_stays_with_residual(self):
        packet = Packet(1, 0, 9, 4, 0)
        control, _ = packet_to_control_flits(packet, 4)
        flit = control[0]
        assert flit.is_last  # single wide flit leads the whole packet
        flit.scheduled = [True, False, True, False]
        split = flit.split_scheduled()
        assert not split.is_last
        assert flit.is_last

    def test_split_is_uncredited_by_default_semantics(self):
        flit = make_wide_flit(2)
        flit.scheduled = [True, False]
        split = flit.split_scheduled()
        # Creation leaves it credited; the router marks staging splits.
        assert split.credited

    def test_cannot_split_unscheduled_or_complete(self):
        flit = make_wide_flit(2)
        with pytest.raises(ValueError):
            flit.split_scheduled()
        flit.scheduled = [True, True]
        with pytest.raises(ValueError):
            flit.split_scheduled()


class TestWideControlUnderLoad:
    def test_heavy_load_no_deadlock_with_splitting(self, mesh4):
        """The configuration that deadlocks without splitting: small pools,
        d=4, sustained load near saturation."""
        config = FRConfig(
            data_buffers_per_input=5, control_vcs=2, data_flits_per_control=4
        )
        network = FRNetwork(config, mesh=mesh4, injection_rate=0.11, seed=7)
        simulator = Simulator(network)
        simulator.step(2_500)
        network.stop_injection()
        simulator.run_until(
            lambda: not network.packets_in_flight
            and all(ni.queue_length == 0 for ni in network.interfaces),
            deadline=40_000,
        )
        assert network.packets_delivered > 700
        splits = sum(router.splits_performed for router in network.routers)
        assert splits > 0, "the stress test should actually exercise splitting"

    def test_split_preserves_exact_delivery(self, mesh4):
        config = FRConfig(
            data_buffers_per_input=5, control_vcs=2, data_flits_per_control=4
        )
        network = FRNetwork(config, mesh=mesh4, injection_rate=0.10, seed=3)
        simulator = Simulator(network)
        simulator.step(2_000)
        network.stop_injection()
        simulator.run_until(
            lambda: not network.packets_in_flight
            and all(ni.queue_length == 0 for ni in network.interfaces),
            deadline=40_000,
        )
        created = sum(source.packets_created for source in network.sources)
        assert network.packets_delivered == created
