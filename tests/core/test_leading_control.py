"""Behavioural tests of the leading-control regime (Section 4.4)."""

import pytest

from repro.core.config import FRConfig
from repro.core.network import FRNetwork
from repro.sim.kernel import Simulator
from repro.topology.mesh import Mesh2D


def run(config, mesh, cycles=1_200, rate=0.02, seed=4):
    network = FRNetwork(config, mesh=mesh, injection_rate=rate, seed=seed)
    network.set_measure_window(0, cycles)  # per-flit stats need tagged packets
    simulator = Simulator(network)
    simulator.step(cycles)
    network.stop_injection()
    simulator.run_until(
        lambda: not network.packets_in_flight
        and all(ni.queue_length == 0 for ni in network.interfaces),
        deadline=cycles + 20_000,
    )
    return network


def spy_injections(monkeypatch):
    """Record creation-to-injection ages of every data flit entering the mesh.

    ``FRRouter`` carries ``__slots__``, so the spy wraps ``inject_data`` at
    the class rather than replacing it per instance.
    """
    from repro.core.router import FRRouter

    observed = []
    original = FRRouter.inject_data

    def spy(self, flit, now):
        observed.append(now - flit.packet.creation_cycle)
        original(self, flit, now)

    monkeypatch.setattr(FRRouter, "inject_data", spy)
    return observed


class TestInjectionLead:
    @pytest.mark.parametrize("lead", [1, 4, 10])
    def test_data_deferred_at_least_lead_cycles(self, mesh4, lead, monkeypatch):
        """Every data flit enters the network at least `lead` cycles after
        its packet was created (the control flit went first)."""
        config = FRConfig(data_buffers_per_input=6).with_leading_control(lead)
        network = FRNetwork(config, mesh=mesh4, injection_rate=0.02, seed=4)
        observed = spy_injections(monkeypatch)
        simulator = Simulator(network)
        simulator.step(800)
        assert observed, "no data flits injected"
        assert min(observed) >= lead

    def test_zero_lead_fast_control_still_defers_one_cycle(self, mesh4, monkeypatch):
        """Even with lead 0 the injection slot is at least one cycle out
        (scheduling takes the cycle)."""
        config = FRConfig(data_buffers_per_input=6)  # fast control, lead 0
        network = FRNetwork(config, mesh=mesh4, injection_rate=0.02, seed=4)
        observed = spy_injections(monkeypatch)
        Simulator(network).step(800)
        assert observed and min(observed) >= 1


class TestLeadLatencyShape:
    def test_large_lead_cuts_data_flit_latency(self, mesh4):
        """Per-flit data latency shrinks toward pure wire time as the
        control lead grows (the paper's 15 -> 6 cycle observation)."""
        small = run(FRConfig(data_buffers_per_input=6).with_leading_control(1), mesh4)
        large = run(FRConfig(data_buffers_per_input=6).with_leading_control(10), mesh4)
        assert large.data_flit_latency.mean < small.data_flit_latency.mean

    def test_bypass_rises_with_lead(self, mesh4):
        small = run(FRConfig(data_buffers_per_input=6).with_leading_control(1), mesh4)
        large = run(FRConfig(data_buffers_per_input=6).with_leading_control(10), mesh4)
        assert large.bypass_fraction() > small.bypass_fraction()

    def test_control_lead_tracker_reports_positive_lead(self, mesh4):
        config = FRConfig(data_buffers_per_input=6).with_leading_control(4)
        network = FRNetwork(
            config, mesh=mesh4, injection_rate=0.05, seed=4, track_control_lead=True
        )
        simulator = Simulator(network)
        simulator.step(2_000)
        assert network.control_lead.count > 100
        assert network.control_lead.mean_lead > 0
