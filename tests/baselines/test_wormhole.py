"""Tests for the wormhole baseline."""

import pytest

from repro.baselines.vc.config import VCConfig
from repro.baselines.wormhole.network import WormholeConfig, WormholeNetwork
from repro.harness.saturation import measure_throughput
from repro.sim.kernel import Simulator


class TestConfig:
    def test_is_single_vc(self):
        config = WormholeConfig(buffers_per_input=8)
        vc_equiv = config.as_vc_config()
        assert vc_equiv.num_vcs == 1
        assert vc_equiv.buffers_per_vc == 8

    def test_name(self):
        assert WormholeConfig(buffers_per_input=8).name == "WH8"

    def test_link_delays_carried(self):
        config = WormholeConfig(data_link_delay=2, credit_link_delay=1)
        assert config.as_vc_config().data_link_delay == 2

    @pytest.mark.parametrize(
        "field,value",
        [
            ("buffers_per_input", 0),
            ("channel_release", "never"),
            ("data_link_delay", 0),
            ("credit_link_delay", 0),
        ],
    )
    def test_bad_value_fails_at_construction_naming_its_own_field(self, field, value):
        """Not later, inside build_network, with a message about a VC field."""
        with pytest.raises(ValueError, match=field):
            WormholeConfig(**{field: value})


class TestBehaviour:
    def test_delivers_packets(self, mesh4):
        network = WormholeNetwork(
            WormholeConfig(buffers_per_input=8), mesh=mesh4, injection_rate=0.03, seed=4
        )
        simulator = Simulator(network)
        simulator.step(1_200)
        network.stop_injection()
        simulator.run_until(
            lambda: not network.packets_in_flight, deadline=10_000
        )
        assert network.packets_delivered > 80
        assert network.flow_control_name == "WH8"

    def test_saturates_below_virtual_channels(self, mesh8):
        """Wormhole holds the physical channel per packet, so with equal
        buffers it must saturate below 2-VC flow control (the premise of
        the paper's related-work comparison)."""
        wormhole = WormholeConfig(buffers_per_input=8)
        vc = VCConfig(num_vcs=2, buffers_per_vc=4)
        load = 0.60
        wh_accepted = measure_throughput(wormhole, load, preset="quick", seed=2)
        vc_accepted = measure_throughput(vc, load, preset="quick", seed=2)
        assert wh_accepted < vc_accepted
