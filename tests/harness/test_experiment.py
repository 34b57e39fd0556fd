"""Tests for the experiment driver."""

import pytest

from repro.baselines.vc.config import VCConfig
from repro.baselines.vc.network import VCNetwork
from repro.baselines.wormhole.network import WormholeConfig, WormholeNetwork
from repro.core.config import FRConfig
from repro.core.network import FRNetwork
from repro.harness.experiment import build_network, run_experiment
from repro.topology.mesh import Mesh2D


@pytest.fixture
def mesh4():
    return Mesh2D(4, 4)


class TestBuildNetwork:
    def test_dispatch_by_config_type(self, mesh4):
        assert isinstance(build_network(FRConfig(), 0.3, mesh=mesh4), FRNetwork)
        assert isinstance(build_network(VCConfig(), 0.3, mesh=mesh4), VCNetwork)
        assert isinstance(
            build_network(WormholeConfig(), 0.3, mesh=mesh4), WormholeNetwork
        )

    def test_load_to_rate_conversion(self, mesh4):
        network = build_network(VCConfig(), 0.5, packet_length=5, mesh=mesh4)
        expected = 0.5 * mesh4.capacity_flits_per_node() / 5
        assert network.injection_rate == pytest.approx(expected)

    def test_rejects_nonpositive_load(self, mesh4):
        with pytest.raises(ValueError):
            build_network(VCConfig(), 0.0, mesh=mesh4)

    def test_rejects_impossible_rate(self, mesh4):
        with pytest.raises(ValueError, match="more than one packet per cycle"):
            build_network(VCConfig(), 1.2, packet_length=1, mesh=mesh4)

    def test_rejects_unknown_config(self, mesh4):
        with pytest.raises(TypeError):
            build_network(object(), 0.5, mesh=mesh4)


class TestRunExperiment:
    def test_light_load_point(self, mesh4):
        result = run_experiment(
            VCConfig(), 0.2, seed=3, preset="quick", mesh=mesh4
        )
        assert not result.saturated
        assert result.packets_measured > 100
        assert result.accepted_load == pytest.approx(0.2, abs=0.04)
        assert 10 < result.mean_latency < 60
        assert result.p95_latency >= result.mean_latency

    def test_fr_point_has_extras(self, mesh4):
        result = run_experiment(
            FRConfig(), 0.2, seed=3, preset="quick", mesh=mesh4
        )
        assert "bypass_fraction" in result.extras
        assert "mean_data_flit_latency" in result.extras

    def test_oversaturated_point_flagged(self, mesh4):
        """Far beyond saturation the tagged sample cannot drain within the
        quick preset's deadline; the result must say so, not raise."""
        config = VCConfig(num_vcs=1, buffers_per_vc=2)
        result = run_experiment(config, 0.99, seed=3, preset="quick", mesh=mesh4)
        assert result.saturated
        assert result.accepted_load < 0.97

    def test_summary_format(self, mesh4):
        result = run_experiment(VCConfig(), 0.2, seed=3, preset="quick", mesh=mesh4)
        text = result.summary()
        assert "VC8" in text
        assert "load=0.20" in text

    def test_determinism(self, mesh4):
        a = run_experiment(FRConfig(), 0.3, seed=7, preset="quick", mesh=mesh4)
        b = run_experiment(FRConfig(), 0.3, seed=7, preset="quick", mesh=mesh4)
        assert a.mean_latency == b.mean_latency
        assert a.packets_measured == b.packets_measured
