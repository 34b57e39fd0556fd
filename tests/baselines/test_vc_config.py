"""Tests for VC configuration presets."""

import pytest

from repro.baselines.vc.config import VC8, VC16, VC32, VCConfig


class TestPresets:
    def test_table1_configurations(self):
        assert (VC8.num_vcs, VC8.buffers_per_input) == (2, 8)
        assert (VC16.num_vcs, VC16.buffers_per_input) == (4, 16)
        assert (VC32.num_vcs, VC32.buffers_per_input) == (8, 32)
        assert VC8.buffers_per_vc == VC16.buffers_per_vc == VC32.buffers_per_vc == 4

    def test_names(self):
        assert VC8.name == "VC8"
        assert VC32.name == "VC32"

    def test_fast_control_regime_wire_delays(self):
        assert VC8.data_link_delay == 4
        assert VC8.credit_link_delay == 1

    def test_unit_links_variant(self):
        unit = VC16.with_unit_links()
        assert unit.data_link_delay == 1
        assert unit.credit_link_delay == 1
        assert unit.buffers_per_input == 16


class TestValidation:
    def test_rejects_zero_vcs(self):
        with pytest.raises(ValueError):
            VCConfig(num_vcs=0)

    def test_rejects_zero_buffers(self):
        with pytest.raises(ValueError):
            VCConfig(buffers_per_vc=0)

    def test_rejects_unknown_sharing(self):
        with pytest.raises(ValueError):
            VCConfig(buffer_sharing="magic")

    def test_rejects_unknown_reallocation(self):
        with pytest.raises(ValueError):
            VCConfig(vc_reallocation="never")

    @pytest.mark.parametrize("field", ["data_link_delay", "credit_link_delay"])
    def test_rejects_zero_link_delay_naming_the_field(self, field):
        """Not later, inside build_network, as a bare 'link delay must be >= 1'."""
        with pytest.raises(ValueError, match=field):
            VCConfig(**{field: 0})
