"""Tests for FR configuration presets and validation."""

import pytest

from repro.core.config import FR6, FR13, FRConfig


class TestPresets:
    def test_fr6_matches_table1(self):
        assert FR6.data_buffers_per_input == 6
        assert FR6.control_vcs == 2
        assert FR6.control_buffers_per_input == 6
        assert FR6.scheduling_horizon == 32
        assert FR6.data_flits_per_control == 1
        assert FR6.name == "FR6"

    def test_fr13_matches_table1(self):
        assert FR13.data_buffers_per_input == 13
        assert FR13.control_vcs == 4
        assert FR13.control_buffers_per_input == 12
        assert FR13.name == "FR13"

    def test_fast_control_wire_ratio(self):
        """Control/credit wires are 4x faster than data wires."""
        assert FR6.data_link_delay == 4 * FR6.control_link_delay
        assert FR6.credit_link_delay == 1

    def test_two_control_flits_per_cycle(self):
        assert FR6.control_flits_per_cycle == 2


class TestVariants:
    def test_leading_control(self):
        leading = FR6.with_leading_control(lead=4)
        assert leading.data_link_delay == 1
        assert leading.control_link_delay == 1
        assert leading.injection_lead == 4
        assert leading.data_buffers_per_input == FR6.data_buffers_per_input

    def test_with_horizon(self):
        assert FR6.with_horizon(128).scheduling_horizon == 128

    def test_frozen(self):
        with pytest.raises(Exception):
            FR6.data_buffers_per_input = 99  # type: ignore[misc]


class TestValidation:
    def test_horizon_must_cover_link(self):
        with pytest.raises(ValueError):
            FRConfig(scheduling_horizon=4, data_link_delay=4)

    def test_negative_lead(self):
        with pytest.raises(ValueError):
            FRConfig(injection_lead=-1)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            FRConfig(scheduling_policy="eager")

    def test_unknown_allocation(self):
        with pytest.raises(ValueError):
            FRConfig(buffer_allocation="random")

    def test_zero_buffers(self):
        with pytest.raises(ValueError):
            FRConfig(data_buffers_per_input=0)

    # Each names its own field instead of failing later inside Link().
    def test_zero_data_link_delay(self):
        with pytest.raises(ValueError, match="data_link_delay must be >= 1 cycle, got 0"):
            FRConfig(data_link_delay=0)

    def test_zero_control_link_delay(self):
        with pytest.raises(ValueError, match="control_link_delay must be >= 1 cycle, got 0"):
            FRConfig(control_link_delay=0)

    def test_zero_credit_link_delay(self):
        with pytest.raises(ValueError, match="credit_link_delay must be >= 1 cycle, got 0"):
            FRConfig(credit_link_delay=0)

    def test_zero_control_flits_per_cycle(self):
        with pytest.raises(ValueError, match="control_flits_per_cycle must be >= 1, got 0"):
            FRConfig(control_flits_per_cycle=0)
