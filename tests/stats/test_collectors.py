"""Tests for the statistics collectors."""

import pytest

from repro.stats.collectors import (
    ControlLeadTracker,
    LatencyStats,
    OccupancyTracker,
    ThroughputCounter,
)


class TestLatencyStats:
    def test_mean(self):
        stats = LatencyStats()
        for value in (10, 20, 30):
            stats.record(value)
        assert stats.mean == 20
        assert stats.count == 3
        assert stats.maximum == 30

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyStats().record(-1)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            _ = LatencyStats().mean

    def test_percentiles(self):
        stats = LatencyStats()
        for value in range(1, 101):
            stats.record(value)
        assert stats.percentile(0) == 1
        assert stats.percentile(100) == 100
        assert stats.percentile(50) == pytest.approx(50.5)

    def test_percentile_bounds(self):
        stats = LatencyStats()
        stats.record(5)
        with pytest.raises(ValueError):
            stats.percentile(101)

    def test_samples_copy(self):
        stats = LatencyStats()
        stats.record(1)
        samples = stats.samples()
        samples.append(99)
        assert stats.count == 1

    def test_is_exact_and_keeps_samples(self):
        stats = LatencyStats()
        for sample in [5, 3, 9, 3, 7]:
            stats.record(sample)
        assert stats.samples() == [5, 3, 9, 3, 7]
        assert stats.count == 5
        assert stats.mean == pytest.approx(5.4)
        assert stats.maximum == 9
        assert stats.percentile(50) == 5.0
        assert stats.percentile(0) == 3.0
        assert stats.percentile(100) == 9.0

    def test_serves_arbitrary_percentiles(self):
        stats = LatencyStats()
        for sample in range(101):
            stats.record(sample)
        assert stats.percentile(37.5) == pytest.approx(37.5)


class TestThroughputCounter:
    def test_counts_only_inside_window(self):
        counter = ThroughputCounter(num_nodes=4)
        counter.set_window(10, 20)
        counter.record_flit(5)
        counter.record_flit(10)
        counter.record_flit(19)
        counter.record_flit(20)
        assert counter.flits_ejected == 2

    def test_normalised_rate(self):
        counter = ThroughputCounter(num_nodes=4)
        counter.set_window(0, 10)
        for cycle in range(10):
            counter.record_flit(cycle)
            counter.record_flit(cycle)
        assert counter.flits_per_node_per_cycle == pytest.approx(0.5)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            ThroughputCounter(1).set_window(5, 5)

    def test_rate_without_window_raises(self):
        with pytest.raises(ValueError):
            _ = ThroughputCounter(1).flits_per_node_per_cycle


class TestOccupancyTracker:
    def test_fraction_full(self):
        tracker = OccupancyTracker(pool_size=4)
        for occupied in (4, 4, 2, 0):
            tracker.record(occupied)
        assert tracker.fraction_full == pytest.approx(0.5)
        assert tracker.mean_occupancy == pytest.approx(2.5)

    def test_range_check(self):
        tracker = OccupancyTracker(pool_size=4)
        with pytest.raises(ValueError):
            tracker.record(5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            _ = OccupancyTracker(1).fraction_full


class TestControlLeadTracker:
    def test_control_first(self):
        tracker = ControlLeadTracker()
        tracker.record_control_arrival(1, 100)
        tracker.record_first_data_arrival(1, 114)
        assert tracker.count == 1
        assert tracker.mean_lead == 14

    def test_data_first_gives_negative_lead(self):
        tracker = ControlLeadTracker()
        tracker.record_first_data_arrival(2, 50)
        tracker.record_control_arrival(2, 53)
        assert tracker.mean_lead == -3

    def test_only_first_data_arrival_counts(self):
        tracker = ControlLeadTracker()
        tracker.record_control_arrival(1, 10)
        tracker.record_first_data_arrival(1, 20)
        tracker.record_first_data_arrival(1, 99)
        assert tracker.mean_lead == 10

    def test_duplicate_control_ignored(self):
        tracker = ControlLeadTracker()
        tracker.record_control_arrival(1, 10)
        tracker.record_control_arrival(1, 5)
        tracker.record_first_data_arrival(1, 12)
        assert tracker.mean_lead == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            _ = ControlLeadTracker().mean_lead
