"""Tests for the batch-means confidence intervals."""

import math

import pytest

from repro.sim.rng import DeterministicRng
from repro.stats.confidence import confidence_interval, mean_and_halfwidth


class TestMeanAndHalfwidth:
    def test_mean_exact(self):
        mean, _ = mean_and_halfwidth([1, 2, 3, 4, 5])
        assert mean == 3

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_and_halfwidth([])

    def test_tiny_sample_reports_infinite_width(self):
        _, halfwidth = mean_and_halfwidth([1, 2])
        assert math.isinf(halfwidth)

    def test_constant_sample_zero_width(self):
        mean, halfwidth = mean_and_halfwidth([7.0] * 100)
        assert mean == 7.0
        assert halfwidth == 0.0

    def test_width_shrinks_with_sample_size(self):
        rng = DeterministicRng(3)
        small = [rng.random() for _ in range(100)]
        rng = DeterministicRng(3)
        large = [rng.random() for _ in range(10_000)]
        _, width_small = mean_and_halfwidth(small)
        _, width_large = mean_and_halfwidth(large)
        assert width_large < width_small

    def test_coverage_on_iid_noise(self):
        """~95% of intervals on uniform noise should cover the true mean 0.5."""
        covered = 0
        trials = 200
        for seed in range(trials):
            rng = DeterministicRng(seed)
            samples = [rng.random() for _ in range(400)]
            low, high = confidence_interval(samples)
            if low <= 0.5 <= high:
                covered += 1
        assert covered / trials >= 0.85

    def test_99_wider_than_95(self):
        rng = DeterministicRng(1)
        samples = [rng.random() for _ in range(500)]
        _, width95 = mean_and_halfwidth(samples, level=0.95)
        _, width99 = mean_and_halfwidth(samples, level=0.99)
        assert width99 > width95

    @pytest.mark.parametrize("level, exact_t", [(0.95, 1.976), (0.99, 2.609)])
    def test_beyond_the_table_stays_conservative(self, level, exact_t):
        # 151 batches of 2: df = 150, past the last tabulated row (99).  The
        # critical value must not drop to z (1.960 / 2.576), which is below
        # the exact t at df = 150; the df = 99 row is the conservative bound.
        samples = [float(i % 7) for i in range(302)]
        batch_means = [(samples[2 * b] + samples[2 * b + 1]) / 2 for b in range(151)]
        grand = sum(batch_means) / 151
        variance = sum((m - grand) ** 2 for m in batch_means) / 150
        standard_error = math.sqrt(variance / 151)
        _, halfwidth = mean_and_halfwidth(samples, level=level, batches=151)
        assert halfwidth >= exact_t * standard_error
        row_99 = {0.95: 1.984, 0.99: 2.626}[level]
        assert halfwidth == pytest.approx(row_99 * standard_error)

    def test_unsupported_level(self):
        with pytest.raises(ValueError):
            mean_and_halfwidth([1.0] * 50, level=0.90)


class TestConfidenceInterval:
    def test_interval_is_centred(self):
        rng = DeterministicRng(2)
        samples = [rng.random() for _ in range(500)]
        mean, halfwidth = mean_and_halfwidth(samples)
        low, high = confidence_interval(samples)
        assert low == pytest.approx(mean - halfwidth)
        assert high == pytest.approx(mean + halfwidth)
