"""Runtime statistics collectors.

Each collector is a small accumulator the networks feed during simulation:

* :class:`LatencyStats` -- packet latency sample (mean, percentiles, CI),
* :class:`ThroughputCounter` -- flits ejected inside a measurement window,
* :class:`OccupancyTracker` -- how often a buffer pool is full (the paper's
  Section 4.2 observation that FR6 runs ~40% full near saturation while VC
  saturates below 5% full), and
* :class:`ControlLeadTracker` -- how far control flits arrive ahead of their
  data flits (Section 4.4's ~14-15 cycle lead).
"""

from __future__ import annotations

import math

from repro.stats.confidence import mean_and_halfwidth
from repro.stats.streaming import P2Quantile, RunningMoments

#: Quantiles a streaming ``LatencyStats`` tracks by default (as ``q`` of
#: ``percentile(q)``): the median, the paper-reported p95, and the tail.
DEFAULT_TRACKED_QUANTILES: tuple[float, ...] = (50.0, 95.0, 99.0)


class LatencyStats:
    """Accumulates per-packet latencies and summarises them.

    The default mode keeps every sample: percentiles, histograms, and the
    batch-means confidence interval are exact.  ``streaming=True`` swaps the
    sample list for O(1)-memory estimators (Welford moments plus one P²
    marker set per tracked quantile) for runs too long to hold in memory;
    in that mode ``percentile`` serves only the ``tracked_quantiles`` (plus
    0 and 100, which are exact), the confidence half-width falls back to
    the normal approximation (correlated samples may understate it -- use
    the exact mode for publishable intervals), and ``histogram`` /
    ``samples`` are unavailable.
    """

    def __init__(
        self,
        streaming: bool = False,
        tracked_quantiles: tuple[float, ...] = DEFAULT_TRACKED_QUANTILES,
    ) -> None:
        self.streaming = streaming
        self._samples: list[int] = []
        self._moments: RunningMoments | None = None
        self._estimators: dict[float, P2Quantile] = {}
        self._minimum = 0
        self._maximum = 0
        if streaming:
            for q in tracked_quantiles:
                if not 0.0 < q < 100.0:
                    raise ValueError(
                        f"tracked quantiles must be in (0, 100), got {q}"
                    )
            self._moments = RunningMoments()
            self._estimators = {q: P2Quantile(q / 100.0) for q in tracked_quantiles}

    def record(self, latency: int) -> None:
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        if self._moments is None:
            self._samples.append(latency)
            return
        if self._moments.count == 0:
            self._minimum = latency
            self._maximum = latency
        else:
            self._minimum = min(self._minimum, latency)
            self._maximum = max(self._maximum, latency)
        self._moments.observe(latency)
        for estimator in self._estimators.values():
            estimator.observe(latency)

    @property
    def count(self) -> int:
        if self._moments is not None:
            return self._moments.count
        return len(self._samples)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("no latency samples recorded")
        if self._moments is not None:
            return self._moments.mean
        return sum(self._samples) / len(self._samples)

    @property
    def maximum(self) -> int:
        if self.count == 0:
            raise ValueError("no latency samples recorded")
        if self._moments is not None:
            return self._maximum
        return max(self._samples)

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, ``q`` in [0, 100].

        Exact in the default mode.  In streaming mode only the tracked
        quantiles are served (P² estimates; 0 and 100 are exact).
        """
        if self.count == 0:
            raise ValueError("no latency samples recorded")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self._moments is not None:
            if q == 0.0:
                return float(self._minimum)
            if q == 100.0:
                return float(self._maximum)
            estimator = self._estimators.get(q)
            if estimator is None:
                tracked = ", ".join(f"{t:g}" for t in sorted(self._estimators))
                raise ValueError(
                    f"streaming mode tracks only quantiles [{tracked}] "
                    f"(plus 0 and 100); {q:g} was not configured"
                )
            return estimator.value
        ordered = sorted(self._samples)
        position = (len(ordered) - 1) * q / 100.0
        low = math.floor(position)
        high = math.ceil(position)
        if low == high:
            return float(ordered[low])
        fraction = position - low
        return ordered[low] * (1 - fraction) + ordered[high] * fraction

    def confidence_halfwidth(self, level: float = 0.95) -> float:
        """Half-width of the CI of the mean (batch means, so correlated
        samples from one run do not understate the error).

        Streaming mode cannot batch, so it falls back to the i.i.d. normal
        approximation ``z * s / sqrt(n)`` -- an *approximation* that
        understates the error of correlated within-run samples.
        """
        if self._moments is not None:
            if self._moments.count < 2:
                raise ValueError("need at least 2 samples for a confidence interval")
            from statistics import NormalDist

            z = NormalDist().inv_cdf((1.0 + level) / 2.0)
            return z * self._moments.stddev / math.sqrt(self._moments.count)
        _, halfwidth = mean_and_halfwidth(self._samples, level=level)
        return halfwidth

    @property
    def stddev(self) -> float:
        """Sample standard deviation of the latencies."""
        if self._moments is not None:
            return self._moments.stddev
        n = len(self._samples)
        if n < 2:
            raise ValueError("need at least 2 samples for a standard deviation")
        mean = self.mean
        return math.sqrt(sum((x - mean) ** 2 for x in self._samples) / (n - 1))

    def histogram(self, bin_width: int = 5) -> list[tuple[int, int]]:
        """(bin_start, count) pairs covering the sample, fixed-width bins.

        Empty bins inside the range are included so the shape (e.g. the
        heavy saturation tail) reads correctly when printed.
        """
        if self._moments is not None:
            raise ValueError("streaming mode keeps no samples; no histogram")
        if not self._samples:
            raise ValueError("no latency samples recorded")
        if bin_width < 1:
            raise ValueError(f"bin width must be >= 1, got {bin_width}")
        low = min(self._samples) // bin_width * bin_width
        high = max(self._samples) // bin_width * bin_width
        counts = {start: 0 for start in range(low, high + 1, bin_width)}
        for sample in self._samples:
            counts[sample // bin_width * bin_width] += 1
        return sorted(counts.items())

    def format_histogram(self, bin_width: int = 5, bar_width: int = 40) -> str:
        """A printable text histogram of the latency distribution."""
        rows = self.histogram(bin_width)
        peak = max(count for _, count in rows)
        lines: list[str] = []
        for start, count in rows:
            bar = "#" * round(bar_width * count / peak) if peak else ""
            lines.append(f"{start:>6}-{start + bin_width - 1:<6}{count:>8}  {bar}")
        return "\n".join(lines)

    def samples(self) -> list[int]:
        """A copy of the raw sample list (default mode only)."""
        if self._moments is not None:
            raise ValueError("streaming mode keeps no samples")
        return list(self._samples)


class ThroughputCounter:
    """Counts flits ejected per node inside a measurement window.

    The window is half-open, ``[start, end)``.  Setting a window resets the
    counts, so ``start`` must lie strictly after every cycle already
    recorded: a window opened *at* a cycle that has partially ejected would
    re-count that boundary cycle's remaining ejections while having
    discarded its earlier ones -- a partial cycle silently presented as a
    full one.  The harness always opens the window on the cycle after the
    last warm-up ejection, so this guard only fires on misuse.
    """

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.window: tuple[int, int] | None = None
        self.flits_ejected = 0
        self.packets_ejected = 0
        self._last_cycle_seen = -1

    def set_window(self, start: int, end: int) -> None:
        if end <= start:
            raise ValueError(f"empty measurement window [{start}, {end})")
        if start <= self._last_cycle_seen:
            raise ValueError(
                f"measurement window [{start}, {end}) opens at or before cycle "
                f"{self._last_cycle_seen}, which already recorded ejections; "
                "the boundary cycle would be double-counted"
            )
        self.window = (start, end)
        self.flits_ejected = 0
        self.packets_ejected = 0

    def record_flit(self, cycle: int) -> None:
        if cycle > self._last_cycle_seen:
            self._last_cycle_seen = cycle
        if self.window is not None and self.window[0] <= cycle < self.window[1]:
            self.flits_ejected += 1

    def record_packet(self, cycle: int) -> None:
        if cycle > self._last_cycle_seen:
            self._last_cycle_seen = cycle
        if self.window is not None and self.window[0] <= cycle < self.window[1]:
            self.packets_ejected += 1

    @property
    def flits_per_node_per_cycle(self) -> float:
        if self.window is None:
            raise ValueError("measurement window never set")
        cycles = self.window[1] - self.window[0]
        return self.flits_ejected / (cycles * self.num_nodes)


class OccupancyTracker:
    """Tracks fullness of a buffer pool over time.

    ``record(occupied)`` is called once per cycle with the number of occupied
    buffers; the tracker reports the fraction of cycles the pool was full and
    the mean occupancy.  Callers that know the cycle pass it so a tracker
    attached mid-run cannot record the attach-boundary cycle twice (once by
    the attaching code, once by the network's own end-of-cycle sample).
    """

    __slots__ = ("pool_size", "cycles", "full_cycles", "occupied_sum", "_last_cycle")

    def __init__(self, pool_size: int) -> None:
        if pool_size < 1:
            raise ValueError(f"pool size must be >= 1, got {pool_size}")
        self.pool_size = pool_size
        self.cycles = 0
        self.full_cycles = 0
        self.occupied_sum = 0
        self._last_cycle = -1

    def record(self, occupied: int, cycle: int | None = None) -> None:
        if not 0 <= occupied <= self.pool_size:
            raise ValueError(
                f"occupancy {occupied} outside pool of {self.pool_size} buffers"
            )
        if cycle is not None:
            if cycle == self._last_cycle:
                return  # boundary cycle already sampled (mid-run attach)
            if cycle < self._last_cycle:
                raise ValueError(
                    f"occupancy sample for cycle {cycle} after cycle "
                    f"{self._last_cycle} was already recorded"
                )
            self._last_cycle = cycle
        self.cycles += 1
        self.occupied_sum += occupied
        if occupied == self.pool_size:
            self.full_cycles += 1

    @property
    def fraction_full(self) -> float:
        if self.cycles == 0:
            raise ValueError("no occupancy samples recorded")
        return self.full_cycles / self.cycles

    @property
    def mean_occupancy(self) -> float:
        if self.cycles == 0:
            raise ValueError("no occupancy samples recorded")
        return self.occupied_sum / self.cycles


class ControlLeadTracker:
    """Measures how far control flits arrive ahead of their data flits.

    At the destination, the flit-reservation network reports the arrival
    cycle of each packet's control head flit and of its first data flit; the
    difference is the control lead the paper tracks in Section 4.4.
    """

    def __init__(self) -> None:
        self._control_arrival: dict[int, int] = {}
        self._data_arrival: dict[int, int] = {}
        self._done: set[int] = set()
        self._leads: list[int] = []

    def record_control_arrival(self, packet_id: int, cycle: int) -> None:
        if packet_id in self._done or packet_id in self._control_arrival:
            return
        data_cycle = self._data_arrival.pop(packet_id, None)
        if data_cycle is not None:
            # Data beat its control flit (possible under heavy control load);
            # the lead is negative.
            self._leads.append(data_cycle - cycle)
            self._done.add(packet_id)
            return
        self._control_arrival[packet_id] = cycle

    def record_first_data_arrival(self, packet_id: int, cycle: int) -> None:
        if packet_id in self._done or packet_id in self._data_arrival:
            return
        control_cycle = self._control_arrival.pop(packet_id, None)
        if control_cycle is not None:
            self._leads.append(cycle - control_cycle)
            self._done.add(packet_id)
            return
        self._data_arrival[packet_id] = cycle

    @property
    def count(self) -> int:
        return len(self._leads)

    @property
    def mean_lead(self) -> float:
        if not self._leads:
            raise ValueError("no control-lead samples recorded")
        return sum(self._leads) / len(self._leads)
