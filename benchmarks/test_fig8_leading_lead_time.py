"""Figure 8: leading control with 1-, 2- and 4-cycle leads, 1-cycle wires.

Shape claims (paper Section 4.4):

* saturation throughput is independent of the lead time -- the lead is
  manufactured by data-network congestion, not by the injection offset;
* deferring data up to 4 cycles barely moves overall latency.
"""

from repro.harness.figures import figure8

LOADS = [0.30, 0.55, 0.70, 0.78]


def test_figure8_lead_time_independence(record, preset):
    result = figure8(preset=preset, loads=LOADS, leads=(1, 2, 4))
    record("fig8_leading_lead_time", result.format())

    def deepest_stable(curve):
        stable = [p.offered_load for p in curve.points if not p.saturated]
        return max(stable) if stable else 0.0

    deepest = [deepest_stable(curve) for curve in result.curves]
    # Throughput independent of lead time (within one load step).
    assert max(deepest) - min(deepest) <= 0.09

    # Latency at a mid load differs by at most a few cycles across leads.
    mid_latencies = [curve.latency_at(0.55) for curve in result.curves]
    assert max(mid_latencies) - min(mid_latencies) < 5.0
