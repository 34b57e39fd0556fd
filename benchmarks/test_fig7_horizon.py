"""Figure 7: sensitivity of FR6 to the scheduling horizon (16..128 cycles).

Shape claim: throughput is relatively insensitive to the horizon -- a
16-cycle horizon is within ~10% of optimum, and there is little gain beyond
32 cycles.
"""

from repro.harness.figures import figure7

LOADS = [0.30, 0.60, 0.72, 0.80]


def test_figure7_horizon_insensitivity(record, preset):
    result = figure7(preset=preset, loads=LOADS, horizons=(16, 32, 64, 128))
    record("fig7_horizon", result.format())

    def deepest_stable(curve):
        stable = [p.offered_load for p in curve.points if not p.saturated]
        return max(stable) if stable else 0.0

    deepest = {curve.config_name: deepest_stable(curve) for curve in result.curves}
    h16 = deepest["FR6/s=16"]
    best = max(deepest.values())
    # A 16-cycle horizon stays within ~one load step of the optimum.
    assert best - h16 <= 0.13
    # Beyond 32 cycles there is no further gain in the stable region.
    assert deepest["FR6/s=128"] <= deepest["FR6/s=32"] + 0.09

    # Latency at a common mid load is also horizon-insensitive.
    mid = [curve.latency_at(0.60) for curve in result.curves]
    assert max(mid) - min(mid) < 0.25 * min(mid)
