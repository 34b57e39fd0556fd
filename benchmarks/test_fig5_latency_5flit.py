"""Figure 5: latency vs offered traffic, 5-flit packets, fast control.

Shape claims reproduced (paper Section 4.1):

* FR has lower base latency than VC (27 vs 32 cycles, -15.6%);
* VC8 saturates around 63% of capacity, FR6 extends it to ~77%;
* FR6 with 6 buffers beats VC8 with 8 and approaches VC16 with 16.
"""

import math

from benchmarks.conftest import LOADS_5FLIT
from repro.harness.figures import figure5


def test_figure5_curves(record, preset):
    result = figure5(preset=preset, loads=LOADS_5FLIT)
    record("fig5_latency_5flit", result.format())

    vc8, vc16 = result.curve("VC8"), result.curve("VC16")
    fr6, fr13 = result.curve("FR6"), result.curve("FR13")

    # Base latency: FR below VC by roughly the paper's 15%.
    assert fr6.points[0].mean_latency < vc8.points[0].mean_latency
    saving = 1 - fr6.points[0].mean_latency / vc8.points[0].mean_latency
    assert 0.05 < saving < 0.30

    # VC8 cannot deliver 72% of capacity; FR6 can.
    def accepted_at(curve, load):
        candidates = [p for p in curve.points if abs(p.offered_load - load) < 0.01]
        return candidates[0].accepted_load if candidates else math.nan

    fr6_72 = accepted_at(fr6, 0.72)
    vc8_72 = accepted_at(vc8, 0.72)
    if not math.isnan(vc8_72):
        assert vc8_72 < 0.70
    if not math.isnan(fr6_72):
        assert fr6_72 > 0.69

    # At every common stable load, FR6 latency beats VC8's.
    for fr_point, vc_point in zip(fr6.points, vc8.points):
        if fr_point.saturated or vc_point.saturated:
            break
        assert fr_point.mean_latency < vc_point.mean_latency

    # FR13 extends throughput beyond FR6 (paper: 85% vs 77%).
    assert len(fr13.points) >= len(fr6.points)
