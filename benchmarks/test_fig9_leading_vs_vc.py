"""Figure 9: FR with 1-cycle leading control vs VC on 1-cycle wires.

Shape claims (paper Section 4.4):

* no base-latency reduction -- the 1-cycle data lag equals VC's 1-cycle
  routing/arbitration latency (both ~15 cycles);
* under moderate-to-high load FR is faster (19 vs 21 cycles at 50%);
* the throughput improvement matches the fast-control case (FR6 beyond
  VC8's saturation).
"""

import pytest

from benchmarks.conftest import LOADS_5FLIT
from repro.harness.figures import figure9


def test_figure9_leading_vs_vc(record, preset):
    result = figure9(preset=preset, loads=LOADS_5FLIT)
    record("fig9_leading_vs_vc", result.format())

    fr6 = result.curve("FR6/lead=1")
    vc8, vc16 = result.curve("VC8"), result.curve("VC16")

    # Equal base latencies (the paper reads ~15 cycles at near-zero load;
    # the sweep's lowest point, 10% load, adds ~2 cycles of queueing --
    # the 0.05-load check lives in tests/integration/test_paper_calibration).
    assert 13 <= fr6.points[0].mean_latency <= 19.5
    assert 13 <= vc8.points[0].mean_latency <= 19.5
    assert fr6.points[0].mean_latency == pytest.approx(
        vc8.points[0].mean_latency, abs=2.5
    )

    # FR is faster under load.
    assert fr6.latency_at(0.45) < vc8.latency_at(0.45)

    # And sustains deeper loads than VC8.
    fr6_stable = max(p.offered_load for p in fr6.points if not p.saturated)
    vc8_stable = max(p.offered_load for p in vc8.points if not p.saturated)
    assert fr6_stable >= vc8_stable
