"""Figure 6: latency vs offered traffic with 21-flit packets.

Shape claims (paper Section 4.2):

* base latency drops from ~55 (VC) to ~46 (FR) cycles, about 16%;
* FR13 beats even VC32 on throughput (75% vs 65% in the paper);
* FR6's edge is tempered: with a pool small relative to the packet
  length, blocked packets pin buffers and turnaround cannot help.
"""

from benchmarks.conftest import LOADS_21FLIT
from repro.harness.figures import figure6


def test_figure6_curves(record, preset):
    result = figure6(preset=preset, loads=LOADS_21FLIT)
    record("fig6_latency_21flit", result.format())

    vc32 = result.curve("VC32")
    fr6, fr13 = result.curve("FR6"), result.curve("FR13")

    # Base latency saving around the paper's 16%.
    saving = 1 - fr13.points[0].mean_latency / vc32.points[0].mean_latency
    assert 0.05 < saving < 0.30

    # FR13 sustains loads at least as deep into the sweep as VC32.
    fr13_stable = [p.offered_load for p in fr13.points if not p.saturated]
    vc32_stable = [p.offered_load for p in vc32.points if not p.saturated]
    assert max(fr13_stable) >= max(vc32_stable)

    # The small-pool effect: FR6 saturates earlier than FR13.
    fr6_stable = [p.offered_load for p in fr6.points if not p.saturated]
    assert max(fr6_stable) <= max(fr13_stable)
