"""Table 3: the experimental summary -- base latency, latency at 50% of
capacity, and saturation throughput for every configuration.

The benchmark regenerates the 5-flit rows of both regimes (the 21-flit
fast-control rows are covered by the Figure 6 benchmark) and checks the
ordering relations the paper's summary shows:

=================  =====  =====  =====  =====  =====
(paper, 5-flit)     FR6   FR13    VC8   VC16   VC32
base latency         27     27     32     32     32
latency @ 50%        33     33     39     38     38
throughput          77%    85%    63%    80%    85%
=================  =====  =====  =====  =====  =====
"""

import pytest

from repro.harness.tables import table3


def test_table3_summary(record, preset):
    result = table3(preset=preset, packet_lengths=(5,), include_leading=True)
    record("table3_summary", result.format())

    fr6 = result.find("fast", "FR6", 5)
    fr13 = result.find("fast", "FR13", 5)
    vc8 = result.find("fast", "VC8", 5)
    vc16 = result.find("fast", "VC16", 5)
    vc32 = result.find("fast", "VC32", 5)

    # Base latencies: FR ~27, VC ~32, FR wins.
    assert fr6.base_latency == pytest.approx(27, abs=3)
    assert vc8.base_latency == pytest.approx(32, abs=4)
    assert fr6.base_latency < vc8.base_latency
    assert fr13.base_latency == pytest.approx(fr6.base_latency, abs=2)

    # Latency at 50% capacity: FR ~33, VC ~39.
    assert fr6.latency_at_50pct == pytest.approx(33, abs=4)
    assert vc8.latency_at_50pct == pytest.approx(39, abs=5)

    # Saturation ordering: VC8 < FR6 <= VC16 <= FR13 ~ VC32.
    assert vc8.saturation == pytest.approx(0.63, abs=0.06)
    assert fr6.saturation == pytest.approx(0.77, abs=0.06)
    assert fr13.saturation == pytest.approx(0.85, abs=0.06)
    assert vc8.saturation < fr6.saturation
    assert fr6.saturation <= vc16.saturation + 0.04
    assert fr13.saturation >= vc16.saturation

    # Leading-control rows: equal base latency, FR ahead at 50%.
    lead_fr6 = result.find("leading", "FR6", 5)
    lead_vc8 = result.find("leading", "VC8", 5)
    assert lead_fr6.base_latency == pytest.approx(15, abs=3)
    assert lead_fr6.base_latency == pytest.approx(lead_vc8.base_latency, abs=2.5)
    assert lead_fr6.latency_at_50pct < lead_vc8.latency_at_50pct
    assert lead_fr6.saturation > lead_vc8.saturation
