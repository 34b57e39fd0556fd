"""Section 5 ablation: one narrow control flit per data flit (d=1) versus a
wide control flit leading several data flits (d=4).

The trade the paper describes: with d=1 data flits never arrive before
their control flit and no schedule list is needed, but every control flit
pays a VCID; with d=4 the VCID is amortised (lower bandwidth overhead,
40% control-network load for 5-flit packets) at the cost of schedule-list
machinery and coarser scheduling.
"""

from repro.core.config import FR6, FRConfig
from repro.harness.saturation import measure_throughput
from repro.overhead.bandwidth import fr_bandwidth

WIDE = FRConfig(data_buffers_per_input=6, control_vcs=2, data_flits_per_control=4)
LOAD = 0.65


def test_wide_control_flits(record, preset):
    def run():
        narrow = measure_throughput(FR6, LOAD, seed=2, preset=preset)
        wide = measure_throughput(WIDE, LOAD, seed=2, preset=preset)
        return narrow, wide

    narrow, wide = run()
    narrow_bw = fr_bandwidth(FR6, 5).bits_per_data_flit
    wide_bw = fr_bandwidth(WIDE, 5).bits_per_data_flit
    record(
        "ablation_wide_control",
        f"offered load {LOAD:.2f} of capacity, 5-flit packets\n"
        f"d=1 accepted {narrow:.3f}, bandwidth overhead {narrow_bw:.2f} bits/flit\n"
        f"d=4 accepted {wide:.3f}, bandwidth overhead {wide_bw:.2f} bits/flit\n",
    )
    # The bandwidth win is analytical and certain.
    assert wide_bw < narrow_bw
    # Throughput stays in the same ballpark -- wide flits are viable.
    assert wide >= narrow - 0.12
