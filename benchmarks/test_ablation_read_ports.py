"""Footnote 7 ablation: single- versus multi-ported input buffers.

The baseline input reservation table has one "Buffer Out" row -- one buffer
read per input per cycle.  A multi-ported buffer (two rows) lets one input
feed two outputs in the same cycle, removing a scheduling constraint.  The
paper predicts a higher-performance router; the effect is real but small,
since simultaneous same-input departures are rare under uniform traffic.
"""

from dataclasses import replace

from repro.core.config import FR6
from repro.harness.experiment import run_experiment

LOAD = 0.72


def test_multiported_input_buffers(record, preset):
    def run():
        single = run_experiment(FR6, LOAD, seed=2, preset=preset)
        multi = run_experiment(
            replace(FR6, input_read_ports=2), LOAD, seed=2, preset=preset
        )
        return single, multi

    single, multi = run()
    record(
        "ablation_read_ports",
        f"offered load {LOAD:.2f} of capacity, 5-flit packets (FR6)\n"
        f"1 read port:  latency {single.mean_latency:.1f}, "
        f"accepted {single.accepted_load:.3f}\n"
        f"2 read ports: latency {multi.mean_latency:.1f}, "
        f"accepted {multi.accepted_load:.3f}\n",
    )
    # Multi-porting can only help (never hurt) latency and throughput.
    assert multi.mean_latency <= single.mean_latency + 1.5
    assert multi.accepted_load >= single.accepted_load - 0.02
