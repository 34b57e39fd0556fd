"""Section 5 ablation: virtual channels with a shared buffer pool.

The paper: "We simulated virtual-channel flow control with a shared buffer
pool among its virtual channels [TamFra92], but saw no improvement in
network throughput" -- i.e. the buffer pool is *not* what gives
flit-reservation flow control its edge; the advance scheduling is.
"""

from dataclasses import replace

from repro.baselines.vc.config import VC8
from repro.harness.saturation import measure_throughput

LOADS = [0.55, 0.63, 0.70]


def test_shared_pool_gives_no_throughput_gain(record, preset):
    def run():
        rows = []
        for load in LOADS:
            private = measure_throughput(VC8, load, seed=2, preset=preset)
            pooled = measure_throughput(
                replace(VC8, buffer_sharing="pool"), load, seed=2, preset=preset
            )
            rows.append((load, private, pooled))
        return rows

    rows = run()
    text = ["VC8 private per-VC queues vs shared pool (accepted/capacity)"]
    for load, private, pooled in rows:
        text.append(f"offered {load:.2f}: private {private:.3f}  pooled {pooled:.3f}")
    record("ablation_vc_shared_pool", "\n".join(text))

    # No meaningful improvement from pooling at or beyond VC8's saturation.
    for _, private, pooled in rows:
        assert pooled <= private + 0.05
