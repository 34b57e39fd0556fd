"""Related-work ablation: wormhole flow control (Dally & Seitz 1986).

Wormhole holds each physical channel for the whole duration of a packet, so
with the same 8 buffers per input it saturates well below 2-VC virtual-
channel flow control, which in turn sits below flit-reservation -- the
historical progression the paper's Section 2 narrates.
"""

from repro.baselines.vc.config import VC8
from repro.baselines.wormhole.network import WormholeConfig
from repro.core.config import FR6
from repro.harness.saturation import measure_throughput

LOAD = 0.70


def test_wormhole_vc_fr_progression(record, preset):
    def run():
        wormhole = measure_throughput(
            WormholeConfig(buffers_per_input=8), LOAD, seed=2, preset=preset
        )
        vc = measure_throughput(VC8, LOAD, seed=2, preset=preset)
        fr = measure_throughput(FR6, LOAD, seed=2, preset=preset)
        return wormhole, vc, fr

    wormhole, vc, fr = run()
    record(
        "ablation_wormhole",
        f"accepted throughput at {LOAD:.2f} offered (fraction of capacity)\n"
        f"wormhole (WH8): {wormhole:.3f}\n"
        f"virtual-channel (VC8): {vc:.3f}\n"
        f"flit-reservation (FR6): {fr:.3f}\n",
    )
    assert wormhole < vc
    assert fr >= vc - 0.01
    assert fr > wormhole + 0.02
