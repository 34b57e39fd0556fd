"""Section 5 ablation: per-flit versus all-or-nothing scheduling.

With wide control flits (one control flit leading d=4 data flits),
per-flit scheduling lets each successfully scheduled data flit move on and
free its buffer, while all-or-nothing holds every led flit until the whole
group fits downstream.  The paper argues per-flit therefore performs
better; under load the difference shows up as latency (all-or-nothing
stalls whole groups waiting for d simultaneous downstream buffers).

The per-flit policy runs with this repository's control-flit-splitting
deadlock-avoidance extension (see FRRouter._process_flit), without which
partially scheduled wide control flits deadlock behind their own advanced
data flits -- the open cross-dependency the paper's Section 5 flags.
"""

from dataclasses import replace

from repro.core.config import FRConfig
from repro.harness.experiment import run_experiment

WIDE = FRConfig(
    data_buffers_per_input=6,
    control_vcs=2,
    data_flits_per_control=4,
    control_flits_per_cycle=2,
)
LOAD = 0.72


def test_per_flit_beats_all_or_nothing(record, preset):
    def run():
        per_flit = run_experiment(WIDE, LOAD, seed=2, preset=preset)
        all_or_nothing = run_experiment(
            replace(WIDE, scheduling_policy="all_or_nothing"),
            LOAD,
            seed=2,
            preset=preset,
        )
        return per_flit, all_or_nothing

    per_flit, all_or_nothing = run()
    record(
        "ablation_all_or_nothing",
        f"offered load {LOAD:.2f} of capacity, d=4, 6-buffer pools\n"
        f"per-flit:       latency {per_flit.mean_latency:.1f}, "
        f"accepted {per_flit.accepted_load:.3f}\n"
        f"all-or-nothing: latency {all_or_nothing.mean_latency:.1f}, "
        f"accepted {all_or_nothing.accepted_load:.3f}\n",
    )
    assert not per_flit.saturated
    # Both deliver the offered load here; per-flit does it with visibly
    # lower latency because groups trickle through scarce buffers.
    assert per_flit.mean_latency < all_or_nothing.mean_latency
    assert per_flit.accepted_load >= all_or_nothing.accepted_load - 0.02
