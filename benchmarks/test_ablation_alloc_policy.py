"""Section 5 / Figure 10 ablation: buffer allocation at scheduling time
versus just before arrival.

Allocating at reservation time, without knowledge of future reservations,
forces flits to be transferred between buffers mid-residency; deferring the
choice to arrival eliminates transfers entirely (the at-arrival policy has
no transfer mechanism at all -- it never needs one).  The benchmark counts
the transfers the at-reservation policy would perform under load.
"""

from repro.core.config import FRConfig
from repro.core.network import FRNetwork
from repro.sim.kernel import Simulator

CONFIG = FRConfig(
    data_buffers_per_input=6, control_vcs=2, buffer_allocation="at_reservation"
)
LOAD_RATE = 0.070  # ~71% of 8x8 capacity with 5-flit packets
CYCLES = 4_000


def test_at_reservation_policy_needs_transfers(record):
    def run():
        network = FRNetwork(CONFIG, injection_rate=LOAD_RATE, seed=2)
        simulator = Simulator(network)
        network.set_measure_window(500, CYCLES)
        simulator.step(CYCLES)
        moved = sum(
            scheduler.flits_buffered
            for router in network.routers
            for scheduler in router.input_sched
        )
        return network.buffer_transfer_count(), moved

    transfers, buffered_flits = run()
    rate = transfers / buffered_flits * 1000 if buffered_flits else 0.0
    record(
        "ablation_alloc_policy",
        "allocate-at-reservation policy under ~71% load (8x8, 5-flit pkts)\n"
        f"buffered flit residencies: {buffered_flits}\n"
        f"forced buffer transfers:   {transfers} ({rate:.1f} per 1000 residencies)\n"
        "allocate-at-arrival (the paper's policy): 0 by construction\n",
    )
    # Under contention the at-reservation policy really does need transfers.
    assert transfers > 0
