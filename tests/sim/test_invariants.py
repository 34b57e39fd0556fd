"""Tests for the cycle-level invariant checker.

Clean networks must sail through with the checker attached; deliberately
corrupted state -- negative buffer credits, double-booked output slots,
cleared busy bits, an unbalanced credit ledger, a vanished flit, a lost
control credit -- must be caught within one cycle of the corruption.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.vc.config import VC8
from repro.baselines.wormhole.network import WormholeConfig
from repro.core.config import FR6
from repro.harness.experiment import build_network, run_experiment
from repro.sim.invariants import InvariantChecker, InvariantViolation
from repro.sim.kernel import Simulator
from repro.topology.mesh import INJECT

WARM_CYCLES = 120


def warmed_fr(seed=1, load=0.4, cycles=WARM_CYCLES):
    """An FR6 network stepped past warm-up with the checker attached."""
    network = build_network(FR6, load, packet_length=5, seed=seed)
    simulator = Simulator(network, checker=InvariantChecker())
    simulator.step(cycles)
    return network, simulator


VC8_POOL = replace(VC8, buffer_sharing="pool")


def warmed_vc(seed=1, load=0.4, cycles=WARM_CYCLES, config=VC8):
    network = build_network(config, load, packet_length=5, seed=seed)
    simulator = Simulator(network, checker=InvariantChecker())
    simulator.step(cycles)
    return network, simulator


def fr_claim_sites(network, after_cycle):
    """(router, scheduler_port, departure, out_port) for scheduled movements
    departing safely after ``after_cycle`` (so one more simulated cycle will
    not consume them before the checker looks)."""
    sites = []
    for router in network.routers:
        for port, scheduler in enumerate(router.input_sched):
            for departure, entries in scheduler.departures.items():
                for _, out_port in entries:
                    if departure > after_cycle:
                        sites.append((router, port, departure, out_port))
            for departure, out_port in scheduler.expected.values():
                if departure > after_cycle:
                    sites.append((router, port, departure, out_port))
    return sites


def connected_table(network):
    """A (router, port, table) with finite buffers on a live output."""
    for router in network.routers:
        for port in router.connected_outputs:
            table = router.out_tables[port]
            if table is not None and not table.infinite_buffers:
                return router, port, table
    raise AssertionError("no connected finite-buffer table in the network")


class TestCleanRuns:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_fr_run_is_clean(self, seed):
        _, simulator = warmed_fr(seed=seed)
        assert simulator.checker.checks_run == WARM_CYCLES

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_vc_run_is_clean(self, seed):
        _, simulator = warmed_vc(seed=seed)
        assert simulator.checker.checks_run == WARM_CYCLES

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shared_pool_run_is_clean(self, seed):
        # Pooled VCs borrow shared slots, so per-VC counters run negative by
        # design (-3 is reached in these runs); the checker must allow it.
        network, simulator = warmed_vc(seed=seed, cycles=300, config=VC8_POOL)
        assert simulator.checker.checks_run == 300
        assert min(min(c) for r in network.routers for c in r.out_credits) < 0

    def test_wormhole_run_is_clean(self):
        network = build_network(WormholeConfig(buffers_per_input=8), 0.3, seed=3)
        simulator = Simulator(network, checker=InvariantChecker())
        simulator.step(200)
        assert simulator.checker.checks_run == 200

    def test_fr_heavy_load_is_clean(self):
        # The Figure 5 operating point the acceptance criteria call out.
        _, simulator = warmed_fr(seed=7, load=0.4, cycles=400)
        assert simulator.checker.checks_run == 400

    def test_run_experiment_sanitized(self):
        result = run_experiment(
            FR6, 0.4, packet_length=5, seed=1, preset="quick", check_invariants=True
        )
        assert result.accepted_load > 0.3

    def test_run_experiment_sanitized_shared_pool(self):
        checked = run_experiment(VC8_POOL, 0.4, preset="quick", check_invariants=True)
        assert checked == run_experiment(VC8_POOL, 0.4, preset="quick")


class TestCorruptedReservationTable:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_negative_credit_caught_within_one_cycle(self, seed):
        network, simulator = warmed_fr(seed=seed)
        _, _, table = connected_table(network)
        table.advance(simulator.cycle)
        slot = (simulator.cycle + 2) % table.horizon
        # A phantom charge: drives the free count at that cycle negative.
        table._dfree[slot] -= table.downstream_buffers + 5
        with pytest.raises(InvariantViolation):
            simulator.step()

    def test_optimistic_credit_caught_within_one_cycle(self):
        network, simulator = warmed_fr(seed=11)
        _, _, table = connected_table(network)
        table.advance(simulator.cycle)
        slot = simulator.cycle % table.horizon
        table._dfree[slot] += 3  # phantom free buffers from this cycle on
        with pytest.raises(InvariantViolation) as excinfo:
            simulator.step()
        # The checker raised before the clock advanced: caught in-cycle.
        assert excinfo.value.cycle == simulator.cycle

    def test_ledger_imbalance_caught_within_one_cycle(self):
        network, simulator = warmed_fr(seed=5)
        _, _, table = connected_table(network)
        table.reservations_made += 1  # a reservation that never charged a slot
        with pytest.raises(InvariantViolation) as excinfo:
            simulator.step()
        assert "ledger" in str(excinfo.value)

    def test_busy_bit_cleared_caught_within_one_cycle(self):
        network, simulator = warmed_fr(seed=2, load=0.5)
        sites = fr_claim_sites(network, after_cycle=simulator.cycle + 2)
        assert sites, "expected scheduled movements at 50% load"
        router, _, departure, out_port = sites[0]
        table = router.out_tables[out_port]
        table.advance(simulator.cycle)
        table._busy[departure % table.horizon] = 0  # drop the reservation
        with pytest.raises(InvariantViolation) as excinfo:
            simulator.step()
        assert excinfo.value.node == router.node


class TestDoubleBooking:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_double_booked_slot_caught_within_one_cycle(self, seed):
        network, simulator = warmed_fr(seed=seed, load=0.5)
        sites = fr_claim_sites(network, after_cycle=simulator.cycle + 2)
        assert sites, "expected scheduled movements at 50% load"
        router, port, departure, out_port = sites[0]
        # A second movement claiming the same (output, cycle) slot, filed by
        # a sibling input scheduler of the same router.
        sibling = (port + 1) % len(router.input_sched)
        router.input_sched[sibling].departures.setdefault(departure, []).append(
            (0, out_port)
        )
        with pytest.raises(InvariantViolation) as excinfo:
            simulator.step()
        assert excinfo.value.node == router.node
        assert "double-booked" in str(excinfo.value) or "not busy" in str(excinfo.value)


class TestFlitConservation:
    def test_lost_buffered_flit_caught_within_one_cycle(self):
        network, simulator = warmed_fr(seed=4, load=0.5)
        target = None
        for router in network.routers:
            for scheduler in router.input_sched:
                for departure, entries in scheduler.departures.items():
                    if departure > simulator.cycle + 2 and entries:
                        target = (scheduler, entries[0][0])
                        break
        assert target is not None, "expected a buffered flit awaiting departure"
        scheduler, buffer_index = target
        pool = scheduler.pool
        pool._contents[buffer_index] = None  # the flit silently vanishes
        pool._free.append(buffer_index)  # occupancy is derived, so it stays consistent
        with pytest.raises(InvariantViolation) as excinfo:
            simulator.step()
        assert "conservation" in str(excinfo.value)

    def test_phantom_packet_caught(self):
        network, simulator = warmed_fr(seed=9)
        assert network.packets_in_flight, "expected traffic in flight"
        packet_id = next(iter(network.packets_in_flight))
        del network.packets_in_flight[packet_id]  # accounting loses a packet
        with pytest.raises(InvariantViolation) as excinfo:
            simulator.step()
        assert "conservation" in str(excinfo.value)


class TestControlPlaneConservation:
    def test_evaporated_control_credit_caught_within_one_cycle(self):
        network, simulator = warmed_fr(seed=3, load=0.5)
        router = next(r for r in network.routers if r.connected_outputs)
        port = router.connected_outputs[0]
        router.ctrl_credits[port][1] -= 1  # a control credit evaporates
        with pytest.raises(InvariantViolation, match="control credit loop") as excinfo:
            simulator.step()
        assert (excinfo.value.node, excinfo.value.port) == (router.node, port)
        assert excinfo.value.cycle == simulator.cycle

    def test_phantom_ni_control_credit_caught(self):
        network, simulator = warmed_fr(seed=7)
        network.interfaces[6]._ctrl_credits[0] += 1  # a credit the router never returned
        with pytest.raises(InvariantViolation, match="NI credits") as excinfo:
            simulator.step()
        assert (excinfo.value.node, excinfo.value.port) == (6, INJECT)

    def test_credited_occupancy_mirror_drift_caught(self):
        network, simulator = warmed_fr(seed=8)
        router, port, vc = next(
            (router, port, vc)
            for router in network.routers
            for port, queues in enumerate(router.ctrl_queues)
            for vc, queue in enumerate(queues)
            if not queue and router._ctrl_credited[port][vc] == 0
        )
        router._ctrl_credited[port][vc] += 1  # a buffer counted as held, empty
        with pytest.raises(InvariantViolation, match="mirror drifted") as excinfo:
            simulator.step()
        assert excinfo.value.node == router.node

    def test_queue_count_drift_caught(self):
        network, simulator = warmed_fr(seed=9)
        router = network.routers[10]
        router._ctrl_count[INJECT] += 1
        router._ctrl_total += 1
        with pytest.raises(InvariantViolation, match="control queue count") as excinfo:
            simulator.step()
        assert (excinfo.value.node, excinfo.value.port) == (10, INJECT)


class TestVCInvariants:
    def test_credit_counter_corruption_caught(self):
        network, simulator = warmed_vc(seed=1)
        router = next(r for r in network.routers if r.connected_outputs)
        port = router.connected_outputs[0]
        router.out_credits[port][0] -= 1  # a credit evaporates
        with pytest.raises(InvariantViolation) as excinfo:
            simulator.step()
        assert excinfo.value.node == router.node

    @pytest.mark.parametrize("drift", [1, -1])
    def test_shared_credit_corruption_caught(self, drift):
        network, simulator = warmed_vc(seed=1, config=VC8_POOL)
        router = next(r for r in network.routers if r.connected_outputs)
        port = router.connected_outputs[0]
        router.out_shared_credits[port] += drift  # a shared slot appears / evaporates
        with pytest.raises(InvariantViolation, match="shared credit pool") as excinfo:
            simulator.step()
        assert (excinfo.value.node, excinfo.value.port) == (router.node, port)

    def test_shared_pool_credit_counter_corruption_caught(self):
        network, simulator = warmed_vc(seed=1, config=VC8_POOL)
        router = next(r for r in network.routers if r.connected_outputs)
        router.out_credits[router.connected_outputs[0]][0] -= 1  # a credit evaporates
        with pytest.raises(InvariantViolation):
            simulator.step()

    def test_pool_counter_drift_caught(self):
        network, simulator = warmed_vc(seed=2)
        router = network.routers[0]
        router.pool_occupancy[0] += 1
        with pytest.raises(InvariantViolation) as excinfo:
            simulator.step()
        assert "occupancy" in str(excinfo.value)


class TestCheckerPlumbing:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            InvariantChecker(every=0)

    def test_interval_thins_sweeps(self):
        network = build_network(FR6, 0.2, seed=1)
        checker = InvariantChecker(every=4)
        Simulator(network, checker=checker).step(40)
        assert checker.checks_run == 10

    def test_violation_carries_location(self):
        error = InvariantViolation("boom", node=3, port=1, cycle=42)
        assert (error.node, error.port, error.cycle) == (3, 1, 42)
        assert "boom" in str(error)

    def test_simulator_without_checker_never_checks(self):
        network = build_network(FR6, 0.2, seed=1)
        simulator = Simulator(network)
        simulator.step(10)
        assert simulator.checker is None
