"""Active-set worklists are a pure performance device: equivalence proofs.

The step loops skip components whose wake flags are down.  That is only
sound if skipping a drained component is indistinguishable from stepping
it -- no state changes, no randomness drawn.  These tests enforce the
contract end to end: a run with the worklists engaged must produce a
bit-identical digest to a *dense* run in which every component is forced
active every cycle (``rearm_activity``), across all three flow-control
models, multiple seeds, and with the invariant checker attached.

A unit test pins the deregister/re-register life cycle itself on the
network's phase rows: a drained router's flags fall to zero and new work
raises them again.

The VC/wormhole routers skip inside a stepped router as well: a link is
polled only when an item is due, and the routing scan runs only while an
idle VC holds a head.  ``TestBaselineSkips`` counts both.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import FR6, VC8, VC16, WormholeConfig
from repro.analysis.permute import digest_network
from repro.core.interface import FRNodeInterface
from repro.core.router import FRRouter
from repro.harness.experiment import build_network
from repro.sim.invariants import InvariantChecker
from repro.sim.kernel import Simulator
from repro.sim.link import Link
from repro.traffic.packet import Packet

CYCLES = 250
LOAD = 0.4

CONFIGS = {
    "FR6": FR6,
    "VC8": VC8,
    "VC16": VC16,
    "VC8-pool": replace(VC8, buffer_sharing="pool"),
    "VC8-when_empty": replace(VC8, vc_reallocation="when_empty"),
    "WH8": WormholeConfig(buffers_per_input=8),
}


def _digest(config, seed: int, dense: bool, check_invariants: bool):
    network = build_network(config, LOAD, seed=seed)
    checker = InvariantChecker() if check_invariants else None
    simulator = Simulator(network, checker=checker)
    if dense:
        # Force a full sweep every cycle: every component steps whether or
        # not it has work, exactly the pre-worklist execution model.
        for _ in range(CYCLES):
            network.rearm_activity()
            simulator.step(1)
    else:
        simulator.step(CYCLES)
    return digest_network(network, CYCLES, "dense" if dense else "active")


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_active_and_dense_runs_are_digest_identical(name, seed):
    active = _digest(CONFIGS[name], seed, dense=False, check_invariants=False)
    dense = _digest(CONFIGS[name], seed, dense=True, check_invariants=False)
    assert active.hexdigest() == dense.hexdigest(), (
        f"{name} seed {seed}: worklist skipping changed the simulation; "
        f"fields differing: {active.diff_fields(dense)}"
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_equivalence_holds_under_the_invariant_checker(name):
    active = _digest(CONFIGS[name], 1, dense=False, check_invariants=True)
    dense = _digest(CONFIGS[name], 1, dense=True, check_invariants=True)
    assert active.hexdigest() == dense.hexdigest()


class TestBaselineSkips:
    """The VC/wormhole router's in-router skips, counted rather than timed."""

    @pytest.mark.parametrize("name", ["VC8", "WH8"])
    def test_no_link_is_polled_empty_handed_and_none_loses_an_item(self, name, monkeypatch):
        calls = [0]
        empty_handed = [0]
        received: dict[Link, int] = {}
        receive = Link.receive

        def counting(link: Link, cycle: int) -> list:
            arrivals = receive(link, cycle)
            calls[0] += 1
            if not arrivals:
                empty_handed[0] += 1
            received[link] = received.get(link, 0) + len(arrivals)
            return arrivals

        monkeypatch.setattr(Link, "receive", counting)
        network = build_network(CONFIGS[name], LOAD, seed=1)
        Simulator(network).step(300)

        assert calls[0] > 0
        assert empty_handed[0] == 0
        links = [
            link
            for router in network.routers
            for port in router.connected_outputs
            for link in (router.out_data_links[port], router.in_credit_links[port])
        ]
        assert sum(link.total_sent for link in links) > 0
        for link in links:
            assert link.total_sent == received.get(link, 0) + link.pending

    @pytest.mark.parametrize("name", ["VC8", "VC8-pool", "WH8"])
    def test_unrouted_count_is_the_number_of_idle_vcs_holding_flits(self, name):
        """route_and_allocate trusts it to skip the port x VC scan."""
        network = build_network(CONFIGS[name], LOAD, seed=1)
        simulator = Simulator(network)
        seen = 0
        for _ in range(300):
            simulator.step(1)
            for router in network.routers:
                scanned = sum(
                    1
                    for queues, active in zip(router.in_queues, router.in_active)
                    for queue, is_active in zip(queues, active)
                    if queue and not is_active
                )
                assert router._unrouted == scanned
                seen += scanned
        assert seen > 0  # heads did wait for a VC, so the count was exercised


class TestDrainDeregister:
    """A drained router leaves the worklist and new work re-registers it."""

    @staticmethod
    def _flags(network, run) -> bytearray:
        """The wake flags of the network's phase row that steps ``run``."""
        (flags,) = [row.flags for row in network.phases if row.run is run]
        return flags

    def _quiet_network(self):
        network = build_network(FR6, 0.3, seed=1)
        network.stop_injection()  # no random traffic: we drive packets by hand
        return network

    def _inject(self, network, packet_id: int, cycle: int) -> int:
        """Hand one packet to node 0's interface the way ``step`` would."""
        source, destination = 0, 3
        packet = Packet(packet_id, source, destination, length=5,
                        creation_cycle=cycle)
        network.packets_in_flight[packet.packet_id] = packet
        network.interfaces[source].enqueue(packet)
        self._flags(network, FRNodeInterface.control_phase)[source] = 1
        return source

    def test_flags_fall_when_drained_and_rise_on_new_work(self):
        network = self._quiet_network()
        simulator = Simulator(network)

        source = self._inject(network, packet_id=1, cycle=0)
        simulator.step(200)
        assert network.packets_delivered == 1

        # Fully drained: every wake flag in every phase row is down.
        assert len(network.phases) == 5
        for flags, _, _ in network.phases:
            assert not any(flags)

        # New work re-registers: the NI flag is raised at enqueue, and the
        # injected control flit wakes the router's control phase.
        self._inject(network, packet_id=2, cycle=simulator.cycle)
        assert self._flags(network, FRNodeInterface.control_phase)[source] == 1
        simulator.step(2)
        assert self._flags(network, FRRouter.control_phase)[source] == 1
        simulator.step(200)
        assert network.packets_delivered == 2
        for flags, _, _ in network.phases:
            assert not any(flags)
