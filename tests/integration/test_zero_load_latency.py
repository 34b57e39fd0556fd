"""Zero-load latency, pinned exactly.

One 5-flit packet crosses the otherwise empty mesh with every source
disabled, so nothing contends with it and its latency is a closed form in the
hop count h.  Seven pairs of the 8x8 mesh pin the forms out to h = 14, and
every ordered pair of a 4x4 mesh pins them for every direction and turn.
The forms are what the models give today:

* VC8 is 5h+7.  DESIGN.md section 3 gives 5h+5; its 4 buffers per VC hold
  less than a 5-flit packet, so the credit loop adds 2 cycles.
* WH8 is 5h+5.
* VC8 on 1-cycle wires is 2h+5.
* FR6 is 4h+7, but 10 at h = 1: from h = 2 on, its 3 control buffers per
  control VC make the fourth control flit wait a cycle for a credit.
* FR6 with a 1-cycle lead is 2h+7, but 8 at h = 1, for the same reason.

ROADMAP items 4(b) and 18 hold the derivation these numbers still lack.
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro.baselines.vc.config import VC8
from repro.baselines.wormhole.network import WormholeConfig
from repro.core.config import FR6
from repro.harness.experiment import AnyConfig, build_network
from repro.sim.kernel import Simulator
from repro.topology.mesh import Mesh2D
from repro.traffic.packet import Packet

MESH = Mesh2D(8, 8)
SMALL_MESH = Mesh2D(4, 4)

#: (source, destination) as (x, y): h = 1, 2, 4, 5, 8, 11 and 14 hops, along
#: X, along Y, both ways round and corner to corner.
PAIRS = [
    ((0, 0), (1, 0)),
    ((3, 3), (3, 5)),
    ((7, 0), (4, 1)),
    ((1, 6), (6, 6)),
    ((0, 7), (4, 3)),
    ((2, 0), (7, 6)),
    ((0, 0), (7, 7)),
]

#: Model -> (its configuration, zero-load latency of a 5-flit packet at h hops).
MODELS: dict[str, tuple[AnyConfig, Callable[[int], int]]] = {
    "VC8": (VC8, lambda h: 5 * h + 7),
    "WH8": (WormholeConfig(), lambda h: 5 * h + 5),
    "VC8-unit-wires": (VC8.with_unit_links(), lambda h: 2 * h + 5),
    "FR6": (FR6, lambda h: 10 if h == 1 else 4 * h + 7),
    "FR6-lead1": (FR6.with_leading_control(1), lambda h: 8 if h == 1 else 2 * h + 7),
}


def _zero_load_latency(
    config: AnyConfig, source: int, destination: int, mesh: Mesh2D = MESH
) -> int:
    network = build_network(config, 0.1, mesh=mesh)
    network.stop_injection()
    packet = Packet(1, source=source, destination=destination, length=5, creation_cycle=0)
    network.packets_in_flight[1] = packet
    network.interfaces[source].enqueue(packet)
    Simulator(network).run_until(lambda: packet.delivered, deadline=500)
    assert packet.flits_delivered == 5
    assert network.packets_delivered == 1  # nothing else was on the mesh
    return packet.latency


def _hops(pair) -> int:
    source, destination = pair
    return MESH.hop_distance(MESH.node_at(*source), MESH.node_at(*destination))


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("pair", PAIRS, ids=lambda pair: f"h{_hops(pair)}")
def test_zero_load_latency_is_exact(model: str, pair) -> None:
    config, closed_form = MODELS[model]
    source, destination = (MESH.node_at(*xy) for xy in pair)
    assert _zero_load_latency(config, source, destination) == closed_form(_hops(pair))


@pytest.mark.parametrize("model", sorted(MODELS))
def test_zero_load_latency_on_every_pair_of_a_4x4_mesh(model: str) -> None:
    config, closed_form = MODELS[model]
    mismatches = []
    for source in SMALL_MESH.nodes():
        for destination in SMALL_MESH.nodes():
            if source == destination:
                continue
            latency = _zero_load_latency(config, source, destination, SMALL_MESH)
            expected = closed_form(SMALL_MESH.hop_distance(source, destination))
            if latency != expected:
                mismatches.append(
                    f"{SMALL_MESH.coordinates(source)} -> "
                    f"{SMALL_MESH.coordinates(destination)}: {latency}, not {expected}"
                )
    assert not mismatches, f"{model}: " + "; ".join(mismatches)
