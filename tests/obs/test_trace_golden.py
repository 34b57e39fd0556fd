"""The FR trace format is pinned byte-for-byte across the bus refactor.

``tests/obs/fixtures/fr_format_packet.golden.txt`` was generated with the
pre-bus ``repro.sim.tracelog.TraceLog`` (hooks wired by hand into the FR
routers).  The bus-backed replacement must reproduce it exactly.  Regenerate
with ``FRFC_REGEN_GOLDEN=1 pytest tests/obs/test_trace_golden.py`` after an
*intentional* format change, and say so in the commit message.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.baselines.vc.config import VCConfig
from repro.baselines.vc.network import VCNetwork
from repro.baselines.wormhole.network import WormholeConfig, WormholeNetwork
from repro.core.config import FRConfig
from repro.core.network import FRNetwork
from repro.obs.trace import TraceLog
from repro.sim.kernel import Simulator
from repro.topology.mesh import Mesh2D

GOLDEN = Path(__file__).parent / "fixtures" / "fr_format_packet.golden.txt"

# The recipe behind the fixture (mirrored in its `#` header line).
PACKET_ID = 1
SEED = 1
RATE = 0.03
CYCLES = 300
HEADER = (
    f"# packet_id={PACKET_ID} seed={SEED} rate={RATE} mesh=4x4 "
    f"cycles={CYCLES} config=FR(data_buffers_per_input=6)"
)


def _traced_fr_output() -> str:
    network = FRNetwork(
        FRConfig(data_buffers_per_input=6),
        mesh=Mesh2D(4, 4),
        injection_rate=RATE,
        seed=SEED,
    )
    log = TraceLog()
    log.attach(network)
    Simulator(network).step(CYCLES)
    log.detach()
    return log.format_packet(PACKET_ID)


def test_fr_format_packet_matches_golden() -> None:
    rendered = HEADER + "\n" + _traced_fr_output() + "\n"
    if os.environ.get("FRFC_REGEN_GOLDEN"):
        GOLDEN.write_text(rendered, encoding="utf-8")
        pytest.skip("golden fixture regenerated")
    assert GOLDEN.read_text(encoding="utf-8") == rendered


def test_fr_kinds_unchanged() -> None:
    """The FR stream still contains exactly the three historical kinds."""
    network = FRNetwork(
        FRConfig(data_buffers_per_input=6),
        mesh=Mesh2D(4, 4),
        injection_rate=RATE,
        seed=SEED,
    )
    log = TraceLog()
    log.attach(network)
    Simulator(network).step(CYCLES)
    log.detach()
    kinds = {event.kind for event in log.events}
    assert kinds == {"control_arrival", "data_arrival", "data_eject"}
    assert all(event.cycle >= 0 for event in log.events)


@pytest.mark.parametrize(
    "make_network",
    [
        pytest.param(
            lambda mesh: VCNetwork(
                VCConfig(num_vcs=2, buffers_per_vc=4),
                mesh=mesh,
                injection_rate=0.05,
                seed=2,
            ),
            id="vc",
        ),
        pytest.param(
            lambda mesh: WormholeNetwork(
                WormholeConfig(buffers_per_input=8),
                mesh=mesh,
                injection_rate=0.05,
                seed=2,
            ),
            id="wormhole",
        ),
    ],
)
def test_trace_now_covers_vc_and_wormhole(make_network) -> None:
    """The point of the port: non-FR packets get timelines too."""
    network = make_network(Mesh2D(4, 4))
    log = TraceLog()
    log.attach(network)
    Simulator(network).step(400)
    log.detach()
    assert len(log.events) > 0
    kinds = {event.kind for event in log.events}
    assert "data_arrival" in kinds
    assert "flit_forward" in kinds
    traced_packet = log.events[0].packet_id
    timeline = log.packet_events(traced_packet)
    assert timeline
    assert [e.cycle for e in timeline] == sorted(e.cycle for e in timeline)
    assert "flit #" in log.format_packet(traced_packet)
