"""The VC/wormhole kernel is pinned against digests the OLD kernel made.

``tests/baselines/fixtures/kernel.golden.json`` was recorded with the commit
before the baseline hot path was rebuilt (guarded link receives, hoisted
config scalars, prebuilt scan tuples, stored flit flags, empty-input skips),
so byte-identity is proven against that kernel rather than by the new one
against itself.  It holds ``digest_network(...).hexdigest()`` after 400
cycles at load 0.4 on the 8x8 mesh for every branch the hoisted scalars
live on, seeds 1-3, plus the SHA-256 of the observed VC8 event JSONL (the
``_forward_observed`` / ``_accept_flit_observed`` twins).

Regenerate with ``FRFC_REGEN_GOLDEN=1 pytest tests/baselines/test_kernel_golden.py``
only after an *intentional* change to simulated behaviour, and say so in the
commit message.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path
from typing import Any

import pytest

from repro import VC8, VC16, WormholeConfig
from repro.analysis.permute import digest_network
from repro.harness.experiment import build_network
from repro.obs.events import EventBus, EventCollector
from repro.obs.exporters import write_events_jsonl
from repro.obs.probe import NetworkProbe
from repro.sim.kernel import Simulator

GOLDEN = Path(__file__).parent / "fixtures" / "kernel.golden.json"
CYCLES = 400
LOAD = 0.4
SEEDS = (1, 2, 3)
CONFIGS: dict[str, Any] = {
    "VC8": VC8,
    "VC16": VC16,
    "VC8-pool": replace(VC8, buffer_sharing="pool"),
    "VC8-when_empty": replace(VC8, vc_reallocation="when_empty"),
    "VC8-unit_links": VC8.with_unit_links(),
    "WH8-when_tail_sent": WormholeConfig(buffers_per_input=8),
    "WH8-when_empty": WormholeConfig(buffers_per_input=8, channel_release="when_empty"),
}
CASES = [(name, seed) for name in CONFIGS for seed in SEEDS]
OBSERVED = "VC8-observed"


def _digest(name: str, seed: int) -> str:
    network = build_network(CONFIGS[name], LOAD, seed=seed)
    network.set_measure_window(0, CYCLES)
    Simulator(network).step(CYCLES)
    return digest_network(network, CYCLES, name).hexdigest()


def _observed_jsonl_sha256(seed: int, tmp_path: Path) -> str:
    network = build_network(VC8, LOAD, seed=seed)
    bus = EventBus()
    collector = EventCollector()
    bus.subscribe_all(collector)
    probe = NetworkProbe(bus).attach(network)
    network.set_measure_window(0, CYCLES)
    Simulator(network).step(CYCLES)
    probe.detach()
    assert collector.dropped == 0
    out = tmp_path / "events.jsonl"
    write_events_jsonl(collector, out)
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_regenerate_golden(tmp_path) -> None:
    if not os.environ.get("FRFC_REGEN_GOLDEN"):
        pytest.skip("set FRFC_REGEN_GOLDEN=1 to rewrite kernel.golden.json")
    golden = {f"{name}/{seed}": _digest(name, seed) for name, seed in CASES}
    for seed in SEEDS:
        golden[f"{OBSERVED}/{seed}"] = _observed_jsonl_sha256(seed, tmp_path)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name,seed", CASES)
def test_kernel_reproduces_the_parent_digest(name: str, seed: int) -> None:
    assert _digest(name, seed) == _golden()[f"{name}/{seed}"]


@pytest.mark.parametrize("seed", SEEDS)
def test_observed_twins_reproduce_the_parent_event_stream(seed: int, tmp_path) -> None:
    assert _observed_jsonl_sha256(seed, tmp_path) == _golden()[f"{OBSERVED}/{seed}"]
