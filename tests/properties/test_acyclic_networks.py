"""Every shipped network is freed by reference counting alone.

A network's object graph must be acyclic: components never reference their
owner, and dispatch slots hold plain class functions, not bound methods
(see "Ownership rule" in :mod:`repro.sim.netbase`).  Then the last
reference going away frees the whole network at once; with a cycle anywhere
in it, the network (and everything it reaches) waits for a generation-2
collection, and a process that runs points back to back holds several dead
networks at once.

The gate: collect once, disable the collector, build and step a network
(or run an observed point) and drop every reference.  A collection under
``gc.DEBUG_SAVEALL`` then lists every object that only a cycle kept alive;
no ``repro`` object may be among them.
"""

from __future__ import annotations

import ast
import gc
import inspect
import io
import sys
import textwrap
from collections import Counter
from collections.abc import Callable
from dataclasses import replace

import pytest

from repro import FR6, FR13, VC8, WormholeConfig
from repro.core.router import FRRouter
from repro.harness.experiment import build_network, run_experiment
from repro.harness.presets import MeasurementPreset
from repro.obs.progress import ProgressReporter
from repro.obs.session import ObsSession
from repro.sim.kernel import Simulator
from repro.topology.mesh import Mesh2D

CYCLES = 240

#: name -> (config, offered load, extra build_network keywords).
POINTS = {
    "FR6": (FR6, 0.5, {}),
    "FR13": (FR13, 0.5, {}),
    "FR6-leading": (FR6.with_leading_control(2), 0.5, {}),
    "FR6-all-or-nothing": (replace(FR6, scheduling_policy="all_or_nothing"), 0.5, {}),
    "FR6-at-reservation": (replace(FR6, buffer_allocation="at_reservation"), 0.5, {}),
    "FR6-control-lead": (FR6, 0.5, {"track_control_lead": True}),
    "FR6-occupancy": (FR6, 0.5, {"track_occupancy_node": 5}),
    "VC8": (VC8, 0.5, {}),
    "VC8-pool": (replace(VC8, buffer_sharing="pool"), 0.5, {}),
    "VC8-when-empty": (replace(VC8, vc_reallocation="when_empty"), 0.5, {}),
    "WH8": (WormholeConfig(buffers_per_input=8), 0.3, {}),
}

#: Long enough for every phase of the observed point to run.
OBSERVED_PRESET = MeasurementPreset("acyclic", 100, 50, 100, 200, 4_000, 100)


def cyclic_garbage(run: Callable[[], object]) -> Counter[str]:
    """``repro`` objects that only reference cycles keep alive after ``run``.

    Keyed by ``module.qualname`` of their type.  The collector is disabled
    while ``run`` executes, so nothing it leaves behind is collected before
    it is counted.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        saved = len(gc.garbage)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
        finally:
            gc.set_debug(0)
        found = gc.garbage[saved:]
        del gc.garbage[saved:]
    finally:
        if was_enabled:
            gc.enable()
    return Counter(
        f"{type(obj).__module__}.{type(obj).__qualname__}"
        for obj in found
        if type(obj).__module__.startswith("repro.")
    )


def _stepped(name: str) -> Callable[[], None]:
    config, load, kwargs = POINTS[name]

    def run() -> None:
        network = build_network(config, load, mesh=Mesh2D(4, 4), seed=1, **kwargs)
        Simulator(network).step(CYCLES)

    return run


@pytest.mark.parametrize("name", sorted(POINTS))
def test_stepped_network_leaves_no_cycles(name):
    leftovers = cyclic_garbage(_stepped(name))
    assert not leftovers, f"{name}: kept alive only by cycles: {dict(leftovers)}"


def test_observed_and_finalized_point_leaves_no_cycles(tmp_path):
    def run() -> None:
        session = ObsSession(
            events_out=str(tmp_path / "events.jsonl"),
            trace_out=str(tmp_path / "trace.json"),
            metrics_out=str(tmp_path / "metrics.csv"),
            spatial_out=str(tmp_path / "spatial.csv"),
            heatmap_out=str(tmp_path / "heatmap.json"),
            attribution_out=str(tmp_path / "attribution.json"),
            manifest_out=str(tmp_path / "manifest.json"),
            bench_out=str(tmp_path / "bench.json"),
            profile=True,
            progress=ProgressReporter(stream=io.StringIO(), heartbeat_cycles=50),
        )
        result = run_experiment(
            FR6, 0.5, mesh=Mesh2D(4, 4), seed=1, preset=OBSERVED_PRESET, obs=session
        )
        assert result.cycles_simulated >= 200
        session.finalize(config=FR6, seed=1, offered_load=0.5, packet_length=5)

    leftovers = cyclic_garbage(run)
    assert not leftovers, f"observed FR6: kept alive only by cycles: {dict(leftovers)}"


def _with_last_statement(method: Callable, statement: str) -> Callable:
    """``method`` recompiled from its source with ``statement`` appended."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
    tree.body[0].body.append(ast.parse(statement).body[0])
    module = sys.modules[method.__module__]
    namespace: dict[str, Callable] = {}
    exec(compile(ast.fix_missing_locations(tree), module.__file__, "exec"), vars(module), namespace)
    return namespace[method.__name__]


def test_a_bound_method_stored_on_the_router_fails_the_gate_and_names_it(monkeypatch):
    # The credit hook is only called by the observed commit twin, so the
    # plain run behaves as before; the router now references itself.
    mutant = _with_last_statement(
        FRRouter.__init__, "self._on_credit_return = self._return_credit_plain"
    )
    monkeypatch.setattr(FRRouter, "__init__", mutant)
    leftovers = cyclic_garbage(_stepped("FR6"))
    assert leftovers["repro.core.router.FRRouter"] == 16
    assert "repro.core.network.FRNetwork" not in leftovers  # the routers alone leak
