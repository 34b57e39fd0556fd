"""Harness-level ledger properties: real simulations replayed from cache.

The contract under test is the headline one from the issue: a warm rerun
against the same store simulates **zero** points and reproduces the cold
results *byte-identically* (canonical JSON of the dataclasses), across all
three flow-control models and several seeds; an interrupted sweep resumes
exactly where it stopped; and an edit to code the model can reach forces
re-simulation while unrelated edits keep hitting.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.baselines.vc.config import VC8
from repro.baselines.wormhole.network import WormholeConfig
from repro.core.config import FR6
from repro.harness import experiment as experiment_module
from repro.harness.experiment import run_experiment
from repro.harness.presets import MeasurementPreset
from repro.harness.saturation import find_saturation
from repro.harness.sweep import run_load_sweep
from repro.obs.ledger import RunLedger, canonical_json
from repro.obs.session import ObsSession
from repro.topology.mesh import Mesh2D

#: Small enough for CI, long enough to measure real packets on a 4x4 mesh.
TINY = MeasurementPreset(
    name="ledger-test",
    min_warmup=80,
    warmup_window=40,
    max_warmup=200,
    sample_cycles=150,
    drain_cycles=1500,
    throughput_cycles=200,
)

CONFIGS = {
    "FR": FR6,
    "VC": VC8,
    "WH": WormholeConfig(buffers_per_input=8),
}


def _run(config, load, seed, **kwargs):
    return run_experiment(
        config, load, seed=seed, preset=TINY, mesh=Mesh2D(4, 4), **kwargs
    )


def _json(result) -> str:
    return canonical_json(dataclasses.asdict(result))


@pytest.mark.parametrize("model", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cache_hit_replays_byte_identically(model, seed, tmp_path):
    config = CONFIGS[model]
    ledger = RunLedger(tmp_path / "runs")
    cold = _run(config, 0.2, seed, ledger=ledger)
    assert (ledger.hits, ledger.recorded) == (0, 1)
    warm = _run(config, 0.2, seed, ledger=ledger)
    assert (ledger.hits, ledger.recorded) == (1, 1)  # zero new simulations
    assert _json(warm) == _json(cold)


def test_warm_sweep_simulates_zero_points(tmp_path):
    ledger = RunLedger(tmp_path / "runs")
    loads = [0.2, 0.3]
    cold = run_load_sweep(
        FR6, loads, preset=TINY, mesh=Mesh2D(4, 4), ledger=ledger
    )
    assert cold.cache_hits() == 0 and ledger.recorded == 2
    warm_ledger = RunLedger(tmp_path / "runs")
    warm = run_load_sweep(
        FR6, loads, preset=TINY, mesh=Mesh2D(4, 4), ledger=warm_ledger
    )
    assert warm.cache_hits() == 2
    assert warm_ledger.recorded == 0  # nothing was simulated
    assert warm.format_table() == cold.format_table()
    assert [_json(p) for p in warm.points] == [_json(p) for p in cold.points]
    # The hit points replay the recorded profiler report, so the health
    # table still shows real phase timings.
    assert all(t.profile is not None for t in warm.telemetry)


class _InterruptingLedger(RunLedger):
    """Raises KeyboardInterrupt after recording ``budget`` fresh points."""

    def __init__(self, root, budget: int) -> None:
        super().__init__(root)
        self.budget = budget

    def record_experiment(self, identity, result, obs=None, artifacts=None):
        record = super().record_experiment(identity, result, obs=obs,
                                           artifacts=artifacts)
        self.budget -= 1
        if self.budget <= 0:
            raise KeyboardInterrupt
        return record


@pytest.mark.parametrize("interrupt_after", [1, 2])
def test_interrupted_sweep_resumes_byte_identically(tmp_path, interrupt_after):
    loads = [0.15, 0.2, 0.25]
    reference = run_load_sweep(FR6, loads, preset=TINY, mesh=Mesh2D(4, 4))

    store = tmp_path / "runs"
    with pytest.raises(KeyboardInterrupt):
        # Pinned serial: the fault is injected through this ledger object's
        # own record_experiment, and "after N points" only means something
        # when one process records them in order.  (Failing and killed pool
        # workers are covered in test_parallel_sweep.py.)
        run_load_sweep(
            FR6, loads, preset=TINY, mesh=Mesh2D(4, 4),
            ledger=_InterruptingLedger(store, budget=interrupt_after), jobs=1,
        )
    # The interrupted run recorded exactly the points it finished...
    resumed_ledger = RunLedger(store)
    resumed = run_load_sweep(
        FR6, loads, preset=TINY, mesh=Mesh2D(4, 4), ledger=resumed_ledger
    )
    # ...and the rerun replayed those while simulating only the rest.
    assert resumed.cache_hits() == interrupt_after
    assert resumed_ledger.recorded == len(loads) - interrupt_after
    assert [_json(p) for p in resumed.points] == [_json(p) for p in reference.points]


def test_ledger_and_progress_leave_results_bit_identical(tmp_path):
    """The acceptance property: attaching the whole observability stack
    (ledger + progress + profiled session) changes nothing measured."""
    import io

    from repro.obs.progress import ProgressReporter

    bare = run_load_sweep(FR6, [0.2], preset=TINY, mesh=Mesh2D(4, 4))
    observed = run_load_sweep(
        FR6, [0.2], preset=TINY, mesh=Mesh2D(4, 4),
        ledger=RunLedger(tmp_path / "runs"),
        progress=ProgressReporter(stream=io.StringIO()),
    )
    assert [_json(p) for p in observed.points] == [_json(p) for p in bare.points]


def test_code_edit_in_closure_forces_resimulation(tmp_path, monkeypatch):
    store = tmp_path / "runs"
    cold = _run(FR6, 0.2, 1, ledger=RunLedger(store))

    import repro.obs.ledger as ledger_module

    real_source = ledger_module._module_source
    monkeypatch.setattr(
        ledger_module,
        "_module_source",
        lambda module: real_source(module) + b"\n# edit\n"
        if module == "repro.core.router"
        else real_source(module),
    )
    edited = RunLedger(store)
    rerun = _run(FR6, 0.2, 1, ledger=edited)
    assert edited.hits == 0 and edited.recorded == 1  # forced re-simulation
    assert _json(rerun) == _json(cold)  # the code didn't actually change


def test_unrelated_code_edit_keeps_hitting(tmp_path, monkeypatch):
    store = tmp_path / "runs"
    _run(FR6, 0.2, 1, ledger=RunLedger(store))

    import repro.obs.ledger as ledger_module

    real_source = ledger_module._module_source
    monkeypatch.setattr(
        ledger_module,
        "_module_source",
        lambda module: real_source(module) + b"\n# edit\n"
        if module == "repro.baselines.wormhole.network"
        else real_source(module),
    )
    edited = RunLedger(store)
    _run(FR6, 0.2, 1, ledger=edited)
    assert edited.hits == 1 and edited.recorded == 0


def _rerun_after_edit(store, monkeypatch, edited_module: str, **kwargs):
    """Append a comment to ``edited_module``'s bytes, then rerun the tiny FR6
    point against a fresh ledger on ``store``."""
    import repro.obs.ledger as ledger_module

    real_source = ledger_module._module_source
    with monkeypatch.context() as patch:
        patch.setattr(
            ledger_module,
            "_module_source",
            lambda module: real_source(module) + b"\n# edit\n"
            if module == edited_module
            else real_source(module),
        )
        ledger = RunLedger(store)
        return ledger, _run(FR6, 0.2, 1, ledger=ledger, **kwargs)


def test_sampled_closure_edit_reruns_and_rerecords(tmp_path, monkeypatch):
    """With the git SHA out of the identity, the code digest alone must
    invalidate a record after a code edit: for each module of a seeded
    sample of FR's closure, an edit misses, simulates, writes a second
    record, and the rerun equals the first run (the code didn't really
    change).  The control: the same edit to a VC-only module still hits."""
    members = list(RunLedger(tmp_path / "digest")._closure("FR"))
    assert "repro.baselines.vc.network" not in members
    sample = random.Random(34).sample(members, 3)
    for module in sample:
        store = tmp_path / module / "runs"
        cold = _run(FR6, 0.2, 1, ledger=RunLedger(store))
        edited, rerun = _rerun_after_edit(store, monkeypatch, module)
        assert (edited.hits, edited.misses, edited.recorded) == (0, 1, 1), module
        assert len(list(store.glob("*.json"))) == 2, module
        assert _json(rerun) == _json(cold), module

    control, _ = _rerun_after_edit(tmp_path / sample[0] / "runs", monkeypatch,
                                "repro.baselines.vc.network")
    assert (control.hits, control.recorded) == (1, 0)


def _attributing() -> ObsSession:
    return ObsSession(attribution_out="", manifest_out="")


def test_attribution_edit_reruns_an_observed_point(tmp_path, monkeypatch):
    """An observed record stores the attribution summary its session
    computed, and a hit hands it back: the code that computes it is part of
    the digest, so an edit to it re-simulates and re-records the point."""
    store = tmp_path / "runs"
    cold_ledger = RunLedger(store)
    _run(FR6, 0.2, 1, ledger=cold_ledger, obs=_attributing())
    cold = cold_ledger.last_attribution()
    assert cold is not None

    edited, _ = _rerun_after_edit(
        store, monkeypatch, "repro.obs.attribution", obs=_attributing()
    )
    assert (edited.hits, edited.misses, edited.recorded) == (0, 1, 1)
    assert len(list(store.glob("*.json"))) == 2
    assert edited.last_attribution() == cold


def test_find_saturation_replays_probes(tmp_path, monkeypatch):
    store = tmp_path / "runs"
    search = dict(
        preset=TINY, mesh=Mesh2D(4, 4), low=0.3, high=0.9, resolution=0.1, attribute=True
    )
    cold_ledger = RunLedger(store)
    cold = find_saturation(FR6, ledger=cold_ledger, **search)
    assert cold_ledger.recorded == len(cold.probes) >= 3
    assert len(cold.attribution) == len(cold.probes)

    def simulated(*args, **kwargs):
        raise AssertionError("a warm search must not build a network")

    monkeypatch.setattr(experiment_module, "build_network", simulated)
    warm_ledger = RunLedger(store)
    warm = find_saturation(FR6, ledger=warm_ledger, **search)
    assert warm_ledger.recorded == 0  # the whole bisection replayed
    assert warm_ledger.hits == len(warm.probes)
    assert warm == cold  # probes, knee, plateau and every attribution summary
