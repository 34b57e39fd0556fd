"""The run ledger itself: digests, verification, corruption, gc.

These are pure store-level tests -- no simulation.  Records are built from
synthetic :class:`ExperimentResult` values so each test runs in
milliseconds; the harness-level cache-hit digest properties (real
simulations replayed byte-identically) live in
``tests/harness/test_ledger_harness.py``.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import hashlib
import importlib
import inspect
import json
import pickle
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.obs.ledger as ledger_module
from repro.analysis.imports import MODEL_MODULES, import_closure, raw_imports
from repro.core.config import FR6, FR13
from repro.baselines.vc.config import VC8
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.presets import MeasurementPreset, get_preset
from repro.harness.saturation import measure_throughput
from repro.obs.ledger import (
    LedgerCorruptionError,
    LedgerError,
    RunLedger,
    canonical_json,
    content_digest,
    describe_record,
    format_run_diff,
)
from repro.topology.mesh import Mesh2D


def _result(load: float = 0.2, latency: float = 30.5) -> ExperimentResult:
    return ExperimentResult(
        config_name="FR6",
        offered_load=load,
        injection_rate=load / 10,
        packet_length=5,
        seed=1,
        accepted_load=load,
        mean_latency=latency,
        latency_ci_halfwidth=0.5,
        p95_latency=48.0,
        packets_measured=1507,
        cycles_simulated=1848,
        warmup_cycles=600,
        saturated=False,
        extras={"throughput_flits": 0.25},
    )


def _identity(ledger: RunLedger, config=FR6, load: float = 0.2, seed: int = 1,
              preset: str = "quick", **kwargs):
    return ledger.experiment_identity(
        config=config,
        offered_load=load,
        packet_length=5,
        seed=seed,
        preset=get_preset(preset),
        mesh=Mesh2D(4, 4),
        traffic="uniform",
        injection_process="periodic",
        check_invariants=False,
        network_kwargs=kwargs,
    )


@pytest.fixture()
def ledger(tmp_path):
    return RunLedger(tmp_path / "runs")


def test_round_trip_replays_byte_identically(ledger):
    identity = _identity(ledger)
    assert ledger.lookup(identity) is None  # cold store
    result = _result()
    ledger.record_experiment(identity, result)
    record = ledger.lookup(identity)
    assert record is not None
    replayed = ledger.replay_experiment(record)
    assert canonical_json(dataclasses.asdict(replayed)) == canonical_json(
        dataclasses.asdict(result)
    )
    assert (ledger.hits, ledger.misses, ledger.recorded) == (1, 1, 1)
    assert "1/2 cache hits" in ledger.summary()


def test_identity_distinguishes_every_axis(ledger):
    base = _identity(ledger)
    variants = [
        _identity(ledger, load=0.3),
        _identity(ledger, seed=2),
        _identity(ledger, preset="standard"),
        _identity(ledger, config=FR13),
        _identity(ledger, config=VC8),
        _identity(ledger, injection_lead=2),
    ]
    hashes = {ledger.identity_hash(base)} | {
        ledger.identity_hash(v) for v in variants
    }
    assert len(hashes) == 1 + len(variants)


def test_identity_takes_every_run_experiment_parameter(ledger):
    """A knob that enters `run_experiment` enters the identity too: only
    the session and the ledger itself, which never change the result, stay
    out, and `**network_kwargs` arrives as one mapping."""
    expected = [
        "network_kwargs" if param.kind is inspect.Parameter.VAR_KEYWORD else name
        for name, param in inspect.signature(run_experiment).parameters.items()
        if name not in ("obs", "ledger")
    ]
    assert list(inspect.signature(ledger.experiment_identity).parameters) == expected


def test_git_sha_is_provenance_not_identity(ledger, tmp_path, monkeypatch):
    """A record made at one commit replays at another whose closure bytes
    are equal: the SHA is written beside the result, never keyed on."""
    monkeypatch.setattr(ledger_module, "git_sha", lambda: "a" * 40)
    identity = _identity(ledger)
    result = _result()
    ledger.record_experiment(identity, result)

    monkeypatch.setattr(ledger_module, "git_sha", lambda: "b" * 40)
    later = RunLedger(tmp_path / "runs")
    later_identity = _identity(later)
    record = later.lookup(later_identity)
    assert record is not None and later.hits == 1
    assert record["provenance"]["git_sha"] == "a" * 40
    assert "git_sha" not in later_identity and "git_sha" not in record["identity"]
    assert canonical_json(dataclasses.asdict(later.replay_experiment(record))) == canonical_json(
        dataclasses.asdict(result)
    )


def test_provenance_sits_inside_the_content_hash(ledger):
    record = ledger.record_experiment(_identity(ledger), _result())
    forged = json.loads(json.dumps(record))
    forged["provenance"]["git_sha"] = "0" * 40
    with pytest.raises(LedgerCorruptionError, match="content hash mismatch"):
        RunLedger.verify(forged)


def test_schema_1_record_is_never_replayed(ledger, capsys):
    """A ``/1`` record whose every digest holds is still refused: its
    identity carried the SHA, so its result may belong to other code."""
    identity = _identity(ledger)
    record = ledger.record_experiment(identity, _result())
    old = {key: value for key, value in record.items() if key != "content_hash"}
    old["schema"] = "frfc-runrecord/1"
    old["content_hash"] = content_digest(old)
    path = ledger.record_path(ledger.identity_hash(identity))
    path.write_text(json.dumps(old))
    with pytest.raises(LedgerCorruptionError, match="frfc-runrecord/1"):
        ledger.load(path.stem)
    assert ledger.lookup(identity) is None
    assert ledger.corrupt == 1
    assert "re-simulating" in capsys.readouterr().err
    assert ledger.gc() == (0, 1)


def test_bit_flip_is_refused_never_silently_replayed(ledger, capsys):
    identity = _identity(ledger)
    ledger.record_experiment(identity, _result(latency=30.5))
    key = ledger.identity_hash(identity)
    path = ledger.record_path(key)
    # Flip the stored latency: the content/result digests no longer match.
    path.write_text(path.read_text().replace("30.5", "99.5"))
    with pytest.raises(LedgerCorruptionError, match="refusing to replay"):
        ledger.load(key)
    # lookup degrades corruption to a loud miss, so callers re-simulate...
    assert ledger.lookup(identity) is None
    assert ledger.corrupt == 1
    assert "re-simulating" in capsys.readouterr().err
    # ...and the re-record atomically heals the store.
    ledger.record_experiment(identity, _result(latency=30.5))
    record = ledger.lookup(identity)
    assert record is not None
    assert record["result"]["mean_latency"] == 30.5


def test_truncated_json_is_corruption_not_a_crash(ledger):
    identity = _identity(ledger)
    ledger.record_experiment(identity, _result())
    path = ledger.record_path(ledger.identity_hash(identity))
    path.write_text(path.read_text()[: 40])
    with pytest.raises(LedgerCorruptionError, match="not valid JSON"):
        ledger.load(ledger.identity_hash(identity))
    assert ledger.lookup(identity) is None


def test_record_stored_under_wrong_name_is_refused(ledger):
    identity_a = _identity(ledger, load=0.2)
    identity_b = _identity(ledger, load=0.3)
    ledger.record_experiment(identity_a, _result(load=0.2))
    key_a = ledger.identity_hash(identity_a)
    key_b = ledger.identity_hash(identity_b)
    # A valid record filed under the wrong hash must not replay as B.
    ledger.record_path(key_b).write_text(ledger.record_path(key_a).read_text())
    with pytest.raises(LedgerCorruptionError, match="stored under"):
        ledger.load(key_b)
    assert ledger.lookup(identity_b) is None


def test_verify_catches_in_memory_tampering(ledger):
    identity = _identity(ledger)
    record = ledger.record_experiment(identity, _result())
    tampered = json.loads(json.dumps(record))
    tampered["result"]["mean_latency"] = 1.0
    with pytest.raises(LedgerCorruptionError):
        RunLedger.verify(tampered)
    RunLedger.verify(json.loads(json.dumps(record)))  # untouched copy passes


def test_code_digest_edit_in_closure_forces_miss(ledger, tmp_path, monkeypatch):
    identity = _identity(ledger)
    ledger.record_experiment(identity, _result())

    import repro.obs.ledger as ledger_module

    real_source = ledger_module._module_source

    def edited(module: str) -> bytes:
        source = real_source(module)
        if module == "repro.core.network":  # reachable from the FR entry
            return source + b"\n# edited\n"
        return source

    monkeypatch.setattr(ledger_module, "_module_source", edited)
    fresh = RunLedger(tmp_path / "runs")  # digests cache per instance
    edited_identity = _identity(fresh)
    assert fresh.identity_hash(edited_identity) != ledger.identity_hash(identity)
    assert fresh.lookup(edited_identity) is None


def test_code_digest_edit_outside_closure_still_hits(ledger, tmp_path, monkeypatch):
    identity = _identity(ledger)  # an FR run
    ledger.record_experiment(identity, _result())

    import repro.obs.ledger as ledger_module

    real_source = ledger_module._module_source

    def edited(module: str) -> bytes:
        source = real_source(module)
        if module == "repro.baselines.wormhole.network":  # WH-only module
            return source + b"\n# edited\n"
        return source

    monkeypatch.setattr(ledger_module, "_module_source", edited)
    fresh = RunLedger(tmp_path / "runs")
    assert fresh.lookup(_identity(fresh)) is not None


def test_gc_keeps_current_evicts_corrupt_and_stale(ledger, tmp_path, monkeypatch):
    identity = _identity(ledger)
    ledger.record_experiment(identity, _result())
    # A corrupt neighbour and a stray temp file from an interrupted write.
    (ledger.root / ("f" * 64 + ".json")).write_text("{not json")
    (ledger.root / "whatever.12345.tmp").write_text("partial")
    kept, evicted = RunLedger(tmp_path / "runs").gc()
    assert (kept, evicted) == (1, 1)
    assert not list(ledger.root.glob("*.tmp"))

    # After a (simulated) edit to the FR closure the survivor is stale too.
    import repro.obs.ledger as ledger_module

    real_source = ledger_module._module_source
    monkeypatch.setattr(
        ledger_module,
        "_module_source",
        lambda module: real_source(module) + b"#x"
        if module == "repro.core.network"
        else real_source(module),
    )
    kept, evicted = RunLedger(tmp_path / "runs").gc()
    assert (kept, evicted) == (0, 1)


def test_gc_judges_by_code_digest_alone(ledger, tmp_path, monkeypatch):
    """A record from another commit with this tree's closure bytes is
    current, and gc asks git nothing."""
    monkeypatch.setattr(ledger_module, "git_sha", lambda: "a" * 40)
    ledger.record_experiment(_identity(ledger), _result())

    def no_git() -> str:
        raise AssertionError("gc asked for the git SHA")

    monkeypatch.setattr(ledger_module, "git_sha", no_git)
    assert RunLedger(tmp_path / "runs").gc() == (1, 0)


def test_gc_wipe_all_empties_the_store(ledger):
    ledger.record_experiment(_identity(ledger, load=0.2), _result(load=0.2))
    ledger.record_experiment(_identity(ledger, load=0.3), _result(load=0.3))
    kept, evicted = ledger.gc(wipe_all=True)
    assert (kept, evicted) == (0, 2)
    assert not list(ledger.root.glob("*.json"))


def test_resolve_prefix(ledger):
    ledger.record_experiment(_identity(ledger, load=0.2), _result(load=0.2))
    ledger.record_experiment(_identity(ledger, load=0.3), _result(load=0.3))
    hashes = sorted(path.stem for path in ledger.root.glob("*.json"))
    assert ledger.resolve(hashes[0][:10]) == hashes[0]
    with pytest.raises(LedgerError, match="no run record matching"):
        ledger.resolve("zzzz")
    with pytest.raises(LedgerError, match="ambiguous"):
        ledger.resolve("")  # every record matches the empty prefix


def test_probe_round_trips_through_the_experiment_record(ledger):
    """A throughput probe has no record kind of its own: it is stored, and
    replayed, as the experiment it is (the one simulation in this file: 280
    cycles of a 4x4 mesh)."""
    tiny = MeasurementPreset(
        name="tiny", min_warmup=80, warmup_window=40, max_warmup=200,
        sample_cycles=150, drain_cycles=1500, throughput_cycles=200,
    )
    cold = measure_throughput(FR6, 0.3, preset=tiny, mesh=Mesh2D(4, 4), ledger=ledger)
    assert (ledger.hits, ledger.recorded) == (0, 1)
    record = ledger.last_record
    assert record is not None and record["kind"] == "experiment"
    preset = record["identity"]["preset"]
    assert preset["name"] == "tiny/probe"
    assert (preset["sample_cycles"], preset["drain_cycles"]) == (200, 0)
    assert RunLedger.replay_experiment(record).accepted_load == cold
    assert record["result"]["cycles_simulated"] == record["result"]["warmup_cycles"] + 200
    assert "preset=tiny/probe" in describe_record(record)
    warm = measure_throughput(FR6, 0.3, preset=tiny, mesh=Mesh2D(4, 4), ledger=ledger)
    assert warm == cold
    assert (ledger.hits, ledger.recorded) == (1, 1)


def test_describe_and_diff_render(ledger):
    identity_a = _identity(ledger, load=0.2)
    identity_b = _identity(ledger, load=0.3)
    record_a = ledger.record_experiment(identity_a, _result(load=0.2, latency=30.0))
    record_b = ledger.record_experiment(identity_b, _result(load=0.3, latency=35.0))
    line = describe_record(record_a)
    assert line.startswith(ledger.identity_hash(identity_a)[:12])
    assert "FR6 load=0.20" in line and "latency=30.0" in line
    diff = format_run_diff(record_a, record_b)
    assert "mean_latency" in diff and "+5.00" in diff
    assert "offered_load" in diff and "+0.10" in diff


def test_wall_clock_never_reaches_digests(ledger):
    """The result digest covers only the result block; profile/attribution
    metadata (the only wall-clock carriers) stay outside it."""
    identity = _identity(ledger)
    record = ledger.record_experiment(identity, _result())
    assert record["result_digest"] == content_digest(record["result"])
    assert "wall" not in canonical_json(record["identity"])
    assert "wall" not in canonical_json(record["result"])


# -- the import memo behind the code digest ----------------------------------

MODELS = ("FR", "VC", "WH")


@contextlib.contextmanager
def _edited_tree():
    """Simulated source edits, served through the ledger's one read seam."""
    edits: dict[str, bytes] = {}
    real_source = ledger_module._module_source

    def read(module: str):
        return edits[module] if module in edits else real_source(module)

    with mock.patch.object(ledger_module, "_module_source", read):
        yield edits


class _ParsingResolver:
    """The reference: no memo, every module read through the seam and parsed."""

    def __init__(self) -> None:
        self._imports: dict[str, list | None] = {}

    def module_imports(self, module: str):
        if module not in self._imports:
            source = ledger_module._module_source(module)
            self._imports[module] = None if source is None else raw_imports(ast.parse(source))
        return self._imports[module]


def _members(model: str, resolver: _ParsingResolver) -> set[str]:
    """What ``code_digest(model)`` covers, walked without the memo."""
    stop = frozenset(
        module
        for kind, modules in MODEL_MODULES.items()
        if kind != model
        for module in modules
    )
    members: set[str] = set()
    for root in (*ledger_module._DIGEST_ROOTS, *MODEL_MODULES[model]):
        members.update(import_closure(root, resolver, stop=stop))
    return members


def _unmemoised_digests() -> dict[str, str]:
    resolver = _ParsingResolver()
    digests = {}
    for model in MODELS:
        digest = hashlib.sha256()
        for module in sorted(_members(model, resolver)):
            source = ledger_module._module_source(module)
            digest.update(module.encode() + b"\x00" + hashlib.sha256(source).digest() + b"\x00")
        digests[model] = digest.hexdigest()
    return digests


def _digests(store) -> dict[str, str]:
    fresh = RunLedger(store)  # digests cache per instance
    return {model: fresh.code_digest(model) for model in MODELS}


def _memo(store):
    return store / ledger_module._MEMO_NAME


def _memo_verifies(store) -> bool:
    payload = json.loads(_memo(store).read_text())
    return payload["digest"] == content_digest(payload["modules"])


@pytest.mark.parametrize("model", MODELS)
def test_digest_covers_every_member_and_every_package_init_above_it(tmp_path, model):
    """No file that executes when the model is imported can change without
    the digest changing: every closure member, and the ``__init__.py`` of
    every package above one (importing ``repro.core.network`` runs
    ``repro/__init__.py`` and ``repro/core/__init__.py`` first).  A module
    the model cannot reach changes nothing."""
    store = tmp_path / "runs"
    members = _members(model, _ParsingResolver())
    packages = {
        module.rsplit(".", depth)[0] for module in members for depth in range(1, module.count(".") + 1)
    }
    assert {"repro", "repro.harness", "repro.sim", "repro.stats"} <= packages <= members
    outside = {"repro.harness.sweep", "repro.obs.ledger", "repro.lint.rules"}
    assert not outside & members
    def digest() -> str:
        return RunLedger(store).code_digest(model)  # digests cache per instance

    with _edited_tree() as edits:
        before = digest()
        for module in sorted(members | outside):
            edits[module] = ledger_module._module_source(module) + b"\n# edited\n"
            assert (digest() != before) == (module in members), module
            del edits[module]
        assert digest() == before


def test_digest_follows_an_import_the_edit_added(tmp_path):
    """Hash what you parse: an import that exists only in the edited bytes is
    followed, so the module it names is covered by the digest."""
    store = tmp_path / "runs"
    with _edited_tree() as edits:
        before = _digests(store)
        network = ledger_module._module_source("repro.core.network")
        edits["repro.core.network"] = network + b"\nimport repro.obs.trace\n"
        with_import = _digests(store)
        trace = ledger_module._module_source("repro.obs.trace")
        edits["repro.obs.trace"] = trace + b"\n# edited\n"
        trace_edited = _digests(store)
    assert with_import["FR"] != before["FR"]
    assert trace_edited["FR"] != with_import["FR"]  # trace is in the closure now
    assert trace_edited["VC"] == with_import["VC"] == before["VC"]


def test_warm_digest_parses_nothing_and_leaves_the_memo_alone(tmp_path):
    store = tmp_path / "runs"
    cold = _digests(store)
    assert cold == _unmemoised_digests()
    assert _memo_verifies(store)
    with mock.patch.object(ledger_module.ast, "parse", side_effect=AssertionError("parsed")), \
            mock.patch.object(ledger_module, "atomic_write_text") as write:
        assert _digests(store) == cold
    write.assert_not_called()


def test_a_fresh_store_parses_nothing_this_process_has_parsed(tmp_path):
    """Parsed imports are shared across stores by the sha256 of the bytes: a
    second fresh store still reads and hashes every module, but parses none,
    and writes the same memo file as the first."""
    first, second = tmp_path / "first", tmp_path / "second"
    digests = _digests(first)
    with mock.patch.object(ledger_module.ast, "parse", side_effect=AssertionError("parsed")):
        assert _digests(second) == digests
    assert _memo(second).read_bytes() == _memo(first).read_bytes()


def _truncate(text: str) -> str:
    return text[: len(text) // 2]


def _flip_a_bit(text: str) -> str:
    data = bytearray(text.encode())
    data[data.index(b"repro.sim")] ^= 0x01  # inside an import statement
    return data.decode()


def _wrong_self_digest(text: str) -> str:
    payload = json.loads(text)
    payload["modules"]["repro.core.network"]["imports"] = []
    return canonical_json(payload)


def _entry_for_other_bytes(text: str) -> str:
    # A memo that verifies, with an entry for bytes the file does not have.
    modules = json.loads(text)["modules"]
    modules["repro.core.network"] = {"sha256": "0" * 64, "imports": []}
    return canonical_json({"digest": content_digest(modules), "modules": modules})


@pytest.mark.parametrize(
    "damage", [_truncate, _flip_a_bit, _wrong_self_digest, _entry_for_other_bytes]
)
def test_damaged_memo_is_rewritten_never_trusted(tmp_path, damage):
    store = tmp_path / "runs"
    good = _digests(store)
    good_memo = _memo(store).read_text()
    _memo(store).write_text(damage(good_memo))
    assert _digests(store) == good
    assert _memo(store).read_text() == good_memo


def test_memo_is_not_a_record(ledger):
    ledger.record_experiment(_identity(ledger), _result())
    memo = _memo(ledger.root)
    assert memo.exists() and memo not in list(ledger.root.glob("*.json"))
    records, corrupt = ledger.scan()
    assert len(records) == 1 and corrupt == []
    with pytest.raises(LedgerError, match="no run record matching"):
        ledger.resolve(memo.name[:4])


def test_memo_is_written_atomically_and_its_temp_file_is_swept(ledger):
    written = []
    real_write = ledger_module.atomic_write_text

    def spy(path, text):
        written.append(path)
        real_write(path, text)

    with mock.patch.object(ledger_module, "atomic_write_text", spy):
        ledger.code_digest("FR")
    assert written == [_memo(ledger.root)]
    assert sorted(path.name for path in ledger.root.iterdir()) == [_memo(ledger.root).name]
    # What an interrupted atomic write of the memo would leave behind.
    orphan = ledger.root / f"{_memo(ledger.root).name}.12345.tmp"
    orphan.write_text("partial")
    ledger.gc()
    assert not orphan.exists()


def test_gc_keeps_the_memo_and_gc_all_removes_it(ledger):
    ledger.record_experiment(_identity(ledger), _result())
    assert ledger.gc() == (1, 0)
    assert _memo(ledger.root).exists()
    assert ledger.gc(wipe_all=True) == (0, 1)
    assert list(ledger.root.iterdir()) == []


def test_unwritable_store_still_yields_the_digest(tmp_path):
    (tmp_path / "archive").write_text("not a directory")
    nowhere = RunLedger(tmp_path / "archive" / "runs")  # mkdir cannot succeed
    assert nowhere.code_digest("FR") == RunLedger(tmp_path / "runs").code_digest("FR")


def test_pickled_ledger_carries_digests_but_no_memo(ledger):
    digests = {model: ledger.code_digest(model) for model in MODELS}
    clone = pickle.loads(pickle.dumps(ledger))
    assert clone._imports is None and ledger._imports is not None
    with mock.patch.object(ledger_module, "_module_source", side_effect=AssertionError("read")):
        assert {model: clone.code_digest(model) for model in MODELS} == digests


def test_new_submodule_file_becomes_an_edge_without_any_byte_changing(tmp_path, monkeypatch):
    """``from pkg import name`` names a module exactly when ``pkg/name.py``
    exists today: the memo remembers the statement, never what it resolved to."""
    package = tmp_path / "repro_memo_fixture"  # "repro*": the closure follows it
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "entry.py").write_text("from repro_memo_fixture import late\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    store = tmp_path / "runs"
    try:
        with _edited_tree() as edits:
            network = ledger_module._module_source("repro.core.network")
            edits["repro.core.network"] = network + b"\nimport repro_memo_fixture.entry\n"
            before = _digests(store)
            assert before == _unmemoised_digests()
            memo = _memo(store).read_text()
            (package / "late.py").write_text("import repro.obs.trace\n")
            importlib.invalidate_caches()
            after = _digests(store)
            assert after == _unmemoised_digests()
            assert after["FR"] != before["FR"]
            # entry.py is the same bytes, so its memo entry was used as it was.
            assert json.loads(_memo(store).read_text())["modules"]["repro_memo_fixture.entry"] \
                == json.loads(memo)["modules"]["repro_memo_fixture.entry"]
    finally:
        for name in [name for name in sys.modules if name.startswith("repro_memo_fixture")]:
            del sys.modules[name]


def _edit(module: str):
    def apply(edits, store, step):
        edits[module] = ledger_module._module_source(module) + b"\n# edit %d\n" % step

    return apply


def _add_import(edits, store, step):
    source = ledger_module._module_source("repro.core.network")
    edits["repro.core.network"] = source + b"\nfrom repro.obs import trace, ghost\n"


def _add_submodule(edits, store, step):
    # With _add_import, `ghost` turns from a name into a module edge.
    edits["repro.obs.ghost"] = b"import repro.overhead.storage  # %d\n" % step


def _delete_memo(edits, store, step):
    _memo(store).unlink(missing_ok=True)


def _revert(edits, store, step):
    edits.clear()


_MUTATIONS = [
    _edit("repro.core.router"),  # inside every closure
    _edit("repro.baselines.vc.router"),  # inside VC's only
    _edit("repro.obs.trace"),  # outside, until _add_import
    _add_import,
    _add_submodule,
    _delete_memo,
    _revert,
]


@given(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=6))
@settings(max_examples=10, deadline=None)
def test_memoised_digest_equals_unmemoised_across_mutations(tmp_path_factory, mutations):
    store = tmp_path_factory.mktemp("memo") / "runs"
    with _edited_tree() as edits:
        assert _digests(store) == _unmemoised_digests()
        for step, mutate in enumerate(mutations):
            mutate(edits, store, step)
            assert _digests(store) == _unmemoised_digests()
            assert _memo_verifies(store)
