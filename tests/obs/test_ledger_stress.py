"""Multi-process ledger stress: concurrent writers and killed writers.

The parallel sweep backend makes several processes write one store at once,
so the store's two promises are exercised across real processes here: a
record on disk is either absent or complete (verified on every read), and an
interrupted write leaves nothing but an orphan temp file that ``gc`` sweeps.
The import memo is the one file every process of a fresh store rewrites, so
it gets the same treatment.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
from unittest import mock

import pytest

import repro.obs.ledger as ledger_module

from repro.core.config import FR6
from repro.harness.experiment import ExperimentResult
from repro.harness.presets import get_preset
from repro.obs import exporters
from repro.obs.ledger import RunLedger, content_digest
from repro.topology.mesh import Mesh2D

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the stress workers are forked closures over the test's ledger",
)

WRITERS = 4
ROUNDS = 25


def _identity(ledger: RunLedger, load: float = 0.2):
    return ledger.experiment_identity(
        config=FR6, offered_load=load, packet_length=5, seed=1,
        preset=get_preset("quick"), mesh=Mesh2D(4, 4), traffic="uniform",
        injection_process="periodic", check_invariants=False,
        network_kwargs={},
    )


def _result(load: float = 0.2) -> ExperimentResult:
    return ExperimentResult(
        config_name="FR6", offered_load=load, injection_rate=load / 10,
        packet_length=5, seed=1, accepted_load=load, mean_latency=30.5,
        latency_ci_halfwidth=0.5, p95_latency=48.0, packets_measured=1507,
        cycles_simulated=1848, warmup_cycles=600, saturated=False,
    )


def _fork(target, *args):
    process = multiprocessing.get_context("fork").Process(target=target, args=args)
    process.start()
    return process


def _write_repeatedly(ledger: RunLedger, identity, writer: int) -> None:
    for round_ in range(ROUNDS):
        # Same identity and result, different bytes: artifacts vary per write,
        # so a torn or interleaved file could not pass its content hash.
        ledger.record_experiment(
            identity, _result(), artifacts={"writer": f"{writer}/{round_}" * (1 + writer * 50)}
        )


def test_concurrent_writers_of_one_identity_never_tear_a_record(tmp_path):
    ledger = RunLedger(tmp_path / "runs")
    identity = _identity(ledger)
    key = ledger.identity_hash(identity)
    ledger.record_experiment(identity, _result())  # readers always find a record
    writers = [_fork(_write_repeatedly, ledger, identity, n) for n in range(WRITERS)]
    reads = 0
    while any(writer.is_alive() for writer in writers):
        record = ledger.load(key)  # raises LedgerCorruptionError on a torn file
        assert record["result"]["mean_latency"] == 30.5
        reads += 1
    for writer in writers:
        writer.join(timeout=60)
        assert writer.exitcode == 0
    assert reads > 0
    records, corrupt = ledger.scan()
    assert len(records) == 1 and corrupt == []
    assert list(ledger.root.glob("*.tmp")) == []
    assert ledger.lookup(identity) is not None and ledger.corrupt == 0


def _die_mid_write(ledger: RunLedger, identity) -> None:
    # The temp file is fully written; the process dies before the rename.
    exporters.os.fsync = lambda fd: os.kill(os.getpid(), signal.SIGKILL)
    ledger.record_experiment(identity, _result(0.3))


def test_sigkill_mid_write_leaves_only_an_orphan_that_gc_sweeps(tmp_path):
    ledger = RunLedger(tmp_path / "runs")
    survivor, victim = _identity(ledger, 0.2), _identity(ledger, 0.3)
    ledger.record_experiment(survivor, _result(0.2))
    killed = [_fork(_die_mid_write, ledger, victim) for _ in range(3)]
    for process in killed:
        process.join(timeout=60)
        assert process.exitcode == -signal.SIGKILL
    orphans = list(ledger.root.glob("*.tmp"))
    assert len(orphans) == 3  # one per killed pid, none under a record's name
    # Every surviving record verifies; the victim is a clean miss, not corruption.
    records, corrupt = ledger.scan()
    assert [r["identity_hash"] for r in records] == [ledger.identity_hash(survivor)]
    assert corrupt == []
    reader = RunLedger(tmp_path / "runs")
    assert reader.lookup(victim) is None and reader.lookup(survivor) is not None
    assert (reader.hits, reader.misses, reader.corrupt) == (1, 1, 0)
    assert ledger.gc() == (1, 0)
    assert list(ledger.root.glob("*.tmp")) == []
    # The rerun that follows a crash simply records the missing point.
    reader.record_experiment(victim, _result(0.3))
    assert len(reader.scan()[0]) == 2


MODELS = ("FR", "VC", "WH")


def _warm_the_store(store, barrier, out) -> None:
    ledger = RunLedger(store)
    barrier.wait(timeout=60)
    out.write_text(json.dumps([ledger.code_digest(model) for model in MODELS]))


def test_processes_warming_one_fresh_store_agree_and_leave_a_verifying_memo(tmp_path):
    alone = RunLedger(tmp_path / "alone")
    expected = [alone.code_digest(model) for model in MODELS]
    store = tmp_path / "runs"
    barrier = multiprocessing.get_context("fork").Barrier(WRITERS)
    outs = [tmp_path / f"digests{n}.json" for n in range(WRITERS)]
    warmers = [_fork(_warm_the_store, store, barrier, out) for out in outs]
    for warmer in warmers:
        warmer.join(timeout=60)
        assert warmer.exitcode == 0
    assert [json.loads(out.read_text()) for out in outs] == [expected] * WRITERS
    assert [path.name for path in store.iterdir()] == [ledger_module._MEMO_NAME]
    payload = json.loads((store / ledger_module._MEMO_NAME).read_text())
    assert payload["digest"] == content_digest(payload["modules"])
    # Whichever writer won, the memo it left answers for the whole tree.
    with mock.patch.object(ledger_module.ast, "parse", side_effect=AssertionError("parsed")):
        warm = RunLedger(store)
        assert [warm.code_digest(model) for model in MODELS] == expected
