"""The `frfc` CLI surface of the run ledger: --ledger sweeps and `frfc runs`.

One cold attributed-free sweep (two quick FR6 points) is recorded into a
module-scoped store; every test below replays or inspects it, so the CLI
suite pays for simulation exactly once.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.runner import main

LOADS = "0.2,0.3"

#: One record of each retired kind -- `bench` as the benchmark gate wrote
#: them, `throughput` as `measure_throughput` did before a probe became an
#: experiment -- each made with the ledger of the last tree that wrote the
#: kind, so each is a `frfc-runrecord/1` record (keyed by git SHA, which this
#: ledger refuses to read and `gc` always evicts), with a one-digit edit that
#: must break it.
LEGACY = {
    "bench": ('"cycles": 1844', '"cycles": 1845'),
    "throughput": ("0.29733333333333334", "0.29743333333333334"),
}


def _plant_legacy(store: Path, kind: str = "bench") -> Path:
    fixture = Path(__file__).parent / "fixtures" / f"legacy_{kind}_record.json"
    legacy = store / f"{json.loads(fixture.read_text())['identity_hash']}.json"
    shutil.copy(fixture, legacy)
    return legacy


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("ledger") / "runs"
    assert (
        main(["--preset", "quick", "sweep", "FR6", "--loads", LOADS,
              "--ledger", str(root)])
        == 0
    )
    return root


def _sweep(store, capsys, extra=()):
    assert (
        main(["--preset", "quick", "sweep", "FR6", "--loads", LOADS,
              "--ledger", str(store), *extra])
        == 0
    )
    return capsys.readouterr()


def test_warm_sweep_is_all_hits_and_stdout_identical(store, capsys):
    warm_a = _sweep(store, capsys)
    warm_b = _sweep(store, capsys)
    assert warm_a.out == warm_b.out  # byte-identical stdout, warm vs warm
    assert "offered" in warm_a.out and "0.20" in warm_a.out
    assert "2/2 cache hits" in warm_a.err
    assert "sweep health" in warm_a.err  # telemetry goes to stderr only


def test_progress_out_writes_schema_lines(store, capsys, tmp_path):
    jsonl = tmp_path / "progress.jsonl"
    result = _sweep(store, capsys, extra=["--progress-out", str(jsonl)])
    assert "[frfc] FR6 point 1/2" in result.err
    events = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert all(e["schema"] == "frfc-progress/1" for e in events)
    assert [e["event"] for e in events if e["event"] == "end_point"] == [
        "end_point", "end_point",
    ]
    assert all(e["cache_hit"] for e in events if e["event"] == "end_point")


def test_point_replays_from_the_sweeps_store(store, capsys):
    args = ["--preset", "quick", "point", "FR6", "0.2", "--ledger", str(store)]
    assert main(args) == 0
    first = capsys.readouterr()
    assert main(args) == 0
    second = capsys.readouterr()
    assert first.out == second.out
    assert "1/1 cache hits" in second.err


def test_runs_list_show_diff(store, capsys):
    assert main(["runs", "list", "--store", str(store)]) == 0
    listing = capsys.readouterr().out.splitlines()
    experiments = [line for line in listing if "experiment" in line]
    assert len(experiments) == 2
    hashes = [line.split()[0] for line in experiments]

    assert main(["runs", "show", hashes[0], "--store", str(store)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["schema"] == "frfc-runrecord/2"
    assert "git_sha" not in record["identity"]
    assert record["identity"]["config"]["name"] == "FR6"

    assert main(["runs", "diff", hashes[0], hashes[1], "--store", str(store)]) == 0
    diff = capsys.readouterr().out
    assert "mean_latency" in diff and "delta" in diff


@pytest.mark.parametrize("kind", sorted(LEGACY))
def test_records_of_retired_kinds_degrade_loudly(store, capsys, kind):
    # A store an older checkout filled also holds `kind: bench` and
    # `kind: throughput` records (no command writes either any more).  They
    # must degrade loudly, never crash: listed with their hash as records
    # this ledger refuses to read (their schema is `/1`), never replayed, and
    # evicted by `gc`, which leaves the store as the next test expects it.
    legacy = _plant_legacy(store, kind)

    assert main(["runs", "list", "--store", str(store)]) == 0
    listing = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in listing if legacy.stem in line] == [
        [legacy.stem[:12], "CORRUPT"]
    ]
    assert sum("experiment" in line for line in listing) == 2

    legacy.write_text(legacy.read_text().replace(*LEGACY[kind], 1))
    assert main(["runs", "list", "--store", str(store)]) == 0
    assert f"{legacy.stem[:12]}  CORRUPT" in capsys.readouterr().out
    _plant_legacy(store, kind)

    assert main(["runs", "gc", "--store", str(store)]) == 0
    assert "kept 2, evicted 1" in capsys.readouterr().out
    assert not legacy.exists()


def test_the_retired_kind_filter_is_refused(store, capsys):
    # One record kind is left, so there is nothing to filter by.
    for action in ("list", "gc"):
        with pytest.raises(SystemExit) as refused:
            main(["runs", action, "--store", str(store), "--kind", "experiment"])
        assert refused.value.code == 2
        assert "unrecognized arguments: --kind" in capsys.readouterr().err


def test_runs_list_survives_a_reader_that_leaves(store, tmp_path):
    # `frfc runs list --store S | head -1` is how the CI `obs` job picks a
    # record; the lines after the first go to a closed pipe.
    crowded = tmp_path / "runs"
    shutil.copytree(store, crowded)
    _plant_legacy(crowded)  # three records, three lines
    command = [sys.executable, "-m", "repro.harness.runner", "runs", "list", "--store", str(crowded)]
    env = {**os.environ, "PYTHONUNBUFFERED": "1"}  # one write per line

    listing = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert listing.stdout is not None and listing.stderr is not None
    first = listing.stdout.readline()
    listing.stdout.close()
    stderr = listing.stderr.read()
    listing.stderr.close()
    assert listing.wait(timeout=60) in (0, 1)  # 0 when it had finished writing first
    assert b"experiment" in first or b"bench" in first
    assert b"Traceback" not in stderr and b"BrokenPipe" not in stderr

    # The same with the race taken out: the reader is gone before line one.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        gone = subprocess.run(command, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert gone.returncode == 1
    assert gone.stderr == b""


def test_runs_rejects_unknown_and_ambiguous_prefixes(store):
    with pytest.raises(SystemExit, match="no run record"):
        main(["runs", "show", "zzzz", "--store", str(store)])
    with pytest.raises(SystemExit, match="ambiguous"):
        main(["runs", "show", "", "--store", str(store)])
    # The import memo shares the directory but is no record.
    assert (store / "imports.memo").exists()
    with pytest.raises(SystemExit, match="no run record"):
        main(["runs", "show", "imports", "--store", str(store)])


def test_runs_gc_all_empties_the_store(store, capsys):
    # Runs last in the module (alphabetical luck is not relied on: the store
    # fixture is module-scoped but this test only needs *some* records).
    assert main(["runs", "gc", "--store", str(store)]) == 0
    assert "evicted 0" in capsys.readouterr().out  # same checkout: all current
    assert (store / "imports.memo").exists()  # plain gc keeps the import memo
    assert main(["runs", "gc", "--all", "--store", str(store)]) == 0
    assert "kept 0" in capsys.readouterr().out
    assert list(store.iterdir()) == []
    assert main(["runs", "list", "--store", str(store)]) == 0
    assert "no run records" in capsys.readouterr().out
