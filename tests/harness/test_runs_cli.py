"""The `frfc` CLI surface of the run ledger: --ledger sweeps and `frfc runs`.

One cold attributed-free sweep (two quick FR6 points) is recorded into a
module-scoped store; every test below replays or inspects it, so the CLI
suite pays for simulation exactly once.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.runner import main

LOADS = "0.2,0.3"


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
    assert record["schema"] == "frfc-runrecord/1"
    assert record["identity"]["config"]["name"] == "FR6"

    assert main(["runs", "diff", hashes[0], hashes[1], "--store", str(store)]) == 0
    diff = capsys.readouterr().out
    assert "mean_latency" in diff and "delta" in diff


def test_runs_list_kind_filter(store, capsys):
    # Drop a bench-gate record into the experiment store, as the bench gate
    # itself would, then check each filter sees only its own kind.
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(store)
    identity = ledger.bench_identity(
        model="FR",
        workload={"label": "gate", "config": "FR6", "offered_load": 0.2,
                  "preset": "quick", "seed": 1},
    )
    ledger.record_bench(identity, {"cycles": 100})

    assert main(["runs", "list", "--store", str(store)]) == 0
    unfiltered = capsys.readouterr().out.splitlines()
    assert any("bench" in line for line in unfiltered)
    assert any("experiment" in line for line in unfiltered)

    assert main(["runs", "list", "--store", str(store), "--kind", "experiment"]) == 0
    experiments = capsys.readouterr().out.splitlines()
    assert len(experiments) == 2
    assert all("experiment" in line for line in experiments)

    assert main(["runs", "list", "--store", str(store), "--kind", "bench"]) == 0
    benches = capsys.readouterr().out.splitlines()
    assert len(benches) == 1 and "bench" in benches[0]

    assert main(["runs", "list", "--store", str(store), "--kind", "throughput"]) == 0
    assert "no throughput records" in capsys.readouterr().out

    with pytest.raises(SystemExit, match="list"):
        main(["runs", "gc", "--store", str(store), "--kind", "bench"])


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
