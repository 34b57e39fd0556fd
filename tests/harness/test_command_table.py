"""The `frfc` command table, pinned from four sides.

(a) ``fixtures/cli.golden.json`` holds stdout, stderr and the exit code of
    eight invocations **as the pre-table runner produced them** (the commit
    before ``runner.py`` was rebuilt around ``COMMANDS``), so the rebuild is
    proven against the old CLI rather than against itself.  Regenerate with
    ``FRFC_REGEN_GOLDEN=1 pytest tests/harness/test_command_table.py -k regenerate``
    only after an *intentional* change to CLI output, and say so in the
    commit message.
(b) The run flags parse to the same namespace before and after every
    simulating subcommand, and every example in the runner's docstring and
    in the fenced ``bash`` blocks of README.md, docs/performance.md and
    docs/observability.md parses (and every script they run exists).
(c) Every (export flag, command) pair is either honoured -- the artifact
    exists and is non-empty -- or refused in both positions.
(d) No flag is declared at two ``add_argument`` sites.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from repro.harness import runner
from repro.harness.presets import MeasurementPreset
from repro.topology.mesh import Mesh2D

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli.golden.json"
HEATMAP = FIXTURES / "heatmap.json"  # `frfc --preset quick heatmap FR6 0.3 --json-out`

GOLDEN_CASES: dict[str, list[str]] = {
    "table1": ["table1"],
    "table2": ["table2"],
    "point": ["--preset", "quick", "point", "FR6", "0.3"],
    "sweep": ["--preset", "quick", "--seed", "2", "sweep", "FR6", "--loads", "0.1,0.3"],
    "trace": ["trace", "FR6", "--packet", "3"],
    "utilization": ["utilization", "FR6", "0.3", "--cycles", "400"],
    "attribute": ["--preset", "quick", "attribute", "FR6", "0.3", "--versus", "VC8"],
    "heatmap": ["heatmap", "--from", str(HEATMAP)],
}


def _invoke(argv: list[str], capsys) -> dict[str, object]:
    try:
        code = runner.main(argv)
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    return {"exit": code, "stdout": captured.out, "stderr": captured.err}


def test_regenerate_golden(capsys, tmp_path, monkeypatch) -> None:
    if not os.environ.get("FRFC_REGEN_GOLDEN"):
        pytest.skip("set FRFC_REGEN_GOLDEN=1 to rewrite cli.golden.json")
    monkeypatch.chdir(tmp_path)
    golden = {name: _invoke(argv, capsys) for name, argv in GOLDEN_CASES.items()}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_cli_reproduces_the_parent_output(name: str, capsys, tmp_path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)  # `attribute` writes attribution.json beside itself
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _invoke(GOLDEN_CASES[name], capsys) == golden[name]


# -- (b) flag positions ------------------------------------------------------

#: The least each command needs after its name to parse.
MINIMAL: dict[str, list[str]] = {
    "table1": [],
    "table2": [],
    "table3": [],
    "figure": ["5"],
    "point": ["FR6", "0.1"],
    "obs": ["FR6", "0.1"],
    "attribute": ["FR6", "0.1"],
    "saturate": ["VC8"],
    "occupancy": [],
    "lead": [],
    "sweep": ["FR6", "--loads", "0.1"],
    "heatmap": ["FR6", "0.1"],
    "trace": ["FR6"],
    "utilization": ["FR6", "0.3"],
    "runs": ["list"],
}
RUN_FLAGS = ["--preset", "quick", "--seed", "2", "--check-invariants"]
SIMULATING = [name for name, _, flags, _ in runner.COMMANDS if runner._run_flags in flags]


def test_every_command_has_a_minimal_invocation() -> None:
    assert [name for name, *_ in runner.COMMANDS] == list(MINIMAL)
    assert len(runner.COMMANDS) == 15
    assert set(MINIMAL) - set(SIMULATING) == {"table1", "table2", "runs"}


def test_the_retired_bench_command_is_refused(capsys) -> None:
    # Speed is measured by bench/run.py alone (docs/performance.md).
    with pytest.raises(SystemExit) as refused:
        runner.main(["bench", "check"])
    assert refused.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize("command", SIMULATING)
def test_run_flags_parse_alike_before_and_after_the_subcommand(command: str) -> None:
    parser = runner.build_parser()
    before = parser.parse_args(RUN_FLAGS + [command] + MINIMAL[command])
    after = parser.parse_args([command] + MINIMAL[command] + RUN_FLAGS)
    assert (before.preset, before.seed, before.check_invariants) == ("quick", 2, True)
    assert vars(before) == vars(after)


def _frfc_examples(text: str) -> list[list[str]]:
    """The argv of every `frfc ...` line of ``text`` (comments dropped, `\\` joined)."""
    examples: list[list[str]] = []
    pending = ""
    for line in text.splitlines():
        line = line.split("#")[0].rstrip()
        if pending:
            pending += " " + line.strip()
        elif line.strip().startswith("frfc "):
            pending = line.strip()
        if pending.endswith("\\"):
            pending = pending[:-1]
        elif pending:
            examples.append(shlex.split(pending)[1:])
            pending = ""
    return examples


def test_docstring_examples_parse() -> None:
    examples = _frfc_examples(inspect.getdoc(runner) or "")
    assert {argv[0] for argv in examples} >= set(SIMULATING) | {"table1", "table2"}
    parser = runner.build_parser()
    for argv in examples:
        parser.parse_args(argv)  # argparse exits 2 on an example that has rotted


@pytest.mark.parametrize("page", ["README.md", "docs/performance.md", "docs/observability.md"])
def test_documented_commands_exist(page: str) -> None:
    """Inside the pages' fenced ``bash`` blocks, every `frfc ...` line parses
    and every `python tools/x.py` / `python bench/x.py` names a file."""
    root = Path(__file__).parents[2]
    blocks = re.findall(r"^```bash\n(.*?)^```", (root / page).read_text("utf-8"), re.S | re.M)
    parser = runner.build_parser()
    for block in blocks:
        for argv in _frfc_examples(block):
            parser.parse_args(argv)  # exits 2 on a command or flag that is gone
        for script in re.findall(r"python ((?:tools|bench)/\w+\.py)", block):
            assert (root / script).is_file(), f"{page} runs {script}, which does not exist"


# -- (c) export flags: honoured or refused, never ignored --------------------

#: flag -> (value given on the command line, artifact it must leave behind)
EXPORTS: dict[str, tuple[list[str], str]] = {
    "--trace-out": (["t.json"], "t.json"),
    "--metrics-out": (["m.csv"], "m.csv"),
    "--events-out": (["e.jsonl"], "e.jsonl"),
    "--profile": ([], "bench.json"),
    "--spatial-out": (["s.csv"], "s.csv"),
    "--manifest-out": (["manifest.json"], "manifest.json"),
    "--bench-out": (["bench.json"], "bench.json"),
    "--attribution-out": (["a.json"], "a.json"),
    "--heatmap-out": (["h.json"], "h.json"),
}
TINY = MeasurementPreset(
    name="table-test",
    min_warmup=80,
    warmup_window=40,
    max_warmup=200,
    sample_cycles=150,
    drain_cycles=1500,
    throughput_cycles=150,
)


def _declared(flags: tuple) -> set[str]:
    """The option strings a command's flag groups put on its subparser."""
    parser = argparse.ArgumentParser()
    for group in flags:
        group(parser)
    return {option for action in parser._actions for option in action.option_strings}


PAIRS = [
    (flag, name, flag in _declared(flags))
    for name, _, flags, _ in runner.COMMANDS
    for flag in EXPORTS
]


def _shrunk(function):
    """The same harness call on a 4x4 mesh with a seconds-long preset."""
    return lambda *args, **kwargs: function(
        *args, **{**kwargs, "preset": TINY, "mesh": Mesh2D(4, 4)}
    )


@pytest.mark.parametrize("command", sorted({name for _, name, declared in PAIRS if declared}))
def test_declared_export_flags_leave_their_artifacts(
    command: str, capsys, tmp_path, monkeypatch
) -> None:
    monkeypatch.chdir(tmp_path)
    for target in ("run_experiment", "run_load_sweep", "find_saturation"):
        monkeypatch.setattr(runner, target, _shrunk(getattr(runner, target)))
    flags = [flag for flag, name, declared in PAIRS if name == command and declared]
    argv = [command] + MINIMAL[command] + ["--preset", "quick"]
    for flag in flags:
        argv += [flag] + EXPORTS[flag][0]
    assert runner.main(argv) == 0
    capsys.readouterr()
    for flag in flags:
        artifact = tmp_path / EXPORTS[flag][1]
        assert artifact.exists() and artifact.stat().st_size > 0, f"{command} ignored {flag}"


@pytest.mark.parametrize(
    "flag,command", [(flag, name) for flag, name, declared in PAIRS if not declared]
)
def test_undeclared_export_flags_are_refused_in_both_positions(
    flag: str, command: str, capsys, tmp_path, monkeypatch
) -> None:
    monkeypatch.chdir(tmp_path)
    given = [flag] + EXPORTS[flag][0]
    with pytest.raises(SystemExit) as before:
        runner.main(given + [command] + MINIMAL[command])
    assert flag in str(before.value.code) and "commands only" in str(before.value.code)
    with pytest.raises(SystemExit) as after:
        runner.main([command] + MINIMAL[command] + given)
    assert after.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_attribute_honours_spatial_out() -> None:
    # Accepted and silently dropped before the table; now one of the pairs above.
    assert ("--spatial-out", "attribute", True) in PAIRS
    assert ("--heatmap-out", "attribute", False) in PAIRS


def test_documented_matrix_matches_the_table() -> None:
    """docs/observability.md, "Which command takes which flag", row by row."""
    docs = Path(__file__).parents[2] / "docs" / "observability.md"
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in docs.read_text(encoding="utf-8").splitlines()
        if line.startswith("| ") and line.count("|") == 11
    ]
    header, body = rows[0], rows[1:]
    # Each column stands for one flag group; its first flag represents it.
    columns = [re.search(r"`(--[a-z-]+)`", cell).group(1) for cell in header[1:]]
    documented = {
        name: {flag for flag, cell in zip(columns, row[1:]) if cell == "yes"}
        for row in body
        for name in re.findall(r"`(\w+)`", row[0])
    }
    assert documented == {
        name: _declared(flags) & set(columns) for name, _, flags, _ in runner.COMMANDS
    }


# -- (d) one declaration per flag --------------------------------------------


def test_no_flag_is_declared_twice() -> None:
    tree = ast.parse(Path(inspect.getsourcefile(runner)).read_text(encoding="utf-8"))
    sites: dict[str, int] = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            name = node.args[0]
            assert isinstance(name, ast.Constant), "flag names are literals"
            sites[name.value] = sites.get(name.value, 0) + 1
    twice = {name: count for name, count in sites.items() if count > 1}
    # `trace` and `utilization` give --cycles different defaults.
    assert twice == {"--cycles": 2}
    assert sum(sites.values()) <= 55
