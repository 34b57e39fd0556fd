"""The replay witness: a point is a pure function of (config, seed, load).

On the shipped tree every row replays to one digest.  Each seeded mutant is
written into a temporary copy of ``src/`` and the witness runs from there,
so its fresh interpreters import the mutant too; a mutant must fail exactly
the rows it reaches, and through the legs that can see it (the mutant table
in ``docs/static-analysis.md`` has all six).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.permute import (
    SHIPPED_CONFIGS,
    SWEEP_ROW,
    ReplayReport,
    _child_digest,
    replay_digest,
    run_replay_witness,
)

SRC = Path(__file__).resolve().parents[2] / "src"

#: name -> (file under src/repro, [(old, new), ...]).
MUTANTS = {
    # A string set orders the output ports whose VCs are allocated (and so
    # shuffled) first: only a different hash seed reorders it.
    "set-order": (
        "baselines/vc/router.py",
        [
            (
                "NUM_PORTS = 5  # north, east, south, west, local\n",
                "NUM_PORTS = 5  # north, east, south, west, local\n"
                '_PORT_NAMES = ("north", "east", "south", "west", "local")\n',
            ),
            (
                "            for out_port, requesters in requests.items():\n"
                "                self._allocate_vcs(out_port, requesters)\n",
                "            names = {_PORT_NAMES[out_port] for out_port in requests}\n"
                "            for name in names:\n"
                "                out_port = _PORT_NAMES.index(name)\n"
                "                self._allocate_vcs(out_port, requests[out_port])\n",
            ),
        ],
    ),
    # Switch requesters ordered by their head flits' addresses before the
    # seeded arbitration shuffle; the static prover passed it (a dict
    # comprehension keyed by id(), read back through a plain name).
    "id-keyed": (
        "baselines/vc/router.py",
        [
            (
                "            candidates = self.rng.shuffled(candidates)\n",
                "            heads = {id(self.in_queues[port][vc][0]): (port, vc, out_port) "
                "for port, vc, out_port in candidates}\n"
                "            candidates = self.rng.shuffled(\n"
                "                [heads[key] for key in sorted(heads)])\n",
            ),
        ],
    ),
    # A module-level memo of each (router, output)'s first VC draw: every
    # later point in the process inherits the first point's choices.
    "memo": (
        "core/router.py",
        [
            (
                "NUM_PORTS = 5  # north, east, south, west, local\n",
                "NUM_PORTS = 5  # north, east, south, west, local\n"
                "_PREFERRED_VC: dict[tuple[int, int], int] = {}\n",
            ),
            (
                "            out_vc = candidates[0] if len(candidates) == 1 "
                "else self.rng.choice(candidates)\n",
                "            out_vc = candidates[0] if len(candidates) == 1 else "
                "_PREFERRED_VC.setdefault(\n"
                "                (self.node, out_port), self.rng.choice(candidates))\n"
                "            if out_vc not in candidates:\n"
                "                out_vc = candidates[0]\n",
            ),
        ],
    ),
}

#: Prints each row's leg digests from whichever ``repro`` is on the path.
_RUN_WITNESS = (
    "import json; from repro.analysis.permute import run_replay_witness; "
    "print(json.dumps({r.row: [d for _, d in r.legs] for r in run_replay_witness()}))"
)


def _witness_on_mutant(tmp_path: Path, name: str) -> dict[str, list[str]]:
    """The witness's leg digests per row, run on a copy of ``src/`` with
    mutant ``name`` applied; only the rows whose legs disagree are kept."""
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    relative, edits = MUTANTS[name]
    path = copy / "repro" / relative
    text = path.read_text(encoding="utf-8")
    for old, new in edits:
        assert text.count(old) == 1, f"{old!r} not found once in {relative}"
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")
    # A fixed hash seed here too, so the in-process legs are reproducible.
    env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONHASHSEED": "0"}
    result = subprocess.run(
        [sys.executable, "-c", _RUN_WITNESS], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    rows = json.loads(result.stdout)
    return {row: legs for row, legs in rows.items() if len(set(legs)) > 1}


class TestShippedTreeReplays:
    @pytest.fixture(scope="class")
    def reports(self):
        return run_replay_witness()

    def test_every_row_replays_to_one_digest(self, reports):
        assert [report.row for report in reports] == ["FR6", "VC8", "WH8", SWEEP_ROW]
        for report in reports:
            assert report.identical, report.format()

    def test_four_legs_two_of_them_fresh_interpreters(self, reports):
        for report in reports:
            assert [label for label, _ in report.legs] == [
                "after seed 8",
                "again",
                "PYTHONHASHSEED=1",
                "PYTHONHASHSEED=2",
            ]
            assert all(len(digest) == 64 for _, digest in report.legs)


class TestWitnessIsNotVacuous:
    def test_models_digest_apart(self):
        digests = {replay_digest(config.name, 0.3, 7, 200, 4, 4) for config in SHIPPED_CONFIGS}
        assert len(digests) == len(SHIPPED_CONFIGS)

    def test_loads_digest_apart(self):
        for config in SHIPPED_CONFIGS:
            low = replay_digest(config.name, 0.3, 7, 200, 4, 4)
            assert low != replay_digest(config.name, 0.5, 7, 200, 4, 4), config.name

    def test_divergence_names_the_row(self):
        report = ReplayReport(
            row="FR6", legs=(("again", "a" * 64), ("PYTHONHASHSEED=1", "b" * 64))
        )
        assert not report.identical
        assert "DIVERGED: FR6" in report.format()

    def test_a_failed_interpreter_is_a_divergence(self):
        child = subprocess.Popen(
            [sys.executable, "-c", "raise SystemExit('boom')"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert _child_digest(child) == "exit 1: boom"


class TestSeededMutantsAreKilled:
    def test_set_order_is_killed_by_the_hash_seed_legs_alone(self, tmp_path):
        diverged = _witness_on_mutant(tmp_path, "set-order")
        assert set(diverged) == {"VC8"}
        after_other, again, seed_one, seed_two = diverged["VC8"]
        assert after_other == again  # one process, one hash seed: one order
        assert seed_one != seed_two

    def test_id_keyed_order_is_killed(self, tmp_path):
        # The mutant the static prover's committed-baseline gate passed.
        assert set(_witness_on_mutant(tmp_path, "id-keyed")) == {"VC8", "WH8"}

    def test_module_memo_is_killed_by_the_fresh_interpreters(self, tmp_path):
        diverged = _witness_on_mutant(tmp_path, "memo")
        assert set(diverged) == {"FR6", SWEEP_ROW}
        for after_other, again, seed_one, seed_two in diverged.values():
            # Both in-process legs inherit the memo; both fresh ones start empty.
            assert after_other == again != seed_one == seed_two
