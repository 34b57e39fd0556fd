"""Shared benchmark utilities.

Every benchmark regenerates one of the paper's tables or figures, asserts
its qualitative shape (who wins, roughly by how much, where the knees fall)
and writes the regenerated rows to ``benchmarks/results/<name>.txt`` so the
numbers recorded in EXPERIMENTS.md can be traced to a run.

Benchmarks default to the ``quick`` measurement preset so the whole suite
finishes in tens of minutes on one core; set ``FRFC_BENCH_PRESET=standard``
(or ``paper``) for higher-fidelity runs of the same code paths.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Loads used for 5-flit latency-throughput curves (fractions of capacity).
LOADS_5FLIT = [0.10, 0.45, 0.63, 0.72, 0.80, 0.87]
#: Loads used for 21-flit curves (saturation comes earlier).
LOADS_21FLIT = [0.10, 0.40, 0.55, 0.62, 0.70]


@pytest.fixture(scope="session")
def preset() -> str:
    """Measurement preset for all benchmarks (env-overridable)."""
    return os.environ.get("FRFC_BENCH_PRESET", "quick")


@pytest.fixture(scope="session")
def record():
    """Write one benchmark's regenerated rows to benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _record

