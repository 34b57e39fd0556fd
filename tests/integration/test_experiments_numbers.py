"""EXPERIMENTS.md quotes only numbers that the committed result rows hold.

Every number in the measured cells of EXPERIMENTS.md's figure, table and
ablation rows must appear in the matching ``benchmarks/results/*.txt``
(``pytest benchmarks/`` writes those files), rounded to the decimals the
prose shows.  A miss names the row and the file, so the prose cannot drift
from the rows it cites.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks" / "results"

NUMBER = re.compile(r"\d+(?:\.\d+)?")

#: Section heading prefix -> (result file, first measured column, columns
#: dropped from the end, row-label prefix to keep or None for every row).
TABLES = {
    "## Table 1": ("table1_storage.txt", 1, 0, "this repo"),
    "## Figure 5": ("fig5_latency_5flit.txt", 0, 0, None),
    "## Figure 9": ("fig9_leading_vs_vc.txt", 0, 0, None),
    "## Table 3": ("table3_summary.txt", 1, 1, None),  # last column: the paper
}

#: Ablation row label prefix -> result file; only the result column counts.
ABLATIONS = {
    "per-flit vs all-or-nothing": "ablation_all_or_nothing.txt",
    "VC shared pool": "ablation_vc_shared_pool.txt",
    "wide control flits": "ablation_wide_control.txt",
    "allocate at reservation vs arrival": "ablation_alloc_policy.txt",
    "wormhole < VC < FR": "ablation_wormhole.txt",
    "single vs multi-ported input buffer": "ablation_read_ports.txt",
}


def _sections(text: str) -> dict[str, list[list[str]]]:
    """Body rows (cells, header and rule skipped) of each section's table."""
    sections: dict[str, list[list[str]]] = {}
    heading = ""
    header_seen = False
    for line in text.splitlines():
        if line.startswith("## "):
            heading, header_seen = line, False
            sections[heading] = []
        elif line.startswith("|") and heading:
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if not header_seen:
                header_seen = True
            elif not set("".join(cells)) <= set("-: "):
                sections[heading].append(cells)
    return sections


def _holds(quoted: str, values: list[str]) -> bool:
    """Whether some value rounds (half up) to ``quoted`` at its decimals."""
    decimals = len(quoted.partition(".")[2])
    half = 0.5 * 10.0**-decimals + 1e-9
    return any(abs(float(value) - float(quoted)) <= half for value in values)


def missing_numbers(text: str, results: Path = RESULTS) -> list[str]:
    """One message per quoted number that its result file does not hold."""
    checks: list[tuple[str, list[str], str]] = []  # (row, measured cells, file)
    for heading, rows in _sections(text).items():
        for prefix, (name, first, dropped, keep) in TABLES.items():
            if heading.startswith(prefix):
                for cells in rows:
                    if keep is None or cells[0].startswith(keep):
                        checks.append((" | ".join(cells), cells[first:len(cells) - dropped], name))
        if heading.startswith("## Section 5 ablations"):
            for cells in rows:
                name = next(f for label, f in ABLATIONS.items() if cells[0].startswith(label))
                checks.append((" | ".join(cells), cells[1:2], name))
    missing = []
    for row, cells, name in checks:
        values = NUMBER.findall((results / name).read_text())
        for cell in cells:
            for quoted in NUMBER.findall(cell):
                if not _holds(quoted, values):
                    missing.append(
                        f"EXPERIMENTS.md row '{row}': {quoted} is not in benchmarks/results/{name}"
                    )
    return missing


def test_every_quoted_number_is_in_its_result_file():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    sections = _sections(text)
    for prefix in [*TABLES, "## Section 5 ablations"]:  # a renamed heading must not skip
        assert any(h.startswith(prefix) and rows for h, rows in sections.items()), prefix
    assert missing_numbers(text) == []


def test_a_drifted_number_names_its_row_and_file():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    drifted = text.replace("| 0.45 | 38.2 | 38.4 | 33.1 | 33.2 |", "| 0.45 | 38.2 | 38.4 | 33.7 | 33.2 |")
    assert drifted != text
    assert missing_numbers(drifted) == [
        "EXPERIMENTS.md row '0.45 | 38.2 | 38.4 | 33.7 | 33.2': 33.7 is not in "
        "benchmarks/results/fig5_latency_5flit.txt"
    ]
