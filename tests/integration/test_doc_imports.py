"""Every import a document or example shows must resolve.

The fenced Python of ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md`` and
``docs/*.md``, and every ``examples/*.py``, is parsed with :mod:`ast`; only
its ``import`` statements run, all in one fresh interpreter, so a renamed or
removed name fails here with the ``file:line`` that still spells it.
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

_FENCE = re.compile(r"^\s*```(\w*)\s*$")

#: Runs each ``[location, statement]`` of the JSON on stdin in a fresh
#: namespace and prints one ``location: statement -- error`` per failure.
_CHILD = """
import json, sys
for location, statement in json.load(sys.stdin):
    try:
        exec(compile(statement, location, "exec"), {})
    except Exception as error:
        print(f"{location}: {statement} -- {type(error).__name__}: {error}")
"""


def _imports(source: str, first_line: int, name: str) -> list[tuple[str, str]]:
    """``(file:line, statement)`` for each import in ``source``.

    A fragment that does not parse as a whole (a loop header shown without
    its body) is read line by line, so its one-line imports still count.
    """
    try:
        trees = [(ast.parse(textwrap.dedent(source)), 0)]
    except SyntaxError:
        trees = []
        for offset, line in enumerate(source.splitlines()):
            try:
                trees.append((ast.parse(line.strip()), offset))
            except SyntaxError:
                continue
    return [
        (f"{name}:{first_line + offset + node.lineno - 1}", ast.unparse(node))
        for tree, offset in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def documented_imports() -> list[tuple[str, str]]:
    found: list[tuple[str, str]] = []
    documents = [REPO / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    for path in documents + sorted((REPO / "docs").glob("*.md")):
        name = path.relative_to(REPO).as_posix()
        lines = path.read_text(encoding="utf-8").splitlines()
        index = 0
        while index < len(lines):
            fence = _FENCE.match(lines[index])
            if fence is None:
                index += 1
                continue
            end = index + 1
            while end < len(lines) and not lines[end].lstrip().startswith("```"):
                end += 1
            if fence.group(1) in ("python", "py"):
                found += _imports("\n".join(lines[index + 1 : end]), index + 2, name)
            index = end + 1
    for path in sorted((REPO / "examples").glob("*.py")):
        found += _imports(path.read_text(encoding="utf-8"), 1, path.relative_to(REPO).as_posix())
    return found


def failing_imports(statements: list[tuple[str, str]]) -> list[str]:
    child = subprocess.run(
        [sys.executable, "-c", _CHILD],
        input=json.dumps(statements),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return child.stdout.splitlines()


def test_documented_imports_resolve() -> None:
    statements = documented_imports()
    locations = {location for location, _ in statements}
    # The scan reaches prose and examples alike.
    assert any(location.startswith("docs/observability.md:") for location in locations)
    assert any(location.startswith("examples/quickstart.py:") for location in locations)
    assert failing_imports(statements) == []


def test_a_stale_import_is_named_by_file_and_line() -> None:
    block = "x = 1\nfrom repro.obs import ObsSession\n"
    statements = _imports(block, 40, "docs/observability.md")
    assert statements == [("docs/observability.md:41", "from repro.obs import ObsSession")]
    [failure] = failing_imports(statements)
    assert failure.startswith("docs/observability.md:41: from repro.obs import ObsSession -- ImportError")
