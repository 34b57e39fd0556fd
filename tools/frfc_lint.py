#!/usr/bin/env python
"""Command-line front end for frfc-lint, the simulator-specific linter.

Usage::

    python tools/frfc_lint.py src/repro          # lint the whole tree
    python tools/frfc_lint.py --list-rules       # print the rule catalogue

Exit status is 0 when no findings survive suppression, 1 otherwise, so the
script slots directly into CI.  The repository's own ``src`` directory is
put on ``sys.path`` automatically; no installation is required.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _bootstrap_path() -> None:
    src = Path(__file__).resolve().parent.parent / "src"
    if src.is_dir() and str(src) not in sys.path:
        sys.path.insert(0, str(src))


def main(argv: list[str] | None = None) -> int:
    _bootstrap_path()
    from repro.lint.engine import lint_paths
    from repro.lint.rules import ALL_RULES

    parser = argparse.ArgumentParser(
        prog="frfc-lint",
        description="Simulator-specific static analysis (--list-rules prints the catalogue).",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.summary}")
        return 0
    if not args.paths:
        parser.error("no paths given (try: python tools/frfc_lint.py src/repro)")

    findings = lint_paths(args.paths)
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"frfc-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
