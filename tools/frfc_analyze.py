#!/usr/bin/env python
"""Command-line front end for the whole-model analyzers in repro.analysis.

One subcommand, a CI gate (exit 0 = property holds):

``permute``
    Runtime order-permutation differ and replay witness: re-runs one
    seeded workload per shipped model (FR6, VC8, WH8) under the natural
    router evaluation order, its reversal and seeded shuffles, and demands
    bit-identical results; then replays the same point per model, and one
    two-load sweep, after a different point, again, and in two fresh
    interpreters with fixed, distinct ``PYTHONHASHSEED`` values, and demands one
    digest per row.  A mismatch names the model and the diverging runs.

Usage::

    python tools/frfc_analyze.py permute --orders 5 --cycles 400

The repository's own ``src`` directory is put on ``sys.path``
automatically; no installation is required.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _bootstrap_path() -> None:
    src = Path(__file__).resolve().parent.parent / "src"
    if src.is_dir() and str(src) not in sys.path:
        sys.path.insert(0, str(src))


def _parse_mesh(text: str):
    from repro.topology.mesh import Mesh2D

    try:
        width, height = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise SystemExit(
            f"frfc-analyze: bad mesh spec {text!r}; expected WxH"
        ) from None
    try:
        return Mesh2D(width, height)
    except ValueError as error:
        raise SystemExit(f"frfc-analyze: {error}") from None


def _cmd_permute(args: argparse.Namespace) -> int:
    from repro.analysis.permute import (
        SHIPPED_CONFIGS,
        run_permutation_diff,
        run_replay_witness,
    )

    mesh = _parse_mesh(args.mesh)
    dependent = []
    for config in SHIPPED_CONFIGS:
        try:
            report = run_permutation_diff(
                config,
                offered_load=args.load,
                seed=args.seed,
                cycles=args.cycles,
                orders=args.orders,
                mesh=mesh,
                check_invariants=args.check_invariants,
            )
        except ValueError as error:
            raise SystemExit(f"frfc-analyze: {error}") from None
        print(report.format())
        print()
        if not report.identical:
            dependent.append(report.config_name)
    if dependent:
        print(
            f"frfc-analyze: evaluation order changes results in {', '.join(dependent)}",
            file=sys.stderr,
        )
        return 1
    # Bad input has already failed the differ above, with a message.
    diverged = []
    for replay in run_replay_witness(
        offered_load=args.load, seed=args.seed, cycles=args.cycles, mesh=mesh
    ):
        print(replay.format())
        print()
        if not replay.identical:
            diverged.append(replay.row)
    if diverged:
        print(
            f"frfc-analyze: replay diverged in {', '.join(diverged)}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    _bootstrap_path()
    parser = argparse.ArgumentParser(
        prog="frfc-analyze",
        description="Whole-model analysis for the FRFC simulator.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    permute = subparsers.add_parser(
        "permute", help="runtime order-permutation differ and replay witness"
    )
    permute.add_argument("--orders", type=int, default=4, help="evaluation orders")
    permute.add_argument("--cycles", type=int, default=300, help="cycles per run")
    permute.add_argument("--load", type=float, default=0.3, help="offered load")
    permute.add_argument("--seed", type=int, default=7, help="workload seed")
    permute.add_argument("--mesh", default="4x4", help="mesh as WxH (default 4x4)")
    permute.add_argument(
        "--check-invariants",
        action="store_true",
        help="also run the InvariantChecker during each permuted run",
    )
    permute.set_defaults(func=_cmd_permute)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
