#!/usr/bin/env python
"""Command-line front end for the whole-model analyzers in repro.analysis.

Three subcommands, each a CI gate (exit 0 = property holds):

``cdg``
    Channel-dependency-graph deadlock prover.  With no arguments it runs
    the full self-check: certifies the shipped XY routing deadlock-free on
    the 8x8 mesh *and* confirms the prover names a concrete channel cycle
    for both intentionally broken routing fixtures.  ``--routing`` picks a
    single routing function instead.

``permute``
    Runtime order-permutation differ: re-runs one seeded workload per
    shipped model (FR6, VC8, WH8) under the natural router evaluation
    order, its reversal and seeded shuffles, and demands bit-identical
    results; a mismatch names the model and the fields that diverged.

``isolation``
    Whole-program determinism & isolation prover: certifies each
    ``run_experiment``/``run_load_sweep`` entry point a pure function of
    (config, seed, load) -- shared-mutable-state inventory, RNG seed
    provenance, unordered-iteration detection -- and emits the
    ``frfc-isolation/1`` certificate.  ``--check-budget`` gates fresh
    findings against the committed certificate (``--fail-on-new`` rejects
    any finding absent from it); ``--write-budget`` re-records;
    ``--verify`` replays a quick point per model twice in-process and once
    in a ``spawn``-ed subprocess and requires identical digests.

Usage::

    python tools/frfc_analyze.py cdg
    python tools/frfc_analyze.py cdg --routing yx-mixed --mesh 4x4
    python tools/frfc_analyze.py permute --orders 5 --cycles 400
    python tools/frfc_analyze.py isolation
    python tools/frfc_analyze.py isolation --check-budget \\
        benchmarks/results/ISOLATION_baseline.json --fail-on-new
    python tools/frfc_analyze.py isolation --verify

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


def _make_routing(name: str, mesh):
    from repro.analysis.broken_routing import GreedyDimensionRouting, YXMixedRouting
    from repro.topology.routing import DimensionOrderRouting

    factories = {
        "xy": DimensionOrderRouting,
        "yx-mixed": YXMixedRouting,
        "adaptive-noescape": GreedyDimensionRouting,
    }
    return factories[name](mesh)


def _cmd_cdg(args: argparse.Namespace) -> int:
    from repro.analysis.cdg import prove_deadlock_freedom

    mesh = _parse_mesh(args.mesh)
    if args.routing is not None:
        report = prove_deadlock_freedom(
            _make_routing(args.routing, mesh), mesh, routing_name=args.routing
        )
        print(report.format())
        return 0 if report.deadlock_free else 1

    # Self-check mode: the shipped routing must certify clean AND the
    # prover must demonstrably catch both broken fixtures.
    failures = 0
    for name, expect_free in (
        ("xy", True),
        ("yx-mixed", False),
        ("adaptive-noescape", False),
    ):
        report = prove_deadlock_freedom(
            _make_routing(name, mesh), mesh, routing_name=name
        )
        print(report.format())
        verdict = "deadlock-free" if report.deadlock_free else "deadlock-prone"
        expected = "deadlock-free" if expect_free else "deadlock-prone"
        if report.deadlock_free is expect_free:
            print(f"  OK: {name} is {verdict}, as expected")
        else:
            print(f"  FAIL: {name} is {verdict}, expected {expected}")
            failures += 1
        print()
    return 1 if failures else 0


def _cmd_permute(args: argparse.Namespace) -> int:
    from repro.analysis.permute import SHIPPED_CONFIGS, run_permutation_diff

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
    return 0


def _cmd_isolation(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.isolation import (
        IsolationAnalyzer,
        IsolationError,
        analyze_entry_points,
        build_certificate,
        check_certificate,
        verify_isolation,
    )

    try:
        if args.entry is not None:
            try:
                module, function = args.entry.rsplit(":", 1)
            except ValueError:
                raise SystemExit(
                    f"frfc-analyze: bad entry spec {args.entry!r}; "
                    "expected dotted.module:function"
                ) from None
            reports = [
                IsolationAnalyzer().analyze_entry(args.entry, module, function)
            ]
        else:
            reports = analyze_entry_points()
    except IsolationError as error:
        raise SystemExit(f"frfc-analyze: {error}") from None

    if args.json:
        print(json.dumps(build_certificate(reports), indent=2, sort_keys=True))
    else:
        for report in reports:
            print(report.render())
            print()

    status = 0
    violated = sum(1 for report in reports if report.findings)

    if args.write_budget is not None:
        certificate = build_certificate(reports)
        args.write_budget.parent.mkdir(parents=True, exist_ok=True)
        with open(args.write_budget, "w", encoding="utf-8") as handle:
            json.dump(certificate, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"frfc-analyze: certificate written to {args.write_budget}")

    if args.check_budget is not None:
        if not args.check_budget.exists():
            print(
                f"frfc-analyze: no certificate at {args.check_budget}; "
                "record one with --write-budget",
                file=sys.stderr,
            )
            return 1
        with open(args.check_budget, encoding="utf-8") as handle:
            baseline = json.load(handle)
        violations, notes = check_certificate(
            reports, baseline, fail_on_new=args.fail_on_new
        )
        for note in notes:
            print(f"note: {note}")
        if violations:
            for violation in violations:
                print(f"VIOLATION: {violation}", file=sys.stderr)
            print(
                f"frfc-analyze: {len(violations)} isolation certificate "
                "violation(s); fix the shared state or deliberately "
                "re-record with --write-budget",
                file=sys.stderr,
            )
            status = 1
        else:
            print("frfc-analyze: isolation certificate OK")
    elif args.write_budget is None and violated:
        # Bare run: a VIOLATED entry point is itself the failure.
        print(
            f"frfc-analyze: {violated} entry point(s) VIOLATED",
            file=sys.stderr,
        )
        status = 1

    if args.verify:
        try:
            verdicts = verify_isolation(
                offered_load=args.load, seed=args.seed, cycles=args.cycles
            )
        except ValueError as error:
            raise SystemExit(f"frfc-analyze: {error}") from None
        divergent = 0
        for verdict in verdicts:
            print(verdict.render())
            if not verdict.identical:
                divergent += 1
        if divergent:
            print(
                f"frfc-analyze: {divergent} model(s) diverged between serial "
                "and spawned runs -- hidden process state feeds the simulation",
                file=sys.stderr,
            )
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    _bootstrap_path()
    parser = argparse.ArgumentParser(
        prog="frfc-analyze",
        description="Whole-model analysis for the FRFC simulator.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    cdg = subparsers.add_parser("cdg", help="channel-dependency deadlock prover")
    cdg.add_argument(
        "--routing",
        choices=("xy", "yx-mixed", "adaptive-noescape"),
        default=None,
        help="prove one routing function (default: self-check all three)",
    )
    cdg.add_argument("--mesh", default="8x8", help="mesh as WxH (default 8x8)")
    cdg.set_defaults(func=_cmd_cdg)

    permute = subparsers.add_parser(
        "permute", help="runtime order-permutation differ"
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

    isolation = subparsers.add_parser(
        "isolation", help="whole-program determinism & isolation prover"
    )
    isolation.add_argument(
        "--entry",
        default=None,
        help="analyze one entry point as dotted.module:function "
        "(default: run_experiment per model plus run_load_sweep)",
    )
    isolation.add_argument(
        "--json", action="store_true", help="emit the frfc-isolation/1 certificate"
    )
    isolation.add_argument(
        "--write-budget",
        type=Path,
        default=None,
        metavar="PATH",
        help="record the current findings as the committed certificate",
    )
    isolation.add_argument(
        "--check-budget",
        type=Path,
        default=None,
        metavar="PATH",
        help="fail when a CERTIFIED entry degrades or findings grow past "
        "the committed certificate",
    )
    isolation.add_argument(
        "--fail-on-new",
        action="store_true",
        help="with --check-budget, also fail on any finding not present "
        "in the committed certificate",
    )
    isolation.add_argument(
        "--verify",
        action="store_true",
        help="replay a quick point per model twice in-process and once in "
        "a spawned subprocess; digests must be identical",
    )
    isolation.add_argument("--load", type=float, default=0.3, help="offered load")
    isolation.add_argument("--seed", type=int, default=7, help="workload seed")
    isolation.add_argument(
        "--cycles", type=int, default=400, help="cycles per verify run"
    )
    isolation.set_defaults(func=_cmd_isolation)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
