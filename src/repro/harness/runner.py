"""Command-line front end: ``frfc`` (flit-reservation flow control).

Examples::

    frfc table1                     # storage overhead (instant, analytical)
    frfc table2                     # bandwidth overhead (instant)
    frfc table3 --preset quick      # the experimental summary
    frfc figure 5 --preset standard # latency-throughput curves
    frfc point FR6 0.5              # one experiment point
    frfc saturate VC8               # saturation throughput search
    frfc occupancy                  # Section 4.2 study
    frfc lead                       # Section 4.4 study
    frfc sweep FR6 --loads 0.1,0.5  # latency-throughput curve
    frfc trace FR6 --packet 3       # one packet's event timeline
    frfc trace VC8 --packet 3       # works for every flow control scheme
    frfc utilization FR6 0.6        # per-channel busy fractions
    frfc obs FR6 0.5 --preset quick --trace-out t.json --metrics-out m.csv \
        --profile                   # fully observed run with exports
    frfc attribute FR6 0.5 --versus VC8 --preset quick
                                    # where does each cycle of latency go?
    frfc heatmap FR6 0.85 --metric reservation_occupancy --preset quick
                                    # where is the mesh congested?
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.obs.ledger import RunLedger
    from repro.obs.progress import ProgressReporter
    from repro.obs.report import AttributionSummary
    from repro.obs.session import ObsSession

from repro.baselines.vc.config import VC8, VC16, VC32
from repro.baselines.wormhole.network import WormholeConfig
from repro.core.config import FR6, FR13
from repro.harness import figures as figures_module
from repro.harness.experiment import AnyConfig, run_experiment
from repro.harness.saturation import find_saturation
from repro.harness.tables import format_table1, format_table2, table1, table2, table3
from repro.harness.sweep import run_load_sweep
from repro.sim.invariants import InvariantChecker

CONFIGS: dict[str, AnyConfig] = {
    "VC8": VC8,
    "VC16": VC16,
    "VC32": VC32,
    "FR6": FR6,
    "FR13": FR13,
    "WH8": WormholeConfig(buffers_per_input=8),
}

FIGURES: dict[str, Callable[..., figures_module.FigureResult]] = {
    "5": figures_module.figure5,
    "6": figures_module.figure6,
    "7": figures_module.figure7,
    "8": figures_module.figure8,
    "9": figures_module.figure9,
}


def _config(name: str) -> AnyConfig:
    try:
        return CONFIGS[name.upper()]
    except KeyError:
        known = ", ".join(sorted(CONFIGS))
        raise SystemExit(f"unknown configuration {name!r}; known: {known}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="frfc",
        description="Flit-reservation flow control (HPCA 2000) reproduction harness",
    )
    parser.add_argument("--preset", default="standard", help="quick|standard|paper")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="run sanitized: verify conservation laws after every cycle and "
        "abort on the first violation (see docs/invariants.md)",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="before running, prove the routing deadlock-free (CDG), the "
        "network phase loops race-free, and the run_experiment/run_load_sweep "
        "entry points isolation-certified (see docs/static-analysis.md)",
    )
    obs_flags = parser.add_argument_group(
        "observability", "exports for `obs` and `point` runs (docs/observability.md)"
    )
    obs_flags.add_argument(
        "--trace-out", help="write a Perfetto-loadable Chrome trace-event JSON here"
    )
    obs_flags.add_argument(
        "--metrics-out", help="write the sampled metrics timeseries CSV here"
    )
    obs_flags.add_argument("--events-out", help="write the raw JSONL event log here")
    obs_flags.add_argument(
        "--profile",
        action="store_true",
        help="measure simulator cycles/sec per phase and write BENCH_obs.json",
    )
    obs_flags.add_argument(
        "--attribution-out",
        help="write the per-component latency attribution JSON "
        "(frfc-attribution/1) here; also accepted by `attribute`, `sweep`, "
        "and `saturate`",
    )
    obs_flags.add_argument(
        "--spatial-out",
        help="write the per-coordinate spatial metrics timeseries CSV here",
    )
    obs_flags.add_argument(
        "--heatmap-out",
        help="write the frfc-heatmap/1 mesh heatmap JSON here; `sweep` "
        "writes one frame per load",
    )
    obs_flags.add_argument(
        "--manifest-out",
        default="obs_manifest.json",
        help="run manifest path (config, preset, seed, git SHA)",
    )
    obs_flags.add_argument(
        "--bench-out", default="BENCH_obs.json", help="self-profiling report path"
    )
    obs_flags.add_argument(
        "--sample-every", type=int, default=100, help="metrics sampling cadence in cycles"
    )
    obs_flags.add_argument(
        "--event-capacity",
        type=int,
        default=1_000_000,
        help="keep at most this many events (oldest dropped first; the "
        "manifest reports events_dropped when the bound is hit)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="storage overhead (analytical)")
    sub.add_parser("table2", help="bandwidth overhead (analytical)")
    t3 = sub.add_parser("table3", help="experimental summary")
    t3.add_argument("--no-leading", action="store_true")
    t3.add_argument("--packet-lengths", default="5,21")
    _add_ledger_flags(t3, progress=False, jobs=True)

    fig = sub.add_parser("figure", help="regenerate one figure's curves")
    fig.add_argument("number", choices=sorted(FIGURES))
    _add_ledger_flags(fig, progress=False, jobs=True)

    point = sub.add_parser("point", help="run one (config, load) experiment")
    point.add_argument("config")
    point.add_argument("load", type=float)
    point.add_argument("--packet-length", type=int, default=5)
    point.add_argument(
        "--streaming",
        action="store_true",
        help="collect latency with bounded-memory streaming percentile "
        "sketches instead of storing every sample",
    )
    _add_run_flags(point)
    _add_ledger_flags(point)

    obs = sub.add_parser(
        "obs",
        help="run one observed (config, load) experiment and export artifacts",
    )
    obs.add_argument("config")
    obs.add_argument("load", type=float)
    obs.add_argument("--packet-length", type=int, default=5)
    _add_run_flags(obs)

    attribute = sub.add_parser(
        "attribute",
        help="decompose one (config, load) point's latency into components",
    )
    attribute.add_argument("config")
    attribute.add_argument("load", type=float)
    attribute.add_argument("--packet-length", type=int, default=5)
    attribute.add_argument(
        "--versus",
        help="second configuration measured at the same load and seed, "
        "reported side by side (FR against VC is the paper's comparison)",
    )
    _add_run_flags(attribute)

    sat = sub.add_parser("saturate", help="find saturation throughput")
    sat.add_argument("config")
    sat.add_argument("--packet-length", type=int, default=5)
    sat.add_argument("--low", type=float, default=0.30)
    sat.add_argument("--attribution-out", default=argparse.SUPPRESS)
    _add_ledger_flags(sat)

    sub.add_parser("occupancy", help="Section 4.2 buffer-pool occupancy study")
    sub.add_parser("lead", help="Section 4.4 control-lead study")

    sweep = sub.add_parser("sweep", help="latency-throughput curve for one config")
    sweep.add_argument("config")
    sweep.add_argument("--loads", default="0.1,0.3,0.5,0.63,0.72,0.8")
    sweep.add_argument("--packet-length", type=int, default=5)
    sweep.add_argument("--attribution-out", default=argparse.SUPPRESS)
    sweep.add_argument("--heatmap-out", default=argparse.SUPPRESS)
    _add_ledger_flags(sweep, jobs=True)

    heat = sub.add_parser(
        "heatmap",
        help="render a spatial congestion heatmap for one (config, load) "
        "point, or re-render an existing frfc-heatmap/1 JSON with --from",
    )
    heat.add_argument("config", nargs="?")
    heat.add_argument("load", nargs="?", type=float)
    heat.add_argument("--packet-length", type=int, default=5)
    heat.add_argument(
        "--metric",
        default="buffer_occupancy",
        help="node metric to render (buffer_occupancy, reservation_occupancy, "
        "injection_backpressure, credit_stalls)",
    )
    heat.add_argument(
        "--at",
        type=int,
        default=None,
        metavar="CYCLE",
        help="render the single sampled window containing this cycle",
    )
    heat.add_argument(
        "--window",
        default=None,
        metavar="A:B",
        help="aggregate the sampled rows inside the half-open window [A, B) "
        "(default: the measurement window)",
    )
    heat.add_argument(
        "--top", type=int, default=5, help="hotspot count to report per frame"
    )
    heat.add_argument(
        "--frame", type=int, default=0, help="frame index for multi-frame payloads"
    )
    heat.add_argument("--json-out", help="also write the frfc-heatmap/1 JSON here")
    heat.add_argument("--svg-out", help="also write an SVG rendering here")
    heat.add_argument(
        "--from",
        dest="from_file",
        default=None,
        metavar="JSON",
        help="re-render an existing frfc-heatmap/1 payload instead of simulating",
    )
    _add_run_flags(heat)

    trace = sub.add_parser("trace", help="print one packet's event timeline")
    trace.add_argument("config")
    trace.add_argument("--load", type=float, default=0.3)
    trace.add_argument("--packet", type=int, default=1)
    trace.add_argument("--cycles", type=int, default=400)

    util = sub.add_parser("utilization", help="per-channel busy fractions")
    util.add_argument("config")
    util.add_argument("load", type=float)
    util.add_argument("--cycles", type=int, default=2000)

    bench = sub.add_parser(
        "bench",
        help="record or check the committed simulator-speed baselines "
        "(wraps tools/bench_gate.py; see docs/performance.md)",
    )
    bench.add_argument("action", choices=["record", "check"])
    bench.add_argument(
        "--min-ratio",
        type=float,
        default=None,
        help="for `check`: fail when fresh/baseline cycles/sec falls below this",
    )
    bench.add_argument(
        "--models",
        action="store_true",
        help="for `check`: also gate the per-model quick points "
        "(VC8, WH8, FR6 on 16x16)",
    )

    runs = sub.add_parser(
        "runs",
        help="inspect the content-addressed run ledger "
        "(list / show HASH / diff A B / gc; see docs/observability.md)",
    )
    runs.add_argument("action", choices=["list", "show", "diff", "gc"])
    runs.add_argument(
        "hashes",
        nargs="*",
        help="record identity-hash prefixes (`show` takes one, `diff` two)",
    )
    runs.add_argument(
        "--store", default=".frfc/runs", help="ledger directory (default .frfc/runs)"
    )
    runs.add_argument(
        "--all",
        dest="gc_all",
        action="store_true",
        help="for `gc`: evict every record, not just stale/corrupt ones",
    )
    runs.add_argument(
        "--kind",
        choices=["experiment", "throughput", "bench"],
        default=None,
        help="for `list`: show only records of this kind (bench-gate entries "
        "otherwise drown sweep records)",
    )

    args = parser.parse_args(argv)
    if args.analyze:
        _run_analysis_gates()
    wants_exports = bool(
        args.trace_out
        or args.metrics_out
        or args.events_out
        or args.profile
        or args.spatial_out
    )
    wants_attribution = getattr(args, "attribution_out", None) is not None
    wants_heatmap = getattr(args, "heatmap_out", None) is not None
    if wants_exports and args.command not in ("point", "obs", "attribute"):
        raise SystemExit(
            "--trace-out/--metrics-out/--events-out/--profile/--spatial-out "
            "apply to the `obs`, `point`, and `attribute` commands only"
        )
    if wants_attribution and args.command not in (
        "point",
        "obs",
        "attribute",
        "sweep",
        "saturate",
    ):
        raise SystemExit(
            "--attribution-out applies to the `point`, `obs`, `attribute`, "
            "`sweep`, and `saturate` commands only"
        )
    if wants_heatmap and args.command not in ("point", "obs", "sweep"):
        raise SystemExit(
            "--heatmap-out applies to the `point`, `obs`, and `sweep` "
            "commands only (`heatmap` renders directly)"
        )
    wants_obs = wants_exports or wants_attribution or wants_heatmap
    if args.command == "table1":
        print(format_table1(table1()))
    elif args.command == "table2":
        print(format_table2(table2()))
    elif args.command == "table3":
        lengths = tuple(int(x) for x in args.packet_lengths.split(","))
        ledger = _ledger(args)
        result = table3(
            preset=args.preset,
            seed=args.seed,
            packet_lengths=lengths,
            include_leading=not args.no_leading,
            check_invariants=args.check_invariants,
            ledger=ledger,
            jobs=args.jobs,
        )
        print(result.format())
        _report_ledger(ledger)
    elif args.command == "figure":
        ledger = _ledger(args)
        result = FIGURES[args.number](
            preset=args.preset,
            seed=args.seed,
            check_invariants=args.check_invariants,
            ledger=ledger,
            jobs=args.jobs,
        )
        print(result.format())
        _report_ledger(ledger)
    elif args.command == "point":
        session = _obs_session(args) if wants_obs else None
        ledger = _ledger(args)
        progress = _progress(args, label=args.config.upper())
        if progress is not None:
            if session is None:
                session = _point_obs_session(progress)
            else:
                session.progress = progress
            progress.begin_point(index=1, total=1, label=f"load={args.load:.2f}")
        result = run_experiment(
            _config(args.config),
            args.load,
            packet_length=args.packet_length,
            seed=args.seed,
            preset=args.preset,
            streaming=args.streaming,
            check_invariants=args.check_invariants,
            obs=session,
            ledger=ledger,
        )
        replayed = ledger is not None and ledger.last_hit
        if progress is not None:
            progress.end_point(cache_hit=replayed, summary=result.summary())
        print(result.summary())
        if session is not None and not replayed:
            _finalize_obs(session, args, argv)
        _report_ledger(ledger)
    elif args.command == "obs":
        session = _obs_session(args, defaults=True)
        result = run_experiment(
            _config(args.config),
            args.load,
            packet_length=args.packet_length,
            seed=args.seed,
            preset=args.preset,
            check_invariants=args.check_invariants,
            obs=session,
        )
        print(result.summary())
        _finalize_obs(session, args, argv)
    elif args.command == "attribute":
        _attribute(args, argv)
    elif args.command == "saturate":
        ledger = _ledger(args)
        progress = _progress(args, label=args.config.upper())
        result = find_saturation(
            _config(args.config),
            packet_length=args.packet_length,
            seed=args.seed,
            preset=args.preset,
            low=args.low,
            check_invariants=args.check_invariants,
            attribute=wants_attribution,
            ledger=ledger,
            progress=progress,
        )
        if progress is not None:
            progress.close(f"knee {result.knee:.2f}")
        print(
            f"{result.config_name}: saturation {result.saturation * 100:.0f}% of "
            f"capacity (knee {result.knee:.2f}, plateau {result.plateau:.2f})"
        )
        for offered, accepted in result.probes:
            print(f"  offered {offered:.3f} -> accepted {accepted:.3f}")
        if wants_attribution:
            _write_attribution(result.attribution, args)
        _report_ledger(ledger)
    elif args.command == "occupancy":
        result = figures_module.section42_occupancy(
            preset=args.preset, seed=args.seed, check_invariants=args.check_invariants
        )
        print(result.format())
    elif args.command == "lead":
        result = figures_module.section44_control_lead(
            preset=args.preset, seed=args.seed, check_invariants=args.check_invariants
        )
        print(result.format())
    elif args.command == "sweep":
        loads = [float(x) for x in args.loads.split(",")]
        ledger = _ledger(args)
        progress = _progress(args, label=args.config.upper())
        sweep_result = run_load_sweep(
            _config(args.config),
            loads,
            packet_length=args.packet_length,
            seed=args.seed,
            preset=args.preset,
            check_invariants=args.check_invariants,
            attribute=wants_attribution,
            ledger=ledger,
            progress=progress,
            heatmap_out=getattr(args, "heatmap_out", None),
            jobs=args.jobs,
        )
        if progress is not None:
            progress.close(
                f"{sweep_result.cache_hits()}/{len(sweep_result.telemetry)} cache hits"
            )
        print(sweep_result.format_table())
        if wants_heatmap:
            print(f"  heatmap: {args.heatmap_out}")
        if wants_attribution:
            _write_attribution(sweep_result.attribution, args)
        # Sweep health (per-point cache/drops/phase timings) goes to stderr so
        # stdout stays byte-comparable between cold and warm ledger runs.
        if sweep_result.telemetry:
            sys.stderr.write(sweep_result.format_health() + "\n")
        _report_ledger(ledger)
    elif args.command == "heatmap":
        return _heatmap(args, argv)
    elif args.command == "trace":
        print(_trace(args))
    elif args.command == "utilization":
        print(_utilization(args))
    elif args.command == "bench":
        return _bench(args)
    elif args.command == "runs":
        return _runs(args)
    return 0


def _add_run_flags(subparser: argparse.ArgumentParser) -> None:
    """Let `point`/`obs` take the global run flags *after* the subcommand.

    Defaults are suppressed so a flag given before the subcommand (the
    historical position) is not clobbered by the subparser's default.
    """
    suppress = argparse.SUPPRESS
    subparser.add_argument("--preset", default=suppress)
    subparser.add_argument("--seed", type=int, default=suppress)
    subparser.add_argument("--check-invariants", action="store_true", default=suppress)
    subparser.add_argument("--trace-out", default=suppress)
    subparser.add_argument("--metrics-out", default=suppress)
    subparser.add_argument("--events-out", default=suppress)
    subparser.add_argument("--profile", action="store_true", default=suppress)
    subparser.add_argument("--attribution-out", default=suppress)
    subparser.add_argument("--spatial-out", default=suppress)
    subparser.add_argument("--heatmap-out", default=suppress)
    subparser.add_argument("--manifest-out", default=suppress)
    subparser.add_argument("--bench-out", default=suppress)
    subparser.add_argument("--sample-every", type=int, default=suppress)
    subparser.add_argument("--event-capacity", type=int, default=suppress)


def _add_ledger_flags(
    subparser: argparse.ArgumentParser, progress: bool = True, jobs: bool = False
) -> None:
    """`--ledger [DIR]`, plus `--progress-out` (point/sweep/saturate) and
    `--jobs N` (sweep/figure/table3) where they apply."""
    subparser.add_argument(
        "--ledger",
        nargs="?",
        const=".frfc/runs",
        default=None,
        metavar="DIR",
        help="consult/record the content-addressed run ledger before "
        "simulating (verified hits replay byte-identically; default store "
        ".frfc/runs)",
    )
    if progress:
        subparser.add_argument(
            "--progress-out",
            default=None,
            metavar="JSONL",
            help="append machine-readable heartbeat telemetry here (stderr gets "
            "the human lines either way once progress is on)",
        )
    if jobs:
        subparser.add_argument(
            "--jobs",
            type=int,
            default=None,
            metavar="N",
            help="with --ledger: simulate cold points in N worker processes, "
            "then replay them (default: one per cold point up to the CPUs "
            "available; 1 = in-process; output is identical either way)",
        )


def _ledger(args: argparse.Namespace) -> "RunLedger | None":
    store = getattr(args, "ledger", None)
    if store is None:
        if getattr(args, "jobs", None) is not None:
            raise SystemExit("--jobs needs --ledger: workers hand results over as run records")
        return None
    from repro.obs.ledger import RunLedger

    return RunLedger(store)


def _progress(args: argparse.Namespace, label: str) -> "ProgressReporter | None":
    """A heartbeat reporter when --progress-out or --ledger asked for one."""
    jsonl_out = getattr(args, "progress_out", None)
    if jsonl_out is None and getattr(args, "ledger", None) is None:
        return None
    from repro.obs.progress import ProgressReporter

    return ProgressReporter(jsonl_out=jsonl_out or "", label=label)


def _point_obs_session(progress: "ProgressReporter") -> "ObsSession":
    """A minimal session that only carries the progress hook for `point`."""
    from repro.obs.session import ObsSession

    return ObsSession(manifest_out="", bench_out="", progress=progress)


def _report_ledger(ledger: "RunLedger | None") -> None:
    """One stderr line of cache telemetry (stdout stays byte-comparable)."""
    if ledger is not None and ledger.consulted:
        sys.stderr.write(ledger.summary() + "\n")


def _runs(args: argparse.Namespace) -> int:
    """Run `frfc runs`: list / show / diff / gc over one ledger store."""
    from repro.obs.ledger import (
        LedgerError,
        RunLedger,
        describe_record,
        format_run_diff,
    )

    if args.kind is not None and args.action != "list":
        raise SystemExit("--kind applies to `frfc runs list` only")
    ledger = RunLedger(args.store)
    try:
        if args.action == "list":
            records, corrupt = ledger.scan(kind=args.kind)
            if not records and not corrupt:
                where = f"no run records in {ledger.root}"
                if args.kind is not None:
                    where = f"no {args.kind} records in {ledger.root}"
                print(where)
                return 0
            for record in records:
                print(describe_record(record))
            for path in corrupt:
                print(f"{path.stem[:12]}  CORRUPT     (refusing to read {path.name})")
        elif args.action == "show":
            if len(args.hashes) != 1:
                raise SystemExit("`frfc runs show` takes exactly one record hash")
            record = ledger.load(ledger.resolve(args.hashes[0]))
            import json as json_module

            print(json_module.dumps(record, indent=2, sort_keys=True))
        elif args.action == "diff":
            if len(args.hashes) != 2:
                raise SystemExit("`frfc runs diff` takes exactly two record hashes")
            record_a = ledger.load(ledger.resolve(args.hashes[0]))
            record_b = ledger.load(ledger.resolve(args.hashes[1]))
            print(format_run_diff(record_a, record_b))
        elif args.action == "gc":
            kept, evicted = ledger.gc(wipe_all=args.gc_all)
            print(f"{ledger.root}: kept {kept}, evicted {evicted}")
    except LedgerError as error:
        raise SystemExit(f"frfc runs: {error}")
    return 0


def _checker(args: argparse.Namespace) -> InvariantChecker | None:
    return InvariantChecker() if args.check_invariants else None


def _obs_session(args: argparse.Namespace, defaults: bool = False) -> "ObsSession":
    """Build the observability session the flags describe.

    The ``obs`` subcommand (``defaults=True``) always produces a Chrome
    trace, a metrics CSV, and a profile, so a bare ``frfc obs FR6 0.5``
    yields the full artifact set; ``point`` exports only what was asked.
    """
    from repro.obs.session import ObsSession

    trace_out = args.trace_out
    metrics_out = args.metrics_out
    profile = args.profile
    if defaults:
        trace_out = trace_out or "obs_trace.json"
        metrics_out = metrics_out or "obs_metrics.csv"
        profile = True
    return ObsSession(
        events_out=args.events_out,
        trace_out=trace_out,
        metrics_out=metrics_out,
        spatial_out=args.spatial_out,
        heatmap_out=getattr(args, "heatmap_out", None),
        profile=profile,
        attribution_out=args.attribution_out,
        manifest_out=args.manifest_out,
        bench_out=args.bench_out,
        sample_every=args.sample_every,
        capacity=args.event_capacity,
    )


def _finalize_obs(
    session: "ObsSession", args: argparse.Namespace, argv: list[str] | None
) -> None:
    """Write the session's artifacts and report where they went."""
    artifacts = session.finalize(
        config=_config(args.config),
        seed=args.seed,
        preset=args.preset,
        offered_load=args.load,
        packet_length=args.packet_length,
        command="frfc " + " ".join(argv if argv is not None else sys.argv[1:]),
    )
    for kind in sorted(artifacts):
        print(f"  {kind}: {artifacts[kind]}")
    if session.profiler is not None:
        print(f"  simulator: {session.profiler.cycles_per_second:,.0f} cycles/sec")


def _parse_window(spec: str) -> tuple[int, int]:
    """Parse ``A:B`` into the half-open cycle window (A, B)."""
    parts = spec.split(":")
    try:
        start, end = (int(part) for part in parts)
    except ValueError:
        raise SystemExit(f"--window takes A:B cycle bounds, got {spec!r}")
    if start >= end:
        raise SystemExit(f"--window must be half-open [A, B) with A < B, got {spec!r}")
    return start, end


def _heatmap(args: argparse.Namespace, argv: list[str] | None) -> int:
    """Run `frfc heatmap`: simulate (or load) a payload and render it."""
    from repro.obs.heatmap import (
        HeatmapError,
        build_heatmap,
        format_hotspots,
        render_ascii,
        render_svg,
        validate_heatmap,
        write_heatmap_json,
    )

    window = _parse_window(args.window) if args.window else None
    try:
        if args.from_file:
            import json as json_module

            with open(args.from_file, encoding="utf-8") as handle:
                payload = json_module.load(handle)
            validate_heatmap(payload)
        else:
            if args.config is None or args.load is None:
                raise SystemExit(
                    "frfc heatmap needs CFG LOAD to simulate (or --from FILE "
                    "to re-render an existing payload)"
                )
            from repro.obs.session import ObsSession

            session = ObsSession(
                heatmap_out="",
                manifest_out="",
                bench_out="",
                sample_every=args.sample_every,
            )
            result = run_experiment(
                _config(args.config),
                args.load,
                packet_length=args.packet_length,
                seed=args.seed,
                preset=args.preset,
                check_invariants=args.check_invariants,
                obs=session,
            )
            print(result.summary())
            registry = session.spatial
            if registry is None or registry.network is None or not registry.samples:
                raise SystemExit("frfc heatmap: the run sampled no spatial rows")
            select = window
            if select is None and args.at is None:
                # Default to the measurement window, like the session export.
                select = session.window
                if select is not None and not registry.rows_in_window(*select):
                    select = None
            payload = build_heatmap(
                registry,
                registry.network.mesh,
                label=f"{result.config_name} load={args.load:.2f}",
                window=select,
                at=args.at,
                top_k=args.top,
                context={
                    "seed": args.seed,
                    "preset": args.preset,
                    "offered_load": args.load,
                    "packet_length": args.packet_length,
                    "command": "frfc "
                    + " ".join(argv if argv is not None else sys.argv[1:]),
                },
            )
        print(render_ascii(payload, args.metric, frame=args.frame))
        print()
        print(format_hotspots(payload, args.metric, frame=args.frame))
        if args.json_out:
            write_heatmap_json(payload, args.json_out)
            print(f"  heatmap: {args.json_out}")
        if args.svg_out:
            from repro.obs.exporters import atomic_write_text

            atomic_write_text(args.svg_out, render_svg(payload, args.metric, frame=args.frame))
            print(f"  svg: {args.svg_out}")
    except ValueError as error:  # HeatmapError and malformed --from JSON
        raise SystemExit(f"frfc heatmap: {error}")
    except OSError as error:
        raise SystemExit(f"frfc heatmap: {error}")
    return 0


def _attribute(args: argparse.Namespace, argv: list[str] | None) -> None:
    """Run `frfc attribute`: one observed point per config, table + JSON."""
    from repro.obs.report import format_attribution_table, write_attribution_json
    from repro.obs.session import ObsSession

    wants_exports = bool(
        args.trace_out or args.metrics_out or args.events_out or args.profile
    )
    out = args.attribution_out if args.attribution_out is not None else "attribution.json"
    names = [args.config] + ([args.versus] if args.versus else [])
    summaries = []
    for index, name in enumerate(names):
        primary = index == 0
        # The primary config owns the export flags; the --versus run only
        # attributes (attribution_out="" builds the attributor without an
        # auto-written artifact -- one JSON below covers both runs).
        session = ObsSession(
            events_out=args.events_out if primary else None,
            trace_out=args.trace_out if primary else None,
            metrics_out=args.metrics_out if primary else None,
            profile=bool(args.profile) if primary else False,
            attribution_out="",
            manifest_out=args.manifest_out if primary and wants_exports else "",
            bench_out=args.bench_out,
            sample_every=args.sample_every,
            capacity=args.event_capacity,
        )
        result = run_experiment(
            _config(name),
            args.load,
            packet_length=args.packet_length,
            seed=args.seed,
            preset=args.preset,
            check_invariants=args.check_invariants,
            obs=session,
        )
        print(result.summary())
        summary = session.attribution_summary(
            label=f"{result.config_name} load={args.load:.2f}"
        )
        if summary is not None:
            summaries.append(summary)
        if primary and wants_exports:
            _finalize_obs(session, args, argv)
    if not summaries:
        raise SystemExit("no packets were delivered; nothing to attribute")
    print()
    print(format_attribution_table(summaries))
    write_attribution_json(
        summaries,
        out,
        context={
            "seed": args.seed,
            "preset": args.preset,
            "offered_load": args.load,
            "packet_length": args.packet_length,
            "command": "frfc " + " ".join(argv if argv is not None else sys.argv[1:]),
        },
    )
    print(f"  attribution: {out}")


def _write_attribution(
    summaries: list["AttributionSummary"], args: argparse.Namespace
) -> None:
    """Print and write the attribution gathered across a sweep/saturate run."""
    from repro.obs.report import format_attribution_table, write_attribution_json

    if not summaries:
        print("  attribution: no packets were delivered; nothing to attribute")
        return
    print()
    print(format_attribution_table(summaries))
    write_attribution_json(
        summaries,
        args.attribution_out,
        context={"seed": args.seed, "preset": args.preset},
    )
    print(f"  attribution: {args.attribution_out}")


def _load_bench_gate():
    """Load tools/bench_gate.py by file path (it is not part of the package).

    The tool lives outside ``src`` because it owns the committed baseline
    paths; that makes it reachable only from a source checkout.
    """
    import importlib.util
    from pathlib import Path

    tool = Path(__file__).resolve().parents[3] / "tools" / "bench_gate.py"
    if not tool.exists():
        raise SystemExit(
            "frfc bench wraps tools/bench_gate.py, which was not found next "
            "to this package -- run it from a source checkout"
        )
    spec = importlib.util.spec_from_file_location("bench_gate_cli", tool)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(args: argparse.Namespace) -> int:
    """Run `frfc bench`: the trajectory gate (tools/bench_gate.py) by another door."""
    if args.action != "check" and (args.models or args.min_ratio is not None):
        raise SystemExit("--min-ratio/--models apply to `frfc bench check` only")
    argv = [args.action]
    if args.action == "check":
        if args.min_ratio is not None:
            argv += ["--min-ratio", str(args.min_ratio)]
        if args.models:
            argv.append("--models")
    return _load_bench_gate().main(argv)


def _run_analysis_gates() -> None:
    """Abort unless the model passes the static-analysis gates.

    Gate 1: the shipped routing function induces an acyclic channel
    dependency graph on the experiment mesh (deadlock freedom).  Gate 2:
    every network's ``step()`` phase loops are actor-order independent
    (no same-cycle races).  Gate 3: every ``run_experiment``/
    ``run_load_sweep`` entry point certifies isolated -- a pure function
    of (config, seed, load), no shared mutable state, traceable RNG
    provenance, ordered iteration.  All three gates are pure analysis --
    no simulation runs, so the cost is a fraction of a second.
    """
    from repro.analysis import (
        analyze_entry_points,
        analyze_known_networks,
        prove_deadlock_freedom,
    )
    from repro.topology.mesh import Mesh2D
    from repro.topology.routing import DimensionOrderRouting

    mesh = Mesh2D(8, 8)
    cdg = prove_deadlock_freedom(DimensionOrderRouting(mesh), mesh, routing_name="xy")
    if not cdg.deadlock_free:
        raise SystemExit(f"--analyze: routing is not deadlock-free\n{cdg.format()}")
    for report in analyze_known_networks():
        if not report.clean:
            raise SystemExit(f"--analyze: phase races detected\n{report.format()}")
    for entry in analyze_entry_points():
        if entry.findings:
            raise SystemExit(f"--analyze: isolation violated\n{entry.render()}")
    print(
        "analyze: xy routing deadlock-free on 8x8; FR/VC/WH phases race-free; "
        "entry points isolation-certified"
    )


def _trace(args: argparse.Namespace) -> str:
    from repro.harness.experiment import build_network
    from repro.obs.trace import TraceLog
    from repro.sim.kernel import Simulator

    # Tracing rides on the unified event bus, so every flow-control scheme
    # (FR, VC, wormhole) can be traced.
    network = build_network(_config(args.config), args.load, seed=args.seed)
    log = TraceLog().attach(network)
    Simulator(network, checker=_checker(args)).step(args.cycles)
    return log.format_packet(args.packet)


def _utilization(args: argparse.Namespace) -> str:
    from repro.harness.experiment import build_network
    from repro.sim.kernel import Simulator
    from repro.stats.utilization import measure_channel_utilization

    network = build_network(_config(args.config), args.load, seed=args.seed)
    simulator = Simulator(network, checker=_checker(args))
    simulator.step(max(500, args.cycles // 4))  # warm up
    report = measure_channel_utilization(network, simulator, args.cycles)
    return report.format(count=8)


if __name__ == "__main__":
    sys.exit(main())
