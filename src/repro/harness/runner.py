"""Command-line front end: ``frfc`` (flit-reservation flow control).

Examples (``tests/harness/test_command_table.py`` parses every one)::

    frfc table1                     # storage overhead (instant, analytical)
    frfc table2                     # bandwidth overhead (instant)
    frfc table3 --preset quick      # the experimental summary
    frfc figure 5 --preset standard # latency-throughput curves
    frfc point FR6 0.5              # one experiment point
    frfc saturate VC8 --seed 2      # saturation throughput search
    frfc occupancy --preset quick   # Section 4.2 study
    frfc lead --preset quick        # Section 4.4 study
    frfc sweep FR6 --loads 0.1,0.5  # latency-throughput curve
    frfc trace FR6 --packet 3       # one packet's event timeline
    frfc trace VC8 --seed 2         # works for every flow control scheme
    frfc utilization FR6 0.6        # per-channel busy fractions
    frfc obs FR6 0.5 --preset quick --trace-out t.json --metrics-out m.csv \
        --profile                   # fully observed run with exports
    frfc attribute FR6 0.5 --versus VC8 --preset quick
                                    # where does each cycle of latency go?
    frfc heatmap FR6 0.85 --metric reservation_occupancy --preset quick
                                    # where is the mesh congested?

Every flag is declared once, in a flag-group function; ``COMMANDS`` says which
groups a subcommand is built with (matrix: docs/observability.md).  The
``ROOT_FLAGS`` groups are also accepted before the subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.harness.experiment import ExperimentResult
    from repro.obs.ledger import RunLedger
    from repro.obs.progress import ProgressReporter
    from repro.obs.report import AttributionSummary
    from repro.obs.session import ObsSession
    from repro.sim.kernel import Simulator
    from repro.sim.netbase import NetworkModel

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


# -- flag groups: the one add_argument site of every flag.  The ROOT_FLAGS groups
# return their actions: `build_parser` suppresses their defaults on a subcommand
# and `main` reads from them which flags were given.


def _run_flags(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [
        parser.add_argument("--preset", default="standard", help="quick|standard|paper"),
        parser.add_argument("--seed", type=int, default=1),
        parser.add_argument(
            "--check-invariants",
            action="store_true",
            help="run sanitized: verify conservation laws after every cycle and "
            "abort on the first violation (see docs/invariants.md)",
        ),
    ]


def _export_flags(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    group = parser.add_argument_group("observability", "exports (docs/observability.md)")
    return [
        group.add_argument(
            "--trace-out", help="write a Perfetto-loadable Chrome trace-event JSON here"
        ),
        group.add_argument("--metrics-out", help="write the sampled metrics timeseries CSV here"),
        group.add_argument("--events-out", help="write the raw JSONL event log here"),
        group.add_argument(
            "--profile",
            action="store_true",
            help="measure simulator cycles/sec per phase and write BENCH_obs.json",
        ),
        group.add_argument(
            "--spatial-out",
            help="write the per-coordinate spatial metrics timeseries CSV here",
        ),
        group.add_argument(
            "--manifest-out",
            default="obs_manifest.json",
            help="run manifest path (config, preset, seed, git SHA)",
        ),
        group.add_argument(
            "--bench-out", default="BENCH_obs.json", help="self-profiling report path"
        ),
        group.add_argument(
            "--event-capacity",
            dest="capacity",  # ObsSession's name for it: see _obs_session
            type=int,
            default=1_000_000,
            help="keep at most this many events (oldest dropped first; the "
            "manifest reports events_dropped when the bound is hit)",
        ),
    ]


def _sampling_flag(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [
        parser.add_argument(
            "--sample-every", type=int, default=100, help="metrics sampling cadence in cycles"
        )
    ]


def _attribution_flag(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [
        parser.add_argument(
            "--attribution-out",
            help="write the per-component latency attribution JSON (frfc-attribution/1) here",
        )
    ]


def _heatmap_flag(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [
        parser.add_argument(
            "--heatmap-out",
            help="write the frfc-heatmap/1 mesh heatmap JSON here; `sweep` "
            "writes one frame per load",
        )
    ]


ROOT_FLAGS = (_run_flags, _export_flags, _sampling_flag, _attribution_flag, _heatmap_flag)


def _ledger_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger",
        nargs="?",
        const=".frfc/runs",
        metavar="DIR",
        help="consult/record the content-addressed run ledger before "
        "simulating (verified hits replay byte-identically; default store "
        ".frfc/runs)",
    )


def _progress_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--progress-out",
        metavar="JSONL",
        help="append machine-readable heartbeat telemetry here (stderr gets "
        "the human lines either way once progress is on)",
    )


def _jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="with --ledger: simulate cold points in N worker processes, "
        "then replay them (default: one per cold point up to the CPUs "
        "available; 1 = in-process; output is identical either way)",
    )


def _point_shape(
    parser: argparse.ArgumentParser,
    load: bool = True,
    packet_length: bool = True,
    optional: bool = False,
) -> None:
    """`CFG [LOAD] [--packet-length N]`: what a simulating command runs."""
    nargs: dict[str, Any] = {"nargs": "?"} if optional else {}
    parser.add_argument("config", **nargs)
    if load:
        parser.add_argument("load", type=float, **nargs)
    if packet_length:
        parser.add_argument("--packet-length", type=int, default=5)


_curve_shape = partial(_point_shape, load=False)  # `CFG --packet-length N`: a load search


def _table3_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-leading", action="store_true")
    parser.add_argument("--packet-lengths", default="5,21")


def _figure_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("number", choices=sorted(FIGURES))


def _point_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="collect latency with bounded-memory streaming percentile "
        "sketches instead of storing every sample",
    )


def _attribute_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--versus",
        help="second configuration measured at the same load and seed, "
        "reported side by side (FR against VC is the paper's comparison)",
    )


def _saturate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--low", type=float, default=0.30)


def _sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--loads", default="0.1,0.3,0.5,0.63,0.72,0.8")


def _heatmap_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metric",
        default="buffer_occupancy",
        help="node metric to render (buffer_occupancy, reservation_occupancy, "
        "injection_backpressure, credit_stalls)",
    )
    parser.add_argument(
        "--at",
        type=int,
        metavar="CYCLE",
        help="render the single sampled window containing this cycle",
    )
    parser.add_argument(
        "--window",
        metavar="A:B",
        help="aggregate the sampled rows inside the half-open window [A, B) "
        "(default: the measurement window)",
    )
    parser.add_argument("--top", type=int, default=5, help="hotspot count to report per frame")
    parser.add_argument("--frame", type=int, default=0, help="frame index for multi-frame payloads")
    parser.add_argument("--json-out", help="also write the frfc-heatmap/1 JSON here")
    parser.add_argument("--svg-out", help="also write an SVG rendering here")
    parser.add_argument(
        "--from",
        dest="from_file",
        metavar="JSON",
        help="re-render an existing frfc-heatmap/1 payload instead of simulating",
    )


def _trace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--load", type=float, default=0.3)
    parser.add_argument("--packet", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=400)


def _utilization_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cycles", type=int, default=2000)


def _runs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("action", choices=["list", "show", "diff", "gc"])
    parser.add_argument(
        "hashes",
        nargs="*",
        help="record identity-hash prefixes (`show` takes one, `diff` two)",
    )
    parser.add_argument(
        "--store", default=".frfc/runs", help="ledger directory (default .frfc/runs)"
    )
    parser.add_argument(
        "--all",
        dest="gc_all",
        action="store_true",
        help="for `gc`: evict every record, not just stale/corrupt ones",
    )


# -- what the handlers share --------------------------------------------------


def _run_context(args: argparse.Namespace) -> dict[str, Any]:
    return {"seed": args.seed, "preset": args.preset}


def _run_kwargs(args: argparse.Namespace) -> dict[str, Any]:
    return {**_run_context(args), "check_invariants": args.check_invariants}


def _simulate(
    args: argparse.Namespace, session: "ObsSession | None", config: str | None = None, **extra: Any
) -> "ExperimentResult":
    """One (config, load) point under the run flags."""
    return run_experiment(
        _config(config or args.config),
        args.load,
        packet_length=args.packet_length,
        obs=session,
        **_run_kwargs(args),
        **extra,
    )


def _context(args: argparse.Namespace) -> dict[str, Any]:
    """What an artifact records about the point-shaped run that made it."""
    return {
        **_run_context(args),
        "offered_load": args.load,
        "packet_length": args.packet_length,
        "command": args.invocation,
    }


def _wants_exports(args: argparse.Namespace) -> bool:
    return any((args.trace_out, args.metrics_out, args.events_out, args.profile, args.spatial_out))


def _session(**outputs: Any) -> "ObsSession":
    from repro.obs.session import ObsSession

    return ObsSession(**outputs)


def _obs_session(args: argparse.Namespace, **overrides: Any) -> "ObsSession":
    """The session the export flags describe: their dests are ObsSession's parameters."""
    groups = [group for group in ROOT_FLAGS if group is not _run_flags]
    flags = [action for group in groups for action in args.root_flags[group]]
    return _session(**{**{flag.dest: getattr(args, flag.dest) for flag in flags}, **overrides})


def _finalize_obs(session: "ObsSession", args: argparse.Namespace) -> None:
    """Write the session's artifacts and report where they went."""
    artifacts = session.finalize(config=_config(args.config), **_context(args))
    for kind in sorted(artifacts):
        print(f"  {kind}: {artifacts[kind]}")
    if session.profiler is not None:
        print(f"  simulator: {session.profiler.cycles_per_second:,.0f} cycles/sec")


def _ledger(args: argparse.Namespace) -> "RunLedger | None":
    if args.ledger is None:
        if getattr(args, "jobs", None) is not None:
            raise SystemExit("--jobs needs --ledger: workers hand results over as run records")
        return None
    from repro.obs.ledger import RunLedger

    return RunLedger(args.ledger)


def _progress(args: argparse.Namespace) -> "ProgressReporter | None":
    """A heartbeat reporter when --progress-out or --ledger asked for one."""
    if args.progress_out is None and args.ledger is None:
        return None
    from repro.obs.progress import ProgressReporter

    return ProgressReporter(jsonl_out=args.progress_out or "", label=args.config.upper())


def _report_ledger(ledger: "RunLedger | None") -> None:
    """One stderr line of cache telemetry (stdout stays byte-comparable)."""
    if ledger is not None and ledger.consulted:
        sys.stderr.write(ledger.summary() + "\n")


def _write_attribution(
    summaries: list["AttributionSummary"], out: str, context: dict[str, Any]
) -> None:
    """Print the attribution table and write its JSON."""
    from repro.obs.report import format_attribution_table, write_attribution_json

    if not summaries:
        print("  attribution: no packets were delivered; nothing to attribute")
        return
    print()
    print(format_attribution_table(summaries))
    write_attribution_json(summaries, out, context=context)
    print(f"  attribution: {out}")


def _stepped(args: argparse.Namespace) -> "tuple[NetworkModel, Simulator]":
    """A live network and its simulator, for the commands that count cycles themselves."""
    from repro.harness.experiment import build_network
    from repro.sim.kernel import Simulator

    network = build_network(_config(args.config), args.load, seed=args.seed)
    checker = InvariantChecker() if args.check_invariants else None
    return network, Simulator(network, checker=checker)


# -- handlers: one per COMMANDS row -------------------------------------------


def _table3(args: argparse.Namespace) -> None:
    ledger = _ledger(args)
    result = table3(
        packet_lengths=tuple(int(x) for x in args.packet_lengths.split(",")),
        include_leading=not args.no_leading,
        ledger=ledger,
        jobs=args.jobs,
        **_run_kwargs(args),
    )
    print(result.format())
    _report_ledger(ledger)


def _study(args: argparse.Namespace, run: Callable[..., figures_module.FigureResult]) -> None:
    print(run(**_run_kwargs(args)).format())


def _figure(args: argparse.Namespace) -> None:
    ledger = _ledger(args)
    print(FIGURES[args.number](ledger=ledger, jobs=args.jobs, **_run_kwargs(args)).format())
    _report_ledger(ledger)


def _point(args: argparse.Namespace) -> None:
    session = None
    if _wants_exports(args) or args.attribution_out is not None or args.heatmap_out is not None:
        session = _obs_session(args)
    ledger = _ledger(args)
    progress = _progress(args)
    if progress is not None:
        if session is None:  # a minimal session that only carries the progress hook
            session = _session(manifest_out="", bench_out="", progress=progress)
        else:
            session.progress = progress
        progress.begin_point(index=1, total=1, label=f"load={args.load:.2f}")
    result = _simulate(args, session, streaming=args.streaming, ledger=ledger)
    replayed = ledger is not None and ledger.last_hit
    if progress is not None:
        progress.end_point(cache_hit=replayed, summary=result.summary())
    print(result.summary())
    if session is not None and not replayed:
        _finalize_obs(session, args)
    _report_ledger(ledger)


def _obs(args: argparse.Namespace) -> None:
    # A bare `frfc obs FR6 0.5` yields the full artifact set (trace, metrics
    # CSV, profile); `point` exports only what was asked.
    session = _obs_session(
        args,
        trace_out=args.trace_out or "obs_trace.json",
        metrics_out=args.metrics_out or "obs_metrics.csv",
        profile=True,
    )
    print(_simulate(args, session).summary())
    _finalize_obs(session, args)


def _attribute(args: argparse.Namespace) -> None:
    """One observed point per config, then the side-by-side table + JSON."""
    wants_exports = _wants_exports(args)
    # The primary config owns the export flags; the --versus run only
    # attributes (attribution_out="" builds the attributor without an
    # auto-written artifact -- one JSON below covers both runs).
    manifest_out = args.manifest_out if wants_exports else ""
    primary = _obs_session(args, attribution_out="", manifest_out=manifest_out)
    runs = [(args.config, primary)]
    if args.versus:
        versus = _session(attribution_out="", manifest_out="", capacity=args.capacity)
        runs.append((args.versus, versus))
    summaries = []
    for name, session in runs:
        result = _simulate(args, session, config=name)
        print(result.summary())
        summary = session.attribution_summary(label=f"{result.config_name} load={args.load:.2f}")
        if summary is not None:
            summaries.append(summary)
        if wants_exports and session is primary:
            _finalize_obs(session, args)
    if not summaries:
        raise SystemExit("no packets were delivered; nothing to attribute")
    _write_attribution(summaries, args.attribution_out or "attribution.json", _context(args))


def _saturate(args: argparse.Namespace) -> None:
    ledger = _ledger(args)
    progress = _progress(args)
    result = find_saturation(
        _config(args.config),
        packet_length=args.packet_length,
        low=args.low,
        attribute=args.attribution_out is not None,
        ledger=ledger,
        progress=progress,
        **_run_kwargs(args),
    )
    if progress is not None:
        progress.close(f"knee {result.knee:.2f}")
    print(
        f"{result.config_name}: saturation {result.saturation * 100:.0f}% of "
        f"capacity (knee {result.knee:.2f}, plateau {result.plateau:.2f})"
    )
    for offered, accepted in result.probes:
        print(f"  offered {offered:.3f} -> accepted {accepted:.3f}")
    if args.attribution_out is not None:
        _write_attribution(result.attribution, args.attribution_out, _run_context(args))
    _report_ledger(ledger)


def _sweep(args: argparse.Namespace) -> None:
    ledger = _ledger(args)
    progress = _progress(args)
    result = run_load_sweep(
        _config(args.config),
        [float(x) for x in args.loads.split(",")],
        packet_length=args.packet_length,
        attribute=args.attribution_out is not None,
        ledger=ledger,
        progress=progress,
        heatmap_out=args.heatmap_out,
        jobs=args.jobs,
        **_run_kwargs(args),
    )
    if progress is not None:
        progress.close(f"{result.cache_hits()}/{len(result.telemetry)} cache hits")
    print(result.format_table())
    if args.heatmap_out is not None:
        print(f"  heatmap: {args.heatmap_out}")
    if args.attribution_out is not None:
        _write_attribution(result.attribution, args.attribution_out, _run_context(args))
    # Sweep health (per-point cache/drops/phase timings) goes to stderr so
    # stdout stays byte-comparable between cold and warm ledger runs.
    if result.telemetry:
        sys.stderr.write(result.format_health() + "\n")
    _report_ledger(ledger)


def _parse_window(spec: str) -> tuple[int, int]:
    """Parse ``A:B`` into the half-open cycle window (A, B)."""
    try:
        start, end = map(int, spec.split(":"))
    except ValueError:
        raise SystemExit(f"--window takes A:B cycle bounds, got {spec!r}")
    if start >= end:
        raise SystemExit(f"--window must be half-open [A, B) with A < B, got {spec!r}")
    return start, end


def _heatmap(args: argparse.Namespace) -> None:
    """Simulate (or load) a heatmap payload and render it."""
    from repro.obs import heatmap

    window = _parse_window(args.window) if args.window else None
    try:
        if args.from_file:
            with open(args.from_file, encoding="utf-8") as handle:
                payload = json.load(handle)
            heatmap.validate_heatmap(payload)
        else:
            if args.config is None or args.load is None:
                raise SystemExit(
                    "frfc heatmap needs CFG LOAD to simulate (or --from FILE "
                    "to re-render an existing payload)"
                )
            session = _session(
                heatmap_out="", manifest_out="", bench_out="", sample_every=args.sample_every
            )
            result = _simulate(args, session)
            print(result.summary())
            registry = session.spatial
            if registry is None or registry.network is None or not registry.samples:
                raise SystemExit("frfc heatmap: the run sampled no spatial rows")
            select = window
            if select is None and args.at is None:
                # Default to the measurement window, like the session export.
                select = registry.sampled_window(session.window)
            payload = heatmap.build_heatmap(
                registry,
                registry.network.mesh,
                label=f"{result.config_name} load={args.load:.2f}",
                window=select,
                at=args.at,
                top_k=args.top,
                context=_context(args),
            )
        print(heatmap.render_ascii(payload, args.metric, frame=args.frame))
        print()
        print(heatmap.format_hotspots(payload, args.metric, frame=args.frame))
        if args.json_out:
            heatmap.write_heatmap_json(payload, args.json_out)
            print(f"  heatmap: {args.json_out}")
        if args.svg_out:
            from repro.obs.exporters import atomic_write_text

            atomic_write_text(args.svg_out, heatmap.render_svg(payload, args.metric, frame=args.frame))
            print(f"  svg: {args.svg_out}")
    except (ValueError, OSError) as error:  # HeatmapError, malformed --from JSON, I/O
        raise SystemExit(f"frfc heatmap: {error}")


def _trace(args: argparse.Namespace) -> None:
    from repro.obs.trace import TraceLog

    network, simulator = _stepped(args)
    log = TraceLog().attach(network)
    simulator.step(args.cycles)
    print(log.format_packet(args.packet))


def _utilization(args: argparse.Namespace) -> None:
    from repro.stats.utilization import measure_channel_utilization

    network, simulator = _stepped(args)
    simulator.step(max(500, args.cycles // 4))  # warm up
    print(measure_channel_utilization(network, simulator, args.cycles).format(count=8))


def _runs(args: argparse.Namespace) -> None:
    """list / show / diff / gc over one ledger store."""
    from repro.obs.ledger import LedgerError, RunLedger, describe_record, format_run_diff

    ledger = RunLedger(args.store)
    try:
        if args.action == "list":
            records, corrupt = ledger.scan()
            if not records and not corrupt:
                print(f"no run records in {ledger.root}")
                return
            for record in records:
                print(describe_record(record))
            for path in corrupt:
                print(f"{path.stem[:12]}  CORRUPT     (refusing to read {path.name})")
        elif args.action == "show":
            if len(args.hashes) != 1:
                raise SystemExit("`frfc runs show` takes exactly one record hash")
            record = ledger.load(ledger.resolve(args.hashes[0]))
            print(json.dumps(record, indent=2, sort_keys=True))
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


def _run_analysis_gates() -> None:
    """Abort unless the model passes the analysis gates.

    Gate 1: the shipped routing function induces an acyclic channel
    dependency graph on the experiment mesh (deadlock freedom).  Gate 2:
    one seeded 4x4 run per shipped model (FR6, VC8, WH8) is bit-identical
    under the natural, reversed and shuffled router evaluation orders
    (phase-order independence), and replays to the same digest -- as does
    a two-load sweep -- after a different point, again, and in two fresh
    interpreters with distinct hash seeds (a point is a pure function of
    config, seed and load).  Gate 1 is pure analysis; gate 2 runs for about
    three seconds in all.
    """
    from repro.analysis.cdg import prove_deadlock_freedom
    from repro.analysis.permute import (
        SHIPPED_CONFIGS,
        run_permutation_diff,
        run_replay_witness,
    )
    from repro.topology.mesh import Mesh2D
    from repro.topology.routing import DimensionOrderRouting

    mesh = Mesh2D(8, 8)
    cdg = prove_deadlock_freedom(DimensionOrderRouting(mesh), mesh, routing_name="xy")
    if not cdg.deadlock_free:
        raise SystemExit(f"--analyze: routing is not deadlock-free\n{cdg.format()}")
    for config in SHIPPED_CONFIGS:
        report = run_permutation_diff(config)
        if not report.identical:
            raise SystemExit(f"--analyze: phases order-dependent\n{report.format()}")
    for replay in run_replay_witness():
        if not replay.identical:
            raise SystemExit(f"--analyze: replay diverged\n{replay.format()}")
    print(
        "analyze: xy routing deadlock-free on 8x8; FR/VC/WH phases order-independent; "
        "FR/VC/WH points and a sweep replay identically"
    )


_OBSERVED = (_point_shape, _run_flags, _export_flags, _sampling_flag, _attribution_flag)
_UNMEASURED = partial(_point_shape, packet_length=False)  # the command counts cycles itself

#: (name, handler, the flag groups its subparser is built with, help): a new
#: command is one row here plus its handler.
COMMANDS: tuple[
    tuple[str, Callable[[argparse.Namespace], None], tuple[Callable[..., Any], ...], str],
    ...,
] = (
    ("table1", lambda args: print(format_table1(table1())), (), "storage overhead (analytical)"),
    ("table2", lambda args: print(format_table2(table2())), (), "bandwidth overhead (analytical)"),
    ("table3", _table3, (_table3_flags, _run_flags, _ledger_flag, _jobs_flag),
     "experimental summary"),
    ("figure", _figure, (_figure_flags, _run_flags, _ledger_flag, _jobs_flag),
     "regenerate one figure's curves"),
    ("point", _point, _OBSERVED + (_heatmap_flag, _point_flags, _ledger_flag, _progress_flag),
     "run one (config, load) experiment"),
    ("obs", _obs, _OBSERVED + (_heatmap_flag,),
     "run one observed (config, load) experiment and export artifacts"),
    ("attribute", _attribute, _OBSERVED + (_attribute_flags,),
     "decompose one (config, load) point's latency into components"),
    ("saturate", _saturate,
     (_curve_shape, _saturate_flags, _run_flags, _attribution_flag, _ledger_flag, _progress_flag),
     "find saturation throughput"),
    ("occupancy", lambda args: _study(args, figures_module.section42_occupancy), (_run_flags,),
     "Section 4.2 buffer-pool occupancy study"),
    ("lead", lambda args: _study(args, figures_module.section44_control_lead), (_run_flags,),
     "Section 4.4 control-lead study"),
    ("sweep", _sweep,
     (_curve_shape, _sweep_flags, _run_flags, _attribution_flag, _heatmap_flag,
      _ledger_flag, _progress_flag, _jobs_flag),
     "latency-throughput curve for one config"),
    ("heatmap", _heatmap,
     (partial(_point_shape, optional=True), _heatmap_flags, _run_flags, _sampling_flag),
     "render a spatial congestion heatmap for one (config, load) point, or re-render an "
     "existing frfc-heatmap/1 JSON with --from"),
    ("trace", _trace, (partial(_UNMEASURED, load=False), _trace_flags, _run_flags),
     "print one packet's event timeline"),
    ("utilization", _utilization, (_UNMEASURED, _utilization_flags, _run_flags),
     "per-channel busy fractions"),
    ("runs", _runs, (_runs_flags,),
     "inspect the content-addressed run ledger (list / show HASH / diff A B / gc; see "
     "docs/observability.md)"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frfc",
        description="Flit-reservation flow control (HPCA 2000) reproduction harness",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="before running, prove the routing deadlock-free (CDG), and check "
        "by running them that the network phase loops are order-independent and "
        "that a point replays identically in this and fresh interpreters "
        "(see docs/static-analysis.md)",
    )
    parser.set_defaults(root_flags={group: group(parser) for group in ROOT_FLAGS})
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, handler, flags, summary in COMMANDS:
        subparser = subparsers.add_parser(name, help=summary)
        subparser.set_defaults(handler=handler, flags=flags)
        for group in flags:
            actions = group(subparser)
            if group in ROOT_FLAGS:
                # Suppressed, so a flag given before the subcommand is not
                # clobbered by the subparser's default.
                for action in actions:
                    action.default = argparse.SUPPRESS
    return parser


def _dispatch(args: argparse.Namespace) -> None:
    if args.analyze:
        _run_analysis_gates()
    # A root-position flag whose group the command was not built with is an
    # error, not a no-op (after the subcommand argparse refuses it by itself).
    for group, actions in args.root_flags.items():
        if group in args.flags or all(getattr(args, a.dest) == a.default for a in actions):
            continue
        names = "/".join(action.option_strings[0] for action in actions)
        takers = [f"`{name}`" for name, _, flags, _ in COMMANDS if group in flags]
        raise SystemExit(
            f"{names} {'apply' if len(actions) > 1 else 'applies'} to the "
            f"{', '.join(takers[:-1])}, and {takers[-1]} commands only"
        )
    args.handler(args)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.invocation = "frfc " + " ".join(sys.argv[1:] if argv is None else argv)
    try:
        _dispatch(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (`frfc runs list | head -1`).  Point stdout at
        # devnull so the interpreter's flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
