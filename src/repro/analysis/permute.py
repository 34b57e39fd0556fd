"""Runtime order-permutation differ: the phase-order independence gate.

Within one phase of ``step()`` the order in which routers and interfaces
are visited must not change any result: actors may couple only through a
``Link`` (delay >= 1, so an effect lands next cycle) or through state they
own.  This module checks that property by running the model.  Every
:class:`~repro.sim.netbase.NetworkModel` carries an ``eval_order`` list
that its phase loops iterate; the differ runs the same seeded workload
under the natural order, its reversal and seeded shuffles, and demands
the end-of-run statistics be **bit-identical** -- not approximately equal.
The reversal visits every pair of nodes in both relative orders, so a
same-cycle coupling between any two actors shows up within two runs.

Bit-identity is achievable because every aggregated quantity is either an
integer counter or a multiset of integer latencies: the digest compares
latencies in sorted order (the canonical multiset form) and counters
exactly, so any order-dependence anywhere in the model -- a missed shared
write, a non-commutative hook -- shows up as a digest mismatch naming the
first differing field.

The per-actor RNG streams make this a fair test: sources and routers draw
from streams spawned per node at construction, so a shuffled evaluation
order replays the exact same per-node random decisions.  If the model were
instead sharing one stream across actors, every permutation would produce
a different workload and the differ would (correctly) fail.

The same digest backs the **replay witness** (:func:`run_replay_witness`):
a point must be a pure function of (config, seed, load), whatever ran
before it and whichever interpreter runs it.  Per shipped model, and for
one two-load ``run_load_sweep``, the witness digests the reference point
four ways -- after a different point in this process, again in this
process, and in two fresh interpreters with fixed, distinct
``PYTHONHASHSEED`` values -- and demands one digest.  The first two legs model
a forked pool worker, which inherits this process's module state and runs
points back to back; the last two model a ``spawn``-ed worker, which starts
clean under its own hash seed.  Module-level memos, class-level tallies,
ambient randomness, ``id()``-keyed orders and string-set orders that reach
a result all show up as a leg that disagrees.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.baselines.vc.config import VC8
from repro.baselines.wormhole.network import WormholeConfig
from repro.core.config import FR6, FRConfig
from repro.core.network import FRNetwork
from repro.harness.experiment import AnyConfig, build_network
from repro.harness.presets import MeasurementPreset
from repro.harness.sweep import run_load_sweep
from repro.sim.invariants import InvariantChecker
from repro.sim.kernel import Simulator
from repro.sim.netbase import NetworkModel
from repro.sim.rng import DeterministicRng
from repro.topology.mesh import Mesh2D

#: One model per flow-control scheme: what ``frfc-analyze permute`` and
#: ``frfc --analyze`` check.
SHIPPED_CONFIGS: tuple[AnyConfig, ...] = (
    FR6,
    VC8,
    WormholeConfig(buffers_per_input=8),
)


@dataclass(frozen=True)
class RunDigest:
    """Canonical end-of-run state of one simulation, order-free by design."""

    eval_order_label: str
    cycles: int
    packets_created: int
    packets_delivered: int
    measured_delivered: int
    flits_ejected: int
    packets_ejected: int
    latency_samples: tuple[int, ...]  # sorted: the canonical multiset form
    in_flight_packet_ids: tuple[int, ...]  # sorted
    source_queue_lengths: tuple[int, ...]  # per node, node order
    extras: tuple[tuple[str, str], ...] = ()

    def hexdigest(self) -> str:
        payload = repr(
            (
                self.cycles,
                self.packets_created,
                self.packets_delivered,
                self.measured_delivered,
                self.flits_ejected,
                self.packets_ejected,
                self.latency_samples,
                self.in_flight_packet_ids,
                self.source_queue_lengths,
                self.extras,
            )
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def diff_fields(self, other: "RunDigest") -> list[str]:
        """Names of the fields (identity aside) where the two runs differ."""
        fields = (
            "cycles",
            "packets_created",
            "packets_delivered",
            "measured_delivered",
            "flits_ejected",
            "packets_ejected",
            "latency_samples",
            "in_flight_packet_ids",
            "source_queue_lengths",
            "extras",
        )
        return [
            name
            for name in fields
            if getattr(self, name) != getattr(other, name)
        ]


@dataclass
class PermutationReport:
    """The differ's verdict across all evaluated orders."""

    config_name: str
    cycles: int
    orders: int
    digests: list[RunDigest] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not self.mismatches and len(self.digests) == self.orders

    def format(self) -> str:
        lines = [
            f"order-permutation diff: {self.config_name}, "
            f"{self.cycles} cycles, {self.orders} evaluation orders"
        ]
        for digest in self.digests:
            lines.append(
                f"  {digest.eval_order_label:<12} sha256 {digest.hexdigest()[:16]}  "
                f"delivered={digest.packets_delivered} "
                f"samples={len(digest.latency_samples)}"
            )
        if self.identical:
            lines.append(
                "  bit-identical: router evaluation order does not affect results"
            )
        else:
            for mismatch in self.mismatches:
                lines.append(f"  MISMATCH: {mismatch}")
        return "\n".join(lines)


def digest_network(network: NetworkModel, cycles: int, label: str) -> RunDigest:
    """Collapse a finished run into its canonical, order-free digest."""
    extras: list[tuple[str, str]] = []
    if isinstance(network, FRNetwork):
        extras.append(("bypass_fraction", repr(network.bypass_fraction())))
        extras.append(
            (
                "data_flit_latencies",
                repr(tuple(sorted(network.data_flit_latency.samples()))),
            )
        )
    return RunDigest(
        eval_order_label=label,
        cycles=cycles,
        packets_created=len(network.packets_in_flight) + network.packets_delivered,
        packets_delivered=network.packets_delivered,
        measured_delivered=network.measured_delivered,
        flits_ejected=network.throughput.flits_ejected,
        packets_ejected=network.throughput.packets_ejected,
        latency_samples=tuple(sorted(network.latency_stats.samples())),
        in_flight_packet_ids=tuple(sorted(network.packets_in_flight)),
        source_queue_lengths=tuple(
            network.source_queue_length(node) for node in network.mesh.nodes()
        ),
        extras=tuple(extras),
    )


def _run_once(
    config: AnyConfig,
    offered_load: float,
    packet_length: int,
    seed: int,
    cycles: int,
    mesh: Mesh2D,
    eval_order: list[int],
    label: str,
    check_invariants: bool,
) -> RunDigest:
    network = build_network(
        config,
        offered_load,
        packet_length=packet_length,
        seed=seed,
        mesh=mesh,
    )
    if sorted(eval_order) != list(mesh.nodes()):
        raise ValueError(f"evaluation order is not a permutation of the mesh: {label}")
    network.eval_order = list(eval_order)
    network.set_measure_window(0, cycles)
    checker = InvariantChecker() if check_invariants else None
    simulator = Simulator(network, checker=checker)
    simulator.step(cycles)
    return digest_network(network, cycles, label)


def run_permutation_diff(
    config: AnyConfig | None = None,
    offered_load: float = 0.3,
    packet_length: int = 5,
    seed: int = 7,
    cycles: int = 300,
    orders: int = 4,
    mesh: Mesh2D | None = None,
    shuffle_seed: int = 1234,
    check_invariants: bool = False,
) -> PermutationReport:
    """Run one seeded workload under ``orders`` evaluation orders and diff.

    The first order is the natural node order (the shipped default), the
    second its reversal; each further order is a seeded shuffle.  Returns a
    report whose ``identical`` property is the verdict; mismatches name the
    run and the exact fields that diverged from the baseline.
    """
    if orders < 2:
        raise ValueError(f"need at least 2 evaluation orders to diff, got {orders}")
    config = config or FRConfig()
    mesh = mesh or Mesh2D(4, 4)
    rng = DeterministicRng(shuffle_seed)
    natural = list(mesh.nodes())
    report = PermutationReport(
        config_name=config.name, cycles=cycles, orders=orders
    )
    baseline: RunDigest | None = None
    for index in range(orders):
        if index == 0:
            order, label = natural, "natural"
        elif index == 1:
            order, label = natural[::-1], "reversed"
        else:
            order = rng.spawn(index).shuffled(natural)
            label = f"shuffle[{index}]"
        digest = _run_once(
            config,
            offered_load,
            packet_length,
            seed,
            cycles,
            mesh,
            order,
            label,
            check_invariants,
        )
        report.digests.append(digest)
        if baseline is None:
            baseline = digest
            continue
        differing = baseline.diff_fields(digest)
        if differing:
            report.mismatches.append(
                f"{digest.eval_order_label} differs from "
                f"{baseline.eval_order_label} in: {', '.join(differing)}"
            )
    return report


#: ``PYTHONHASHSEED`` of the replay witness's two fresh interpreters: fixed
#: and distinct, so a string-set order that reaches a result fails every
#: run, not one run in a few.
REPLAY_HASH_SEEDS = (1, 2)

#: The witness row that replays one ``run_load_sweep`` of FR6 over two loads.
SWEEP_ROW = "sweep"

#: Just long enough for each sweep point to warm up, sample and drain.
_SWEEP_PRESET = MeasurementPreset(
    name="replay",
    min_warmup=100,
    warmup_window=50,
    max_warmup=300,
    sample_cycles=150,
    drain_cycles=2_000,
    throughput_cycles=150,
)

#: The ``src`` directory this ``repro`` was imported from: the fresh
#: interpreters import the same tree, edited copies included.
_SRC = str(Path(__file__).resolve().parents[2])

#: What each fresh interpreter runs: one row's digest, printed.
_CHILD = (
    "import sys; sys.path.insert(0, {src!r}); "
    "from repro.analysis.permute import replay_digest; "
    "print(replay_digest(*{args!r}))"
)


@dataclass(frozen=True)
class ReplayReport:
    """One witness row: the reference point's digest, leg by leg."""

    row: str
    legs: tuple[tuple[str, str], ...]  # (how the point ran, its digest)

    @property
    def identical(self) -> bool:
        return len({digest for _, digest in self.legs}) == 1

    def format(self) -> str:
        lines = [f"replay: {self.row}"]
        for label, digest in self.legs:
            shown = digest[:16] if len(digest) == 64 else digest
            lines.append(f"  {label:<18} sha256 {shown}")
        if self.identical:
            lines.append("  identical: no process state or hash order reaches the result")
        else:
            lines.append(f"  DIVERGED: {self.row} depends on more than (config, seed, load)")
        return "\n".join(lines)


def replay_digest(
    row: str, offered_load: float, seed: int, cycles: int, width: int, height: int
) -> str:
    """SHA-256 of one witness row's results, computed in this process.

    A model row is :func:`digest_network` after ``cycles`` cycles; the
    sweep row covers every field of every point the sweep returns.
    """
    mesh = Mesh2D(width, height)
    if row == SWEEP_ROW:
        sweep = run_load_sweep(
            FR6,
            [offered_load, offered_load + 0.2],
            seed=seed,
            preset=_SWEEP_PRESET,
            mesh=mesh,
        )
        payload = repr([asdict(point) for point in sweep.points])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
    config = next(config for config in SHIPPED_CONFIGS if config.name == row)
    digest = _run_once(
        config,
        offered_load,
        packet_length=5,
        seed=seed,
        cycles=cycles,
        mesh=mesh,
        eval_order=list(mesh.nodes()),
        label=row,
        check_invariants=False,
    )
    return digest.hexdigest()


def _child_digest(child: "subprocess.Popen[str]") -> str:
    out, err = child.communicate()
    if child.returncode:
        last = err.strip().splitlines()[-1] if err.strip() else "no output"
        return f"exit {child.returncode}: {last}"
    return out.strip()


def run_replay_witness(
    offered_load: float = 0.3,
    seed: int = 7,
    cycles: int = 300,
    mesh: Mesh2D | None = None,
) -> list[ReplayReport]:
    """Digest each row's reference point four ways; one report per row.

    The rows are the shipped models (FR6, VC8, WH8) and :data:`SWEEP_ROW`.
    The legs, in order: after the same row at ``seed + 1`` in this process,
    again in this process, and in one fresh interpreter per
    :data:`REPLAY_HASH_SEEDS` entry (started first, so they run alongside).
    A child that fails reports its exit status and last error line as its
    digest, so a crash is a divergence too.
    """
    mesh = mesh or Mesh2D(4, 4)
    reports: list[ReplayReport] = []
    for row in [config.name for config in SHIPPED_CONFIGS] + [SWEEP_ROW]:
        args = (row, offered_load, seed, cycles, mesh.width, mesh.height)
        command = [sys.executable, "-c", _CHILD.format(src=_SRC, args=args)]
        children = [
            subprocess.Popen(
                command,
                env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for hash_seed in REPLAY_HASH_SEEDS
        ]
        try:
            replay_digest(row, offered_load, seed + 1, cycles, mesh.width, mesh.height)
            legs = [
                (f"after seed {seed + 1}", replay_digest(*args)),
                ("again", replay_digest(*args)),
            ]
        finally:
            digests = [_child_digest(child) for child in children]
        legs.extend(
            (f"PYTHONHASHSEED={hash_seed}", digest)
            for hash_seed, digest in zip(REPLAY_HASH_SEEDS, digests)
        )
        reports.append(ReplayReport(row=row, legs=tuple(legs)))
    return reports
