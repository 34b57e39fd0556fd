"""Outside-in layer trace: spans around the layers' public entry points.

The hot classes use ``__slots__`` and routers cache bound methods at
construction, so an instance cannot be patched.  ``tracing()`` therefore
replaces each traced attribute **on its class** (or, for a module-level
function, in every ``repro`` module that imported it) before the network is
built, and puts the originals back on exit -- no file under ``src/``
changes.  Spans are aggregated in memory as they close: a per-call record
of the ~10^6 spans of one run would cost more than the run.

Per span the tracer keeps the exact call count, the self time (inclusive
time minus the time of child spans; the wrapper cost of a child lands in
its parent, so times are indicative while counts repeat bit-for-bit), and
for the three spans that can waste work the count of empty-handed returns.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple, Optional


def _is_none(result: Any) -> bool:
    return result is None


def _is_empty(result: Any) -> bool:
    return not result


class Span(NamedTuple):
    """One traced entry point: ``module.owner.attr`` reported as ``name``."""

    name: str
    module: str
    owner: Optional[str]  # class name; None for a module-level function
    attr: str
    miss: Optional[Callable[[Any], bool]] = None  # True when a call came back empty-handed


#: Layer = first component of the span name = the package under ``repro``.
SPANS: tuple[Span, ...] = (
    Span("traffic.source.maybe_create", "repro.traffic.source", "PacketSource", "maybe_create", _is_none),
    Span("sim.kernel.step", "repro.sim.kernel", "Simulator", "step"),
    Span("sim.link.send", "repro.sim.link", "Link", "send"),
    Span("sim.link.receive", "repro.sim.link", "Link", "receive", _is_empty),
    Span("sim.netbase.mean_source_queue_length", "repro.sim.netbase", "NetworkModel", "mean_source_queue_length"),
    Span("core.network.step", "repro.core.network", "FRNetwork", "step"),
    Span("core.router.control_phase", "repro.core.router", "FRRouter", "control_phase"),
    Span("core.router.data_departures", "repro.core.router", "FRRouter", "data_departures"),
    Span("core.router.data_arrivals", "repro.core.router", "FRRouter", "data_arrivals"),
    Span("core.interface.control_phase", "repro.core.interface", "FRNodeInterface", "control_phase"),
    Span("core.interface.data_phase", "repro.core.interface", "FRNodeInterface", "data_phase"),
    Span("core.reservation.reserve_earliest", "repro.core.reservation", "OutputReservationTable", "reserve_earliest", _is_none),
    Span("core.reservation.advance", "repro.core.reservation", "OutputReservationTable", "advance"),
    Span("core.reservation.apply_credit", "repro.core.reservation", "OutputReservationTable", "apply_credit"),
    Span("core.input_schedule.on_reservation", "repro.core.input_schedule", "InputScheduler", "on_reservation"),
    Span("core.flits.acquire_data", "repro.core.flits", "FlitPool", "acquire_data"),
    Span("baselines.vc.network.step", "repro.baselines.vc.network", "VCNetwork", "step"),
    Span("baselines.vc.router.deliver_credits", "repro.baselines.vc.router", "VCRouter", "deliver_credits"),
    Span("baselines.vc.router.deliver_flits", "repro.baselines.vc.router", "VCRouter", "deliver_flits"),
    Span("baselines.vc.router.route_and_allocate", "repro.baselines.vc.router", "VCRouter", "route_and_allocate"),
    Span("baselines.vc.router.switch_traversal", "repro.baselines.vc.router", "VCRouter", "switch_traversal"),
    Span("baselines.vc.interface.inject", "repro.baselines.vc.interface", "VCNodeInterface", "inject"),
    Span("stats.latency.record", "repro.stats.collectors", "LatencyStats", "record"),
    Span("stats.throughput.record_flit", "repro.stats.collectors", "ThroughputCounter", "record_flit"),
    Span("stats.warmup.record", "repro.stats.warmup", "WarmupDetector", "record"),
    Span("obs.events.emit", "repro.obs.events", "EventBus", "emit"),
    Span("obs.metrics.check", "repro.obs.metrics", "MetricsRegistry", "check"),
    Span("obs.spatial.check", "repro.obs.spatial", "SpatialMetricsRegistry", "check"),
    Span("obs.progress.check", "repro.obs.progress", "ProgressReporter", "check"),
    Span("obs.session.attach", "repro.obs.session", "ObsSession", "attach"),
    Span("obs.ledger.code_digest", "repro.obs.ledger", "RunLedger", "code_digest"),
    Span("obs.ledger.lookup", "repro.obs.ledger", "RunLedger", "lookup"),
    Span("obs.ledger.record_experiment", "repro.obs.ledger", "RunLedger", "record_experiment"),
    Span("obs.ledger.replay_experiment", "repro.obs.ledger", "RunLedger", "replay_experiment"),
    Span("analysis.isolation.import_closure", "repro.analysis.isolation", None, "import_closure"),
    Span("harness.experiment.run_experiment", "repro.harness.experiment", None, "run_experiment"),
    Span("harness.experiment.build_network", "repro.harness.experiment", None, "build_network"),
    Span("harness.sweep.run_load_sweep", "repro.harness.sweep", None, "run_load_sweep"),
    Span("harness.saturation.measure_throughput", "repro.harness.saturation", None, "measure_throughput"),
)


def resolve(span: Span) -> tuple[Any, Any]:
    """The object that holds the span's attribute and the raw attribute.

    The attribute must be defined on the named class itself, so a rename or
    a move to a base class fails here instead of reporting ``calls = 0``.
    """
    module = importlib.import_module(span.module)
    holder = module if span.owner is None else getattr(module, span.owner)
    try:
        return holder, vars(holder)[span.attr]
    except KeyError:
        raise LookupError(
            f"span {span.name}: {span.module}.{span.owner or ''} defines no {span.attr!r}"
        ) from None


class Tracer:
    """Aggregated span statistics, indexed like :data:`SPANS`."""

    def __init__(self) -> None:
        self.calls = [0] * len(SPANS)
        self.self_s = [0.0] * len(SPANS)
        self.misses = [0] * len(SPANS)
        self._open: list[float] = []  # child time of each span still open

    def wrap(self, index: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        calls, self_s, misses, opened = self.calls, self.self_s, self.misses, self._open
        miss = SPANS[index].miss
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            calls[index] += 1
            opened.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[index] += elapsed - opened.pop()
                if opened:
                    opened[-1] += elapsed
            if miss is not None and miss(result):
                misses[index] += 1
            return result

        return span

    def report(self) -> dict[str, dict[str, float]]:
        return {
            span.name: {
                "calls": self.calls[index],
                "self_s": self.self_s[index],
                "misses": self.misses[index],
            }
            for index, span in enumerate(SPANS)
        }


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Trace every span in :data:`SPANS` for the duration of the block.

    Build the network inside the block: objects constructed earlier may have
    cached the unwrapped bound methods.
    """
    tracer = Tracer()
    restore: list[tuple[Any, str, Any]] = []
    try:
        for index, span in enumerate(SPANS):
            holder, raw = resolve(span)
            if span.owner is not None:
                if isinstance(raw, staticmethod):
                    wrapped: Any = staticmethod(tracer.wrap(index, raw.__func__))
                else:
                    wrapped = tracer.wrap(index, raw)
                restore.append((holder, span.attr, raw))
                setattr(holder, span.attr, wrapped)
                continue
            # ``from m import f`` copied the function into the importer's
            # namespace, so rebind it wherever repro holds it.
            wrapped = tracer.wrap(index, raw)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "repro" or module is None:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        restore.append((module, attr, raw))
                        setattr(module, attr, wrapped)
        yield tracer
    finally:
        for holder, attr, raw in reversed(restore):
            setattr(holder, attr, raw)
