"""Parallel cold sweeps by ledger pre-warming.

A point's result is a pure function of (config, seed, load) -- checked by
running it: the replay witness (:func:`repro.analysis.permute.run_replay_witness`)
demands one digest after a different point in the same process, which is what
a forked worker inherits, and in fresh interpreters under two hash seeds, which
is what a ``spawn`` worker starts as.  The run ledger replays verified records
byte-identically (the warm/cold gate), so a parallel sweep needs no merge
logic: :func:`prewarming` arms the ledger so that the first absent record
fans the sweep's :class:`Call` list out to a process pool whose only side
effect is writing ``frfc-runrecord/1`` files, and the unchanged serial loop
then replays them.  A warm sweep never misses, so it never starts a pool and
pays nothing.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator, Mapping, Optional, Sequence

if TYPE_CHECKING:
    from concurrent.futures import Future

    from repro.harness.experiment import AnyConfig
    from repro.obs.ledger import RunLedger


@dataclass(frozen=True)
class Call:
    """One ledger-carrying harness call:
    ``fn(config, *args, ledger=..., **kwargs)``.

    ``fn`` must be a module-level function so a ``spawn`` worker can import
    it.  Calls sharing a ``curve`` are one ascending load sweep that stops
    after its first saturated point; ``None`` never stops.
    """

    fn: Callable[..., Any]
    config: "AnyConfig"
    args: tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    curve: Optional[Hashable] = None


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def prewarming(
    ledger: Optional["RunLedger"],
    calls: Sequence[Call],
    jobs: Optional[int] = None,
    start_method: Optional[str] = None,
) -> Iterator[None]:
    """Within the block, ``ledger``'s first miss runs ``calls`` in a pool.

    ``jobs=None`` uses one worker per call up to the CPUs available;
    with one job, one call or no ledger the block runs as if unwrapped.
    """
    if jobs is None:
        jobs = available_cpus()
    jobs = min(jobs, len(calls))
    if ledger is None or jobs <= 1:
        yield
        return
    ledger.on_miss = partial(_fan_out, ledger, calls, jobs, start_method)
    try:
        yield
    finally:
        ledger.on_miss = None


def _fan_out(
    ledger: "RunLedger", calls: Sequence[Call], jobs: int, start_method: Optional[str]
) -> None:
    """Run ``calls`` on ``jobs`` workers, at most ``jobs`` in flight, in order.

    Submitting lazily (instead of queueing everything and cancelling) bounds
    the speculation past a curve's saturation point to ``jobs - 1`` calls.
    A worker that raises re-raises here and a worker that dies raises
    ``BrokenProcessPool``; either way the pool is drained first, so every
    point that finished is on disk for the rerun.

    Each call in flight holds one of ``jobs`` seats, and a seat is a CPU of
    this process's affinity mask: without that, two freshly forked workers
    can share their parent's CPU beside an idle one for as long as the
    kernel's balancer takes to part them (forever where a cpuset switches
    balancing off), and a sweep's wall time swings between one and two points.
    """
    # Imported here: only a cold parallel sweep pays for them.
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    if start_method is None:
        # fork shares the imported simulator for free, a spawn worker
        # re-imports it (~0.2 s) before its first cycle; but fork is only
        # safe while no other thread can hold a lock across it.  The
        # executor forks all its workers before it starts its own thread.
        forkable = "fork" in multiprocessing.get_all_start_methods()
        start_method = "fork" if forkable and threading.active_count() == 1 else "spawn"
    ledger.prime([call.config for call in calls])
    # Anything still buffered would be written once by every forked child.
    sys.stdout.flush()
    sys.stderr.flush()
    pending = deque(calls)
    stopped: set[Hashable] = set()
    running: dict[Future[tuple[list[str], bool]], tuple[Call, Optional[int]]] = {}
    cpus: Sequence[Optional[int]] = (
        sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else [None]
    )
    seats = deque(cpus[index % len(cpus)] for index in range(jobs))
    context = multiprocessing.get_context(start_method)
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        while pending or running:
            while pending and len(running) < jobs:
                call = pending.popleft()
                if call.curve not in stopped:
                    seat = seats.popleft()
                    running[pool.submit(_work, ledger, call, seat)] = call, seat
            wait(running, return_when=FIRST_COMPLETED)
            for future in [future for future in running if future.done()]:
                call, seat = running.pop(future)
                seats.append(seat)
                written, saturated = future.result()
                ledger.prewarmed.update(written)
                if saturated and call.curve is not None:
                    stopped.add(call.curve)


def _work(
    ledger: "RunLedger", call: Call, cpu: Optional[int] = None
) -> tuple[list[str], bool]:
    """Worker body: make the call against (a copy of) the parent's ledger and
    report the hashes it stored and whether the point saturated.

    The worker first moves itself to ``cpu``, its call's seat, and then takes
    its full affinity mask back: a placement, not a pin, so a balancing
    scheduler stays free to move it again.  Where the move is refused the
    call runs wherever it is.
    """
    if cpu is not None:
        allowed = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {cpu})
            os.sched_setaffinity(0, allowed)
        except OSError:
            pass
    before = len(ledger.written)
    result = call.fn(call.config, *call.args, ledger=ledger, **call.kwargs)
    return ledger.written[before:], bool(getattr(result, "saturated", False))
