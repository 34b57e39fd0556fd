"""The synchronous simulation kernel.

Every network model in this repository is *cycle-stepped*: a single global
clock advances one cycle at a time, and on each cycle the network performs its
internal phases (control processing, switch traversal, link delivery...) in a
fixed order.  The kernel owns the clock and the stop conditions; the network
owns the semantics of a cycle.

The kernel is deliberately tiny.  Flit-level simulations of an 8x8 mesh spend
all their time inside the routers, so the kernel avoids any per-component
dispatch overhead: it calls exactly one ``step(cycle)`` callable per cycle.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Sequence


class SimulationError(Exception):
    """Raised when a run cannot make progress (e.g. a drain never finishes)."""


class SteppableNetwork(Protocol):
    """What the kernel requires of a network model."""

    def step(self, cycle: int) -> None:
        """Advance the network by one clock cycle."""


class CycleHook(Protocol):
    """An after-cycle observer, e.g. an invariant checker.

    ``check`` runs after the network has fully executed ``cycle``; raising
    from it aborts the run at the first corrupted cycle (see
    :mod:`repro.sim.invariants`).
    """

    def check(self, network: SteppableNetwork, cycle: int) -> None:
        """Inspect the network state after ``cycle`` completed."""


class StepProfiler(Protocol):
    """Wall-time accounting around batches of cycles.

    The kernel never reads the clock itself (rule D001): a profiler -- in
    practice :class:`repro.obs.profile.SimProfiler` -- is bracketed around
    each ``step`` batch and told how many cycles it covered.
    """

    def begin(self) -> None:
        """A batch of cycles is about to run."""

    def end(self, cycles: int) -> None:
        """The batch finished after ``cycles`` cycles (even on error)."""


class Simulator:
    """Drives a :class:`SteppableNetwork` through time.

    The simulator exposes the current cycle, single-step and run-until
    control, and guards every run with a hard cycle ceiling so a deadlocked
    or misconfigured network fails loudly instead of spinning forever.

    ``checker`` is an optional after-cycle hook (typically a
    :class:`repro.sim.invariants.InvariantChecker`): it is called with the
    network and the cycle just executed, on every cycle of every run, so a
    corrupted conservation law is reported within one cycle of appearing.
    ``observers`` are further after-cycle hooks (metrics samplers and the
    like) that run after the checker; ``profiler`` receives begin/end
    brackets around every step batch for wall-time accounting.
    """

    def __init__(
        self,
        network: SteppableNetwork,
        max_cycles: int = 10_000_000,
        checker: Optional[CycleHook] = None,
        observers: Sequence[CycleHook] = (),
        profiler: Optional[StepProfiler] = None,
    ) -> None:
        self.network = network
        self.cycle = 0
        self.max_cycles = max_cycles
        self.checker = checker
        self.observers = tuple(observers)
        self.profiler = profiler

    def step(self, cycles: int = 1) -> None:
        """Advance the clock by ``cycles`` cycles."""
        if self.profiler is None:
            self._run(cycles)
            return
        start = self.cycle
        self.profiler.begin()
        try:
            self._run(cycles)
        finally:
            self.profiler.end(self.cycle - start)

    def _run(self, cycles: int) -> None:
        # Bound everything the loop reads to locals; only ``self.cycle`` is
        # live state (written back each iteration so an exception anywhere
        # leaves it on the cycle that failed, exactly as before).
        network = self.network
        step = network.step
        checker = self.checker
        observers = self.observers
        max_cycles = self.max_cycles
        for _ in range(cycles):
            cycle = self.cycle
            step(cycle)
            if checker is not None:
                checker.check(network, cycle)
            for observer in observers:
                observer.check(network, cycle)
            self.cycle = cycle + 1
            if cycle + 1 > max_cycles:
                raise SimulationError(
                    f"simulation exceeded the hard ceiling of "
                    f"{max_cycles} cycles"
                )

    def run_until(
        self,
        done: Callable[[], bool],
        deadline: Optional[int] = None,
    ) -> int:
        """Step until ``done()`` is true; return the cycle it became true.

        ``done()`` is evaluated after every cycle.  ``deadline`` is an
        absolute cycle number past which the run is considered stuck and a
        :class:`SimulationError` is raised; its message carries the
        network's ``stall_report()`` when it has one.
        """
        limit = self.max_cycles if deadline is None else min(deadline, self.max_cycles)
        while not done():
            if self.cycle >= limit:
                report = getattr(self.network, "stall_report", None)  # netbase models
                raise SimulationError(
                    f"stop condition not reached by cycle {limit}; the network "
                    "is deadlocked, starved, or the deadline is too tight"
                    + ("" if report is None else "\n" + report())
                )
            self.step()
        return self.cycle

    def __repr__(self) -> str:
        return f"Simulator(cycle={self.cycle})"
