"""Cycle-driven simulation substrate.

This subpackage provides the three primitives every router model in the
repository is built on:

* :class:`~repro.sim.kernel.Simulator` -- a synchronous, cycle-stepped
  simulation kernel with named phases and stop conditions,
* :class:`~repro.sim.link.Link` -- a pipelined point-to-point channel with a
  fixed propagation delay and a per-cycle width (flits per cycle), and
* :class:`~repro.sim.rng.DeterministicRng` -- the single source of randomness
  (arbitration, traffic, injection) so that every experiment is reproducible
  from one integer seed.
"""

from repro.sim.invariants import InvariantChecker, InvariantViolation
from repro.sim.kernel import CycleHook, SimulationError, Simulator
from repro.sim.link import Link, LinkOverflowError
from repro.sim.rng import DeterministicRng

__all__ = [
    "CycleHook",
    "DeterministicRng",
    "InvariantChecker",
    "InvariantViolation",
    "Link",
    "LinkOverflowError",
    "SimulationError",
    "Simulator",
]
