"""Whole-model analysis: order differs and the replay witness.

This subpackage reasons about the simulator *as a model*, complementing the
per-file lint pass in :mod:`repro.lint` and the runtime
:class:`~repro.sim.invariants.InvariantChecker`:

* :mod:`repro.analysis.imports` -- import-graph primitives (``repro.*``
  import closure of a module); the only module here that a measured path
  loads, through the run ledger's code digest.
* :mod:`repro.analysis.permute` -- runtime order-permutation differ: the
  phase-order independence gate, re-running a seeded workload per model
  under the natural, reversed and shuffled router evaluation orders and
  requiring bit-identical results; and the replay witness, which requires
  the same digest for a point run after another point, again, and in two
  fresh interpreters with distinct hash seeds.
* :mod:`repro.analysis.isolation` -- a re-export of ``import_closure``
  under its old path, for ``bench/trace.py``.

Everything here is pure stdlib and imports the simulator's modules only as
source text (AST) or through their public APIs; analysis never mutates
model state.  Nothing is re-exported here: importers name the submodule
they need, so the ledger's code digest does not load the analyzers.
"""
