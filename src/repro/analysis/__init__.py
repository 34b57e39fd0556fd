"""Whole-model static analysis: deadlock proofs, race detection, differs.

This subpackage reasons about the simulator *as a model*, complementing the
per-file lint pass in :mod:`repro.lint` and the runtime
:class:`~repro.sim.invariants.InvariantChecker`:

* :mod:`repro.analysis.imports` -- import-graph primitives (``repro.*``
  import closure of a module); the only module here that a measured path
  loads, through the run ledger's code digest.
* :mod:`repro.analysis.cdg` -- channel-dependency-graph deadlock prover:
  certifies a routing function deadlock-free (with a checkable rank
  certificate) or exhibits the exact offending channel cycle.
* :mod:`repro.analysis.broken_routing` -- deliberately deadlock-prone
  routing fixtures the prover must catch.
* :mod:`repro.analysis.phases` -- cycle-phase race detector: proves the
  per-phase actor loops in every network's ``step()`` are
  order-independent, i.e. all same-cycle cross-node coupling flows through
  a ``Link`` pipeline stage.
* :mod:`repro.analysis.permute` -- runtime order-permutation differ: the
  dynamic counterpart, re-running a seeded workload under shuffled router
  evaluation orders and requiring bit-identical results.
* :mod:`repro.analysis.hotpath` -- static hot-path performance analyzer:
  inventories the allocation/churn constructs inside each model's
  per-cycle call tree and gates the committed ``frfc-hotpath/1``
  allocation budget (with a ``tracemalloc`` runtime cross-check).
* :mod:`repro.analysis.isolation` -- whole-program determinism & isolation
  prover: certifies each ``run_experiment``/``run_load_sweep`` entry point
  a pure function of (config, seed, load) -- shared-mutable-state
  inventory, RNG seed provenance, unordered-iteration detection -- emits
  the ``frfc-isolation/1`` certificate gated by
  ``benchmarks/results/ISOLATION_baseline.json``, backs the D011/D012/D013
  lint rules, and cross-checks dynamically via spawn/serial digest
  identity.
* :mod:`repro.analysis.broken_isolation` -- deliberately
  isolation-breaking fixtures the prover must catch.

Everything here is pure stdlib and imports the simulator's modules only as
source text (AST) or through their public APIs; analysis never mutates
model state.  Nothing is re-exported here: importers name the submodule
they need, so the ledger's code digest does not load the provers.
"""
