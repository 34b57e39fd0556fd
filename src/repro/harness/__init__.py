"""Experiment harness: everything needed to regenerate the paper's evaluation.

* :mod:`~repro.harness.experiment` -- run one configuration at one load and
  measure latency/throughput with warm-up, sampling, and drain;
* :mod:`~repro.harness.sweep` -- latency-vs-offered-load curves;
* :mod:`~repro.harness.saturation` -- saturation throughput measurement;
* :mod:`~repro.harness.presets` -- measurement fidelity presets (quick /
  standard / paper);
* :mod:`~repro.harness.tables` and :mod:`~repro.harness.figures` -- one
  function per table and figure of the paper;
* :mod:`~repro.harness.runner` -- the ``frfc`` command-line front end.
"""
