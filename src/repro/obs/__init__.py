"""Unified observability layer.

Everything in this subpackage is a *pure observer* of the simulation: when
nothing is attached the networks run exactly as before (digest-identical,
see ``tests/obs/test_detached.py``), and when something is attached it may
record but never influence a routing, scheduling, or arbitration decision.

The layer has five parts:

* :mod:`repro.obs.events` -- the typed event taxonomy and the
  :class:`~repro.obs.events.EventBus` that fans events out to subscribers;
* :mod:`repro.obs.probe` -- :class:`~repro.obs.probe.NetworkProbe`, which
  wires one bus into a flit-reservation, virtual-channel, or wormhole
  network through the routers' observability hooks (attach/detach);
* :mod:`repro.obs.metrics` -- the :class:`~repro.obs.metrics.MetricsRegistry`
  of gauges and a sampled timeseries whose built-in channel-utilization /
  occupancy / stall / backpressure columns reduce the spatial rows;
* :mod:`repro.obs.attribution` (+ :mod:`repro.obs.report`) -- the
  :class:`~repro.obs.attribution.LatencyAttributor` that reconstructs each
  packet's critical path from bus events and decomposes its latency into
  components that sum exactly to the measured value, plus the aggregate
  tables, JSON artifact, and Perfetto waterfall built on top;
* :mod:`repro.obs.spatial` (+ :mod:`repro.obs.heatmap`) -- the
  :class:`~repro.obs.spatial.SpatialMetricsRegistry` of per-router /
  per-link / per-reservation-table instruments (the one reader of data-link
  traffic, behind ``frfc utilization`` too) and the
  ``frfc-heatmap/1`` exporter with ASCII/SVG mesh renderers and the
  hotspot detector behind ``frfc heatmap``;
* :mod:`repro.obs.exporters` (+ :mod:`repro.obs.manifest`,
  :mod:`repro.obs.profile`, :mod:`repro.obs.session`) -- JSONL, Chrome
  trace-event, and CSV timeseries writers, the reproducibility manifest,
  the simulator self-profiler behind ``BENCH_obs.json``, and the
  :class:`~repro.obs.session.ObsSession` that the harness drives.

See ``docs/observability.md`` for the event taxonomy, the metrics catalog,
and a Perfetto walkthrough.
"""
