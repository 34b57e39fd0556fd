"""Old path of :func:`repro.analysis.imports.import_closure`, kept as a re-export
because ``bench/trace.py`` spans ``repro.analysis.isolation.import_closure``."""

from repro.analysis.imports import import_closure as import_closure
