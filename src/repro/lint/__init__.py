"""frfc-lint: simulator-specific static analysis for this repository.

A thin, dependency-free AST linter with rules tuned to the hazards of a
deterministic cycle-stepped network simulator (see :mod:`repro.lint.rules`
for the rule catalogue and :mod:`repro.lint.engine` for suppression and
reporting).  Invoked from the command line via ``tools/frfc_lint.py`` and
from the test suite directly.
"""
