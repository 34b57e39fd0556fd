"""Tests for the import-graph primitives behind the run ledger's code digest."""

import ast
import textwrap

import pytest

from repro.analysis.imports import import_closure, raw_imports
from tests.obs.test_ledger import _ParsingResolver


class TestImportClosure:
    def test_follows_lazy_function_level_imports(self):
        # sweep imports ObsSession lazily inside a helper; the closure must
        # still include the observability tree.
        resolver = _ParsingResolver()
        closure = import_closure("repro.harness.sweep", resolver)
        assert "repro.obs.session" in closure

    def test_skips_type_checking_blocks(self):
        # experiment's only obs reference is under `if TYPE_CHECKING:` --
        # the FR tree must not drag the observability stack in.
        resolver = _ParsingResolver()
        closure = import_closure("repro.harness.experiment", resolver)
        assert not any(module.startswith("repro.obs") for module in closure)

    @pytest.mark.parametrize(
        "test, followed",
        [
            # Only the bare test is never true at run time...
            ("TYPE_CHECKING", ["else_branch"]),
            ("typing.TYPE_CHECKING", ["else_branch"]),
            # ...anything built around it can be, so both branches count.
            ("not TYPE_CHECKING", ["body", "else_branch"]),
            ("TYPE_CHECKING or FLAG", ["body", "else_branch"]),
            ("TYPE_CHECKING and FLAG", ["body", "else_branch"]),
            ("not typing.TYPE_CHECKING", ["body", "else_branch"]),
        ],
    )
    def test_type_checking_polarity(self, test, followed):
        source = textwrap.dedent(
            f"""
            if {test}:
                import body
            else:
                from . import else_branch
            """
        )
        imports = raw_imports(ast.parse(source))
        assert [names[0] if names else module for _, module, names in imports] == followed

    def test_raw_imports_keep_statements_as_written(self):
        source = textwrap.dedent(
            """
            import os, repro.sim.link
            from ..core import network as net, router
            def lazy():
                try:
                    from repro.obs import session
                except ImportError:
                    import fallback
            """
        )
        assert raw_imports(ast.parse(source)) == [
            (0, "os", ()),
            (0, "repro.sim.link", ()),
            (2, "core", ("network", "router")),
            (0, "repro.obs", ("session",)),
            (0, "fallback", ()),
        ]

    def test_stop_set_prunes_other_models(self):
        resolver = _ParsingResolver()
        closure = import_closure(
            "repro.harness.experiment",
            resolver,
            stop=frozenset({"repro.baselines.vc.network", "repro.baselines.vc.config"}),
        )
        assert "repro.baselines.vc.router" not in closure
