"""Import-graph primitives: which ``repro.*`` modules a module can reach.

The one piece of :mod:`repro.analysis` that a *measured* path needs: the run
ledger hashes a model's import closure into its code digest
(:meth:`repro.obs.ledger.RunLedger.code_digest`).  It imports nothing from
``repro``, so a ledgered sweep loads this module and none of the analyzers.
:mod:`repro.analysis.isolation` re-exports :func:`import_closure`, so it
also resolves there (``bench/trace.py`` wraps
``repro.analysis.isolation.import_closure``).
"""

from __future__ import annotations

import ast
import importlib.util
from collections.abc import Mapping, Sequence
from typing import Protocol

#: One import statement as written: ``(level, module, names)``.  ``import
#: a.b`` is ``(0, "a.b", ())``; ``from . import x`` is ``(1, "", ("x",))``.
RawImport = tuple[int, str, tuple[str, ...]]

#: Modules that hold each model's config/network pair; the per-model entry
#: trees stop at the *other* models' modules.
MODEL_MODULES: Mapping[str, tuple[str, ...]] = {
    "FR": ("repro.core.config", "repro.core.network"),
    "VC": ("repro.baselines.vc.config", "repro.baselines.vc.network"),
    "WH": ("repro.baselines.wormhole.network",),
}


class ImportSource(Protocol):
    """What :func:`import_closure` asks of a resolver."""

    def module_imports(self, module: str) -> Sequence[RawImport] | None:
        """The import statements of ``module`` (None when it has no source)."""


def module_origin(module: str) -> str | None:
    """The ``.py`` file ``module`` would be imported from, if there is one."""
    try:
        spec = importlib.util.find_spec(module)
    except (ImportError, ValueError):
        return None
    if spec is None or spec.origin is None or not spec.origin.endswith(".py"):
        return None
    return spec.origin


def _is_type_checking(test: ast.expr) -> bool:
    """``TYPE_CHECKING`` or ``<typing>.TYPE_CHECKING``, and nothing around it."""
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING" and isinstance(test.value, ast.Name)
    return isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"


def raw_imports(tree: ast.Module) -> list[RawImport]:
    """Every import statement of ``tree`` that can execute, as written.

    Function-level lazy imports count (they execute at run time); the body
    of a bare ``if TYPE_CHECKING:`` does not (it never executes).  Any other
    test that merely mentions ``TYPE_CHECKING`` (``not TYPE_CHECKING``,
    ``TYPE_CHECKING or X``) can be true at run time, so both branches count.
    """
    found: list[RawImport] = []
    _collect_imports(tree.body, found)
    return found


def _collect_imports(body: Sequence[ast.stmt], found: list[RawImport]) -> None:
    # A module-level recursion, not a nested closure: a self-referencing
    # closure is cyclic garbage that would keep every parsed module alive
    # until the next full collection.
    for stmt in body:
        if isinstance(stmt, ast.If) and _is_type_checking(stmt.test):
            _collect_imports(stmt.orelse, found)
            continue
        if isinstance(stmt, ast.Import):
            found.extend((0, alias.name, ()) for alias in stmt.names)
        elif isinstance(stmt, ast.ImportFrom):
            names = tuple(alias.name for alias in stmt.names)
            found.append((stmt.level, stmt.module or "", names))
        for child_body in (
            getattr(stmt, "body", None),
            getattr(stmt, "orelse", None),
            getattr(stmt, "finalbody", None),
        ):
            if isinstance(child_body, list):
                _collect_imports(child_body, found)
        if isinstance(stmt, ast.Try):
            for handler in stmt.handlers:
                _collect_imports(handler.body, found)


def import_closure(
    root: str, resolver: ImportSource, stop: frozenset[str] = frozenset()
) -> list[str]:
    """Transitive ``repro.*`` import closure of ``root``, sorted.

    Modules in ``stop`` are excluded along with everything only reachable
    through them.  The resolver says what each module's import statements
    are; which modules those name is decided here, against the tree as it
    is now (``from pkg import name`` is an edge to ``pkg.name`` exactly
    when that is a module today).

    Every ancestor package of a member is a member too: importing ``a.b.c``
    executes ``a/__init__.py`` and ``a/b/__init__.py`` first.  What such an
    ``__init__`` imports is followed only if something in the closure also
    imports the package by name -- ``repro/__init__.py`` imports every
    model, so following it would make every closure the whole tree.
    """
    seen: set[str] = set()
    frontier = [root]
    while frontier:
        module = frontier.pop()
        if module in seen or module in stop:
            continue
        imports = resolver.module_imports(module)
        if imports is None:
            continue
        seen.add(module)
        for level, target, names in imports:
            if level:
                base = module.split(".")[:-level]
                target = ".".join(base + ([target] if target else []))
            if not target.startswith("repro"):
                continue
            frontier.append(target)
            for name in names:
                submodule = f"{target}.{name}"
                if resolver.module_imports(submodule) is not None:
                    frontier.append(submodule)
    for module in sorted(seen):
        while "." in module:
            module = module.rpartition(".")[0]
            if module not in seen and resolver.module_imports(module) is not None:
                seen.add(module)
    return sorted(seen)
