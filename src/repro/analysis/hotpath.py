"""Static hot-path performance analyzer for the per-cycle call tree.

Every experiment in the reproduction is bounded by how fast the kernel can
step one cycle, and the per-cycle cost of pure-Python code is dominated by a
small set of interpreter-level constructs: allocations (displays,
comprehensions, object construction, closures, string building), attribute
dict lookups on slot-less classes, repeated attribute chains inside loops,
and dynamic control flow (``isinstance``, ``try``/``except``).  This module
walks the *statically reachable* call tree of each network model's
``step()`` -- the same call tree the phase-race detector reconstructs in
:mod:`repro.analysis.phases` -- and inventories those constructs per
function and per line.

Three consumers sit on top of the analyzer:

* ``frfc-analyze hotpath`` prints the per-model inventory and emits a
  machine-readable ``frfc-hotpath/1`` budget (counts per category per
  model).  The committed budget (``benchmarks/results/HOTPATH_baseline.json``)
  plus ``--check-budget`` form the CI regression gate: a PR that introduces
  a *new* hot-path allocation site above budget fails loudly.
* ``--verify`` cross-checks the static pass against reality: it steps a
  short seeded workload under :mod:`tracemalloc` and demands that the
  statically discovered hot functions (plus the known hook-reached
  collector/payload modules) account for nearly all observed allocation
  events -- the same prove-it-at-runtime backing the race detector gets
  from the order-permutation differ.

Categories
==========

====================  =======================================================
category              meaning
====================  =======================================================
``list_display``      a ``[...]`` literal evaluated on the hot path
``dict_display``      a ``{k: v}`` literal
``set_display``       a ``{...}`` literal
``tuple_display``     a non-constant tuple display (cheap; advisory only)
``comprehension``     list/set/dict comprehension (allocates result + frame)
``genexpr``           generator expression (allocates a generator object)
``object_construction``  a call to a project class constructor
``closure``           a ``def``/``lambda`` nested in a hot function
``str_concat``        string ``+`` or f-string outside ``raise`` statements
``slotless_class``    a hot class (or base) without ``__slots__``
``hot_import``        an ``import`` executed inside a hot function
``attr_chain_loop``   an attribute chain (>= 2 links) read repeatedly in a
                      loop; bind it to a local before the loop
``isinstance_check``  ``isinstance`` used as per-cycle control flow
``try_except``        a ``try`` statement on the hot path
``hook_escape``       a call through a ``Callable`` attribute (observability
                      hooks, ejection callbacks) -- leaves the static tree
``opaque_call``       a method call on a receiver the analyzer cannot type
====================  =======================================================

Allocation findings raised inside ``raise`` statements are skipped: error
paths execute at most once per run, not per cycle.

Only the *budgeted* categories (:data:`BUDGETED_CATEGORIES`) gate CI; the
rest are advisory context for a human reading the report.
"""

from __future__ import annotations

import ast
import importlib.util
import tracemalloc
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.analysis.phases import (
    KNOWN_NETWORKS,
    AnalysisError,
    ClassInfo,
    SingleModuleResolver,
    SourceResolver,
    _annotation_text,
    _find_actor_collections,
)

if TYPE_CHECKING:
    from repro.sim.netbase import NetworkModel

__all__ = [
    "ALL_CATEGORIES",
    "BUDGETED_CATEGORIES",
    "BUDGET_SCHEMA",
    "HotFunction",
    "HotPathFinding",
    "ModelHotPathReport",
    "VerifyReport",
    "analyze_hot_model",
    "analyze_hot_networks",
    "analyze_module_hotpath_source",
    "build_budget",
    "check_budget",
    "verify_allocations",
]

BUDGET_SCHEMA = "frfc-hotpath/1"

#: Allocation-site categories (the per-cycle garbage the issue targets).
ALLOCATION_CATEGORIES: tuple[str, ...] = (
    "list_display",
    "dict_display",
    "set_display",
    "tuple_display",
    "comprehension",
    "genexpr",
    "object_construction",
    "closure",
    "str_concat",
)

#: Structural findings about the hot set itself.
STRUCTURAL_CATEGORIES: tuple[str, ...] = ("slotless_class", "hot_import")

#: Advisory context: not gated, but worth a human's attention.
ADVISORY_CATEGORIES: tuple[str, ...] = (
    "attr_chain_loop",
    "isinstance_check",
    "try_except",
    "hook_escape",
    "opaque_call",
)

ALL_CATEGORIES: tuple[str, ...] = (
    ALLOCATION_CATEGORIES + STRUCTURAL_CATEGORIES + ADVISORY_CATEGORIES
)

#: Categories the CI budget gate enforces.  Tuple displays are excluded
#: (CPython builds small tuples cheaply and folds constant ones); the
#: advisory categories are excluded because they flag *style*, not garbage.
BUDGETED_CATEGORIES: tuple[str, ...] = (
    "list_display",
    "dict_display",
    "set_display",
    "comprehension",
    "genexpr",
    "object_construction",
    "closure",
    "str_concat",
    "slotless_class",
    "hot_import",
)

#: Container/stdlib method names whose receivers are usually builtin
#: containers; calls to these on an untyped receiver are not "escapes".
_STDLIB_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "copy", "count", "discard",
        "endswith", "extend", "format", "get", "index", "insert", "items",
        "join", "keys", "pop", "popleft", "remove", "reverse", "rstrip",
        "setdefault", "sort", "split", "startswith", "strip", "update",
        "values",
    }
)

#: Modules reached only through hooks/payloads during a run (the latency and
#: throughput collectors fed by the ejection callbacks, and the packet
#: payload bookkeeping).  ``--verify`` attributes their allocations to the
#: hook bucket rather than calling them unexplained.
_HOOK_FILE_SUFFIXES: tuple[str, ...] = (
    "stats/collectors.py",
    "stats/streaming.py",
    "traffic/packet.py",
)

ClassKey = tuple[str, str]


@dataclass(frozen=True)
class HotFunction:
    """One function/method statically reachable from a model's ``step()``."""

    module: str
    qualname: str
    path: str
    line: int
    end_line: int


@dataclass(frozen=True)
class HotPathFinding:
    """One construct of interest at one line of a hot function."""

    category: str
    module: str
    path: str
    qualname: str
    line: int
    in_loop: bool
    detail: str

    def format(self) -> str:
        loop = " [in loop]" if self.in_loop else ""
        return f"{self.path}:{self.line}: {self.category} in {self.qualname}: {self.detail}{loop}"


@dataclass
class ModelHotPathReport:
    """The hot-set inventory of one network model."""

    label: str
    module: str
    class_name: str
    hot_functions: list[HotFunction]
    hot_classes: list[str]
    findings: list[HotPathFinding]

    def counts(self) -> dict[str, int]:
        """Finding counts per category (zeros included, stable order)."""
        counts = {category: 0 for category in ALL_CATEGORIES}
        for finding in self.findings:
            counts[finding.category] += 1
        return counts

    def format(self, verbose: bool = False) -> str:
        files = {fn.path for fn in self.hot_functions}
        lines = [
            f"hot path of {self.label} ({self.module}:{self.class_name}):",
            f"  {len(self.hot_functions)} hot functions in {len(files)} files, "
            f"{len(self.hot_classes)} hot classes",
        ]
        counts = self.counts()
        flagged = [c for c in ALL_CATEGORIES if counts[c]]
        if not flagged:
            lines.append("  no findings")
        for category in flagged:
            gate = "  (budgeted)" if category in BUDGETED_CATEGORIES else ""
            lines.append(f"  {category:<20} {counts[category]:>4}{gate}")
        if verbose:
            for finding in sorted(
                self.findings, key=lambda f: (f.path, f.line, f.category)
            ):
                lines.append(f"    {finding.format()}")
            for fn in sorted(self.hot_functions, key=lambda f: (f.path, f.line)):
                lines.append(
                    f"    hot: {fn.qualname} ({fn.path}:{fn.line}-{fn.end_line})"
                )
        return "\n".join(lines)


@dataclass
class _ClassModel:
    """Statically inferred attribute types of one class (along its MRO)."""

    key: ClassKey
    attr_types: dict[str, frozenset[ClassKey]]
    callable_attrs: frozenset[str]
    #: Dispatch-slot aliases: ``self.X = self._Y`` (possibly conditional)
    #: where ``_Y`` is a method -- calls through ``X`` reach every ``_Y``.
    method_aliases: dict[str, frozenset[str]]


class HotPathAnalyzer:
    """Walks one model's ``step()`` call tree and inventories its cost.

    The walk is an over-approximation: attribute types are inferred from
    annotations and ``__init__`` assignments, containers are approximated
    by their element types (indexing/iterating a ``list[FRRouter]`` yields
    an ``FRRouter``), and dynamic dispatch is closed over by re-walking
    statically known subclasses that override a hot method.  Dispatch-slot
    attributes (``self.X = self._Y_plain``/``self._Y_observed`` rebound at
    hook attach/detach) are followed to *every* method they can be bound
    to.  Calls the
    analyzer cannot resolve are reported (``hook_escape``/``opaque_call``)
    rather than silently dropped, and the ``--verify`` tracemalloc mode
    checks the closure against observed allocations.
    """

    def __init__(self, info: ClassInfo, label: str | None = None) -> None:
        self.info = info
        self.label = label or info.name
        self.resolver = info.resolver
        self._resolved: dict[ClassKey, ClassInfo] = {}
        self._class_models: dict[ClassKey, _ClassModel] = {}
        self._seen_modules: set[str] = set()
        self._origins: dict[str, str] = {}
        self._worklist: list[tuple[ClassKey | None, str, str]] = []
        self._visited_methods: set[tuple[ClassKey, str]] = set()
        self._visited_functions: set[tuple[str, str]] = set()
        self._recorded_functions: set[tuple[str, str]] = set()
        self._hot_methods: set[tuple[ClassKey, str]] = set()
        self.hot_functions: list[HotFunction] = []
        self.findings: list[HotPathFinding] = []

    # -- public entry point -------------------------------------------------

    def analyze(self) -> ModelHotPathReport:
        if self.info.method("step") is None:
            raise AnalysisError(
                f"{self.info.module}.{self.info.name} has no step() method"
            )
        self._register(self.info)
        self._enqueue_method((self.info.module, self.info.name), "step")
        # Drain, then close over statically known subclass overrides of hot
        # methods (virtual dispatch), until a fixpoint.
        for _ in range(32):
            self._drain()
            if not self._expand_subclasses():
                break
        self._check_slots()
        unique_keys = dict.fromkeys(key for key, _ in sorted(self._hot_methods))
        hot_classes = sorted(f"{module}:{name}" for (module, name) in unique_keys)
        return ModelHotPathReport(
            label=self.label,
            module=self.info.module,
            class_name=self.info.name,
            hot_functions=sorted(
                self.hot_functions, key=lambda f: (f.path, f.line)
            ),
            hot_classes=hot_classes,
            findings=self.findings,
        )

    # -- resolution helpers -------------------------------------------------

    def _register(self, info: ClassInfo) -> None:
        self._resolved.setdefault((info.module, info.name), info)
        self._seen_modules.add(info.module)

    def _resolve(self, name: str, module: str) -> ClassInfo | None:
        info = self.resolver.resolve_class(name, module)
        if info is not None:
            self._register(info)
        return info

    def _resolve_function(
        self, name: str, module: str, _depth: int = 0
    ) -> tuple[ast.FunctionDef, str] | None:
        if _depth > 8:
            return None
        tree = self.resolver.module_ast(module)
        if tree is None:
            return None
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
                return stmt, module
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module:
                for alias in stmt.names:
                    if (alias.asname or alias.name) == name:
                        return self._resolve_function(
                            alias.name, stmt.module, _depth + 1
                        )
        return None

    def _find_method(
        self, info: ClassInfo, name: str
    ) -> tuple[ast.FunctionDef, ClassInfo] | None:
        for cls in info.mro():
            for stmt in cls.node.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
                    return stmt, cls
        return None

    def _module_path(self, module: str) -> str:
        if module in self._origins:
            return self._origins[module]
        if module.startswith("<file:") and module.endswith(">"):
            path = module[len("<file:") : -1]
        else:
            try:
                spec = importlib.util.find_spec(module)
            except (ImportError, ValueError):
                spec = None
            path = spec.origin if spec is not None and spec.origin else "<unknown>"
        self._origins[module] = path
        return path

    # -- class models (attribute type inference) ----------------------------

    def _class_model(self, key: ClassKey) -> _ClassModel | None:
        if key in self._class_models:
            return self._class_models[key]
        info = self._resolved.get(key)
        if info is None:
            return None
        attr_types: dict[str, set[ClassKey]] = {}
        callable_attrs: set[str] = set()
        method_aliases: dict[str, set[str]] = {}
        for member in info.mro():
            self._register(member)
            for stmt in member.node.body:
                if not isinstance(stmt, ast.FunctionDef):
                    continue
                param_ann = {
                    arg.arg: arg.annotation
                    for arg in list(stmt.args.args) + stmt.args.kwonlyargs
                    if arg.annotation is not None
                }
                for node in ast.walk(stmt):
                    if isinstance(node, ast.AnnAssign):
                        attr = self._self_attr(node.target)
                        if attr is None:
                            continue
                        if "Callable" in _annotation_text(node.annotation):
                            callable_attrs.add(attr)
                            continue
                        types = self._classes_in_annotation(
                            node.annotation, member.module
                        )
                        if node.value is not None:
                            types |= self._classes_in_expr(
                                node.value, member.module, param_ann
                            )
                        attr_types.setdefault(attr, set()).update(types)
                    elif isinstance(node, ast.Assign):
                        for target in node.targets:
                            attr = self._self_attr(target)
                            if attr is None:
                                continue
                            if (
                                isinstance(node.value, ast.Name)
                                and node.value.id in param_ann
                                and "Callable"
                                in _annotation_text(param_ann[node.value.id])
                            ):
                                callable_attrs.add(attr)
                                continue
                            targets = self._method_refs_in(node.value, info)
                            if targets:
                                method_aliases.setdefault(attr, set()).update(
                                    targets
                                )
                                continue
                            attr_types.setdefault(attr, set()).update(
                                self._classes_in_expr(
                                    node.value, member.module, param_ann
                                )
                            )
        model = _ClassModel(
            key=key,
            attr_types={k: frozenset(v) for k, v in attr_types.items()},
            callable_attrs=frozenset(callable_attrs),
            method_aliases={
                k: frozenset(v) for k, v in method_aliases.items()
            },
        )
        self._class_models[key] = model
        return model

    @staticmethod
    def _self_attr(target: ast.expr) -> str | None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr
        return None

    def _method_refs_in(self, value: ast.expr, info: ClassInfo) -> frozenset[str]:
        """Dispatch targets of an assigned value that is a method reference.

        Captures dispatch-slot rebinding like
        ``self.accept = self._accept_observed if hook else self._accept_plain``.
        The value must *be* a method reference -- a bare ``self.Y`` or a
        conditional expression over them -- not merely contain one (a method
        passed as a constructor argument is a callback, not a rebinding).
        """
        if isinstance(value, ast.Attribute):
            attr = self._self_attr(value)
            if attr is not None and self._find_method(info, attr) is not None:
                return frozenset({attr})
            return frozenset()
        if isinstance(value, ast.IfExp):
            return self._method_refs_in(value.body, info) | self._method_refs_in(
                value.orelse, info
            )
        if isinstance(value, ast.BoolOp):
            refs: frozenset[str] = frozenset()
            for operand in value.values:
                refs |= self._method_refs_in(operand, info)
            return refs
        return frozenset()

    def _classes_in_annotation(
        self, annotation: ast.expr | None, module: str
    ) -> frozenset[ClassKey]:
        if annotation is None:
            return frozenset()
        keys: set[ClassKey] = set()
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name):
                info = self._resolve(node.id, module)
                if info is not None:
                    keys.add((info.module, info.name))
        return frozenset(keys)

    def _classes_in_expr(
        self,
        value: ast.expr,
        module: str,
        param_ann: dict[str, ast.expr | None],
    ) -> frozenset[ClassKey]:
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            info = self._resolve(value.func.id, module)
            return frozenset({(info.module, info.name)}) if info else frozenset()
        if isinstance(value, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._classes_in_expr(value.elt, module, param_ann)
        if isinstance(value, ast.DictComp):
            return self._classes_in_expr(value.value, module, param_ann)
        if isinstance(value, ast.IfExp):
            return self._classes_in_expr(
                value.body, module, param_ann
            ) | self._classes_in_expr(value.orelse, module, param_ann)
        if isinstance(value, ast.Name) and value.id in param_ann:
            return self._classes_in_annotation(param_ann[value.id], module)
        if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
            out: frozenset[ClassKey] = frozenset()
            for elt in value.elts:
                out |= self._classes_in_expr(elt, module, param_ann)
            return out
        if isinstance(value, ast.BinOp):
            return self._classes_in_expr(
                value.left, module, param_ann
            ) | self._classes_in_expr(value.right, module, param_ann)
        return frozenset()

    # -- the walk -----------------------------------------------------------

    def _enqueue_method(self, key: ClassKey, name: str) -> None:
        if (key, name) in self._visited_methods:
            return
        self._visited_methods.add((key, name))
        self._worklist.append((key, "", name))

    def _enqueue_function(self, module: str, name: str) -> None:
        if (module, name) in self._visited_functions:
            return
        self._visited_functions.add((module, name))
        self._worklist.append((None, module, name))

    def _drain(self) -> None:
        while self._worklist:
            key, module, name = self._worklist.pop(0)
            if key is not None:
                self._walk_method(key, name)
            else:
                self._walk_module_function(module, name)

    def _walk_method(self, key: ClassKey, name: str) -> None:
        info = self._resolved.get(key)
        if info is None:
            return
        found = self._find_method(info, name)
        if found is None:
            return
        func, owner = found
        self._hot_methods.add((key, name))
        qualname = f"{owner.name}.{name}"
        self._record_hot_function(owner.module, qualname, func)
        model = self._class_model(key)
        self._walk_function(func, owner.module, model)

    def _walk_module_function(self, module: str, name: str) -> None:
        resolved = self._resolve_function(name, module)
        if resolved is None:
            return
        func, owner_module = resolved
        self._seen_modules.add(owner_module)
        self._record_hot_function(owner_module, name, func)
        self._walk_function(func, owner_module, None)

    def _record_hot_function(
        self, module: str, qualname: str, func: ast.FunctionDef
    ) -> None:
        fkey = (module, qualname)
        if fkey in self._recorded_functions:
            return
        self._recorded_functions.add(fkey)
        path = self._module_path(module)
        self.hot_functions.append(
            HotFunction(
                module=module,
                qualname=qualname,
                path=path,
                line=func.lineno,
                end_line=func.end_lineno or func.lineno,
            )
        )
        self._scan_function(func, module, path, qualname)

    def _walk_function(
        self, func: ast.FunctionDef, module: str, model: _ClassModel | None
    ) -> None:
        env = self._infer_locals(func, module, model)
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                self._resolve_call(node, module, model, env)

    def _infer_locals(
        self, func: ast.FunctionDef, module: str, model: _ClassModel | None
    ) -> dict[str, frozenset[ClassKey]]:
        env: dict[str, frozenset[ClassKey]] = {}
        if model is not None:
            env["self"] = frozenset({model.key})
        for arg in list(func.args.args) + func.args.kwonlyargs:
            if arg.annotation is not None and arg.arg != "self":
                env[arg.arg] = self._classes_in_annotation(arg.annotation, module)
        # Flow-insensitive fixpoint: assignment chains like
        # ``table = self.out_tables[port]; slot = table.find_departure(...)``
        # converge in a couple of rounds.
        for _ in range(4):
            changed = False
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    types = self._expr_types(node.value, module, env)
                    for target in node.targets:
                        changed |= self._bind_target(target, types, env)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    types = self._classes_in_annotation(node.annotation, module)
                    if node.value is not None:
                        types |= self._expr_types(node.value, module, env)
                    changed |= self._bind_target(node.target, types, env)
                elif isinstance(node, ast.For):
                    types = self._expr_types(node.iter, module, env)
                    changed |= self._bind_target(node.target, types, env)
                elif isinstance(node, ast.comprehension):
                    types = self._expr_types(node.iter, module, env)
                    changed |= self._bind_target(node.target, types, env)
            if not changed:
                break
        return env

    def _bind_target(
        self,
        target: ast.expr,
        types: frozenset[ClassKey],
        env: dict[str, frozenset[ClassKey]],
    ) -> bool:
        changed = False
        if isinstance(target, ast.Name):
            merged = env.get(target.id, frozenset()) | types
            if merged != env.get(target.id, frozenset()):
                env[target.id] = merged
                changed = True
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                changed |= self._bind_target(elt, types, env)
        return changed

    def _expr_types(
        self,
        expr: ast.expr,
        module: str,
        env: dict[str, frozenset[ClassKey]],
        _depth: int = 0,
    ) -> frozenset[ClassKey]:
        if _depth > 12:
            return frozenset()
        if isinstance(expr, ast.Name):
            return env.get(expr.id, frozenset())
        if isinstance(expr, ast.Attribute):
            base = self._expr_types(expr.value, module, env, _depth + 1)
            return self._attr_types_on(base, expr.attr)
        if isinstance(expr, ast.Subscript):
            # Container-element approximation: indexing a list[FRRouter]
            # (whose inferred type set is {FRRouter}) yields an FRRouter.
            return self._expr_types(expr.value, module, env, _depth + 1)
        if isinstance(expr, ast.Call):
            return self._call_return_types(expr, module, env, _depth)
        if isinstance(expr, ast.IfExp):
            return self._expr_types(
                expr.body, module, env, _depth + 1
            ) | self._expr_types(expr.orelse, module, env, _depth + 1)
        if isinstance(expr, ast.BoolOp):
            out: frozenset[ClassKey] = frozenset()
            for value in expr.values:
                out |= self._expr_types(value, module, env, _depth + 1)
            return out
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            elts: frozenset[ClassKey] = frozenset()
            for elt in expr.elts:
                elts |= self._expr_types(elt, module, env, _depth + 1)
            return elts
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._expr_types(expr.elt, module, env, _depth + 1)
        if isinstance(expr, ast.BinOp):
            return self._expr_types(
                expr.left, module, env, _depth + 1
            ) | self._expr_types(expr.right, module, env, _depth + 1)
        return frozenset()

    def _attr_types_on(
        self, keys: frozenset[ClassKey], attr: str
    ) -> frozenset[ClassKey]:
        out: set[ClassKey] = set()
        for key in sorted(keys):
            model = self._class_model(key)
            if model is not None:
                out |= model.attr_types.get(attr, frozenset())
        return frozenset(out)

    def _call_return_types(
        self,
        call: ast.Call,
        module: str,
        env: dict[str, frozenset[ClassKey]],
        _depth: int,
    ) -> frozenset[ClassKey]:
        if isinstance(call.func, ast.Name):
            info = self._resolve(call.func.id, module)
            if info is not None:
                return frozenset({(info.module, info.name)})
            resolved = self._resolve_function(call.func.id, module)
            if resolved is not None:
                func, owner_module = resolved
                return self._classes_in_annotation(func.returns, owner_module)
            return frozenset()
        if isinstance(call.func, ast.Attribute):
            receiver = self._expr_types(call.func.value, module, env, _depth + 1)
            out: set[ClassKey] = set()
            for key in receiver:
                info = self._resolved.get(key)
                if info is None:
                    continue
                found = self._find_method(info, call.func.attr)
                if found is not None:
                    func, owner = found
                    out |= self._classes_in_annotation(func.returns, owner.module)
            return frozenset(out)
        return frozenset()

    def _resolve_call(
        self,
        call: ast.Call,
        module: str,
        model: _ClassModel | None,
        env: dict[str, frozenset[ClassKey]],
    ) -> None:
        callee = call.func
        if isinstance(callee, ast.Name):
            if self._resolve(callee.id, module) is not None:
                return  # construction; inventoried by the syntactic scan
            resolved = self._resolve_function(callee.id, module)
            if resolved is not None:
                _, owner_module = resolved
                self._enqueue_function(owner_module, callee.id)
            return
        if not isinstance(callee, ast.Attribute):
            return
        receiver_types = self._expr_types(callee.value, module, env)
        name = callee.attr
        dispatched = False
        for key in sorted(receiver_types):
            info = self._resolved.get(key)
            if info is None:
                continue
            receiver_model = self._class_model(key)
            if receiver_model is not None and name in receiver_model.callable_attrs:
                self._finding(
                    "hook_escape",
                    module,
                    call,
                    self._qualname_of(call, module),
                    f"call through Callable attribute '{name}'",
                )
                dispatched = True
                continue
            if self._find_method(info, name) is not None:
                self._enqueue_method(key, name)
                dispatched = True
                continue
            if receiver_model is not None:
                # Dispatch-slot alias: the attribute is rebound to one of a
                # known set of methods; walk every possible target.
                for target in sorted(receiver_model.method_aliases.get(name, ())):
                    self._enqueue_method(key, target)
                    dispatched = True
        if not receiver_types and name not in _STDLIB_METHODS:
            self._finding(
                "opaque_call",
                module,
                call,
                self._qualname_of(call, module),
                f"cannot type receiver of .{name}(); call escapes the static tree",
            )
        del dispatched

    def _qualname_of(self, node: ast.AST, module: str) -> str:
        # Findings raised during the semantic walk carry the enclosing hot
        # function's qualname; the syntactic scan already knows it, so this
        # lookup is only for call-resolution findings.
        lineno = getattr(node, "lineno", 0)
        for fn in self.hot_functions:
            if fn.module == module and fn.line <= lineno <= fn.end_line:
                return fn.qualname
        return "<module>"

    # -- virtual dispatch closure -------------------------------------------

    def _expand_subclasses(self) -> bool:
        # Register every class in every module the walk has touched, then
        # enqueue subclass overrides of hot methods.
        for module in sorted(self._seen_modules):
            tree = self.resolver.module_ast(module)
            if tree is None:
                continue
            for stmt in tree.body:
                if isinstance(stmt, ast.ClassDef):
                    self._resolve(stmt.name, module)
        added = False
        hot = list(self._hot_methods)
        for key, info in list(self._resolved.items()):
            ancestors = {(c.module, c.name) for c in info.mro()} - {key}
            own = {
                s.name for s in info.node.body if isinstance(s, ast.FunctionDef)
            }
            for hot_key, method in hot:
                if (
                    hot_key in ancestors
                    and method in own
                    and (key, method) not in self._visited_methods
                ):
                    self._enqueue_method(key, method)
                    added = True
        return added

    # -- __slots__ audit ----------------------------------------------------

    def _check_slots(self) -> None:
        flagged: set[ClassKey] = set()
        for key in sorted({k for k, _ in sorted(self._hot_methods)}):
            info = self._resolved.get(key)
            if info is None or self._slots_exempt(info):
                continue
            for member in info.mro():
                member_key = (member.module, member.name)
                if member_key in flagged or self._slots_exempt(member):
                    continue
                if not self._has_slots(member.node):
                    flagged.add(member_key)
                    role = "" if member_key == key else f" (base of {info.name})"
                    self._append_finding(
                        HotPathFinding(
                            category="slotless_class",
                            module=member.module,
                            path=self._module_path(member.module),
                            qualname=member.name,
                            line=member.node.lineno,
                            in_loop=False,
                            detail=f"hot class {member.name}{role} has no __slots__",
                        )
                    )

    def _slots_exempt(self, info: ClassInfo) -> bool:
        # Networks (anything with a step()) are stepped once, not per-actor;
        # exceptions and Protocols never live on the per-cycle path.
        if info.method("step") is not None:
            return True
        if info.name.endswith(("Error", "Exception", "Warning")):
            return True
        for base in info.node.bases:
            if isinstance(base, ast.Name) and base.id in (
                "Protocol",
                "Exception",
                "BaseException",
            ):
                return True
        return False

    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        return True
            elif isinstance(stmt, ast.AnnAssign):
                if (
                    isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "__slots__"
                ):
                    return True
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "slots"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        return True
        return False

    # -- syntactic per-function scan ----------------------------------------

    def _finding(
        self,
        category: str,
        module: str,
        node: ast.AST,
        qualname: str,
        detail: str,
        in_loop: bool = False,
    ) -> None:
        self._append_finding(
            HotPathFinding(
                category=category,
                module=module,
                path=self._module_path(module),
                qualname=qualname,
                line=getattr(node, "lineno", 0),
                in_loop=in_loop,
                detail=detail,
            )
        )

    def _append_finding(self, finding: HotPathFinding) -> None:
        if finding not in self.findings:
            self.findings.append(finding)

    def _scan_function(
        self, func: ast.FunctionDef, module: str, path: str, qualname: str
    ) -> None:
        for stmt in func.body:
            self._scan_node(stmt, module, qualname, in_loop=False, in_raise=False)
        self._scan_attr_chains(func, module, qualname)

    def _scan_node(
        self,
        node: ast.AST,
        module: str,
        qualname: str,
        in_loop: bool,
        in_raise: bool,
    ) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            in_loop = True
        elif isinstance(node, ast.Raise):
            in_raise = True
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            self._finding(
                "closure", module, node, qualname, "nested function/lambda", in_loop
            )
        elif isinstance(node, ast.Try):
            self._finding(
                "try_except", module, node, qualname, "try/except on hot path", in_loop
            )
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            self._finding(
                "hot_import", module, node, qualname,
                "import executed on the hot path; hoist to module level", in_loop,
            )
        elif not in_raise:
            self._scan_allocation(node, module, qualname, in_loop)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            in_loop = True  # the element expression runs per iteration
        for child in ast.iter_child_nodes(node):
            self._scan_node(child, module, qualname, in_loop, in_raise)

    def _scan_allocation(
        self, node: ast.AST, module: str, qualname: str, in_loop: bool
    ) -> None:
        if isinstance(node, (ast.List, ast.Set)) and isinstance(
            getattr(node, "ctx", ast.Load()), ast.Load
        ):
            category = "list_display" if isinstance(node, ast.List) else "set_display"
            self._finding(category, module, node, qualname, ast.unparse(node), in_loop)
        elif isinstance(node, ast.Dict):
            self._finding(
                "dict_display", module, node, qualname, ast.unparse(node), in_loop
            )
        elif isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load):
            # Constant tuples are folded by the compiler; skip them.
            if not all(isinstance(elt, ast.Constant) for elt in node.elts):
                self._finding(
                    "tuple_display", module, node, qualname, ast.unparse(node), in_loop
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            self._finding(
                "comprehension", module, node, qualname, ast.unparse(node), in_loop
            )
        elif isinstance(node, ast.GeneratorExp):
            self._finding(
                "genexpr", module, node, qualname, ast.unparse(node), in_loop
            )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "isinstance":
                self._finding(
                    "isinstance_check", module, node, qualname,
                    "isinstance as per-cycle control flow", in_loop,
                )
            elif self._resolve(node.func.id, module) is not None:
                self._finding(
                    "object_construction", module, node, qualname,
                    f"constructs {node.func.id}", in_loop,
                )
        elif isinstance(node, ast.JoinedStr):
            self._finding(
                "str_concat", module, node, qualname, "f-string on hot path", in_loop
            )
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            if any(
                isinstance(side, ast.Constant) and isinstance(side.value, str)
                for side in (node.left, node.right)
            ):
                self._finding(
                    "str_concat", module, node, qualname,
                    "string concatenation on hot path", in_loop,
                )

    # -- repeated attribute chains in loops ---------------------------------

    def _scan_attr_chains(
        self, func: ast.FunctionDef, module: str, qualname: str
    ) -> None:
        reported: set[str] = set()
        for loop in ast.walk(func):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            assigned = {
                n.id
                for n in ast.walk(loop)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }
            tallies: dict[str, tuple[int, int]] = {}
            for chain, root, lineno in self._chains_in(loop):
                if root in assigned:
                    continue
                count, first = tallies.get(chain, (0, lineno))
                tallies[chain] = (count + 1, min(first, lineno))
            for chain, (count, first) in sorted(tallies.items()):
                if count < 2 or chain in reported:
                    continue
                reported.add(chain)
                self._append_finding(
                    HotPathFinding(
                        category="attr_chain_loop",
                        module=module,
                        path=self._module_path(module),
                        qualname=qualname,
                        line=first,
                        in_loop=True,
                        detail=f"'{chain}' looked up {count}x in one loop; "
                        "bind it to a local",
                    )
                )

    def _chains_in(self, root: ast.AST) -> list[tuple[str, str, int]]:
        chains: list[tuple[str, str, int]] = []

        def collect(node: ast.AST) -> None:
            if isinstance(node, ast.Call):
                # For method calls, only the receiver chain repeats work;
                # the trailing method attribute is the call itself.
                if isinstance(node.func, ast.Attribute):
                    collect(node.func.value)
                else:
                    collect(node.func)
                for arg in node.args:
                    collect(arg)
                for keyword in node.keywords:
                    collect(keyword.value)
                return
            if isinstance(node, ast.Attribute):
                chain = self._pure_chain(node)
                if chain is not None:
                    name, parts = chain
                    if len(parts) >= 2:
                        chains.append(
                            (f"{name}.{'.'.join(parts)}", name, node.lineno)
                        )
                    return
                collect(node.value)
                return
            for child in ast.iter_child_nodes(node):
                collect(child)

        collect(root)
        return chains

    @staticmethod
    def _pure_chain(node: ast.Attribute) -> tuple[str, list[str]] | None:
        parts: list[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.reverse()
        return current.id, parts


# ---------------------------------------------------------------------------
# Whole-model and single-file entry points
# ---------------------------------------------------------------------------


def analyze_hot_model(
    module: str,
    class_name: str,
    label: str | None = None,
    resolver: SourceResolver | None = None,
) -> ModelHotPathReport:
    """Analyze one network model given as ``dotted.module:ClassName``."""
    resolver = resolver or SourceResolver()
    info = resolver.resolve_class(class_name, module)
    if info is None:
        raise AnalysisError(f"cannot resolve {module}:{class_name}")
    return HotPathAnalyzer(info, label=label or class_name).analyze()


def analyze_hot_networks() -> list[ModelHotPathReport]:
    """Analyze the three shipped network models (FR, VC, wormhole)."""
    resolver = SourceResolver()
    return [
        analyze_hot_model(module, class_name, label=label, resolver=resolver)
        for label, module, class_name in KNOWN_NETWORKS
    ]


def analyze_module_hotpath_source(source: str, path: str) -> list[HotPathFinding]:
    """Single-file analysis, from source text (how tests feed it fixtures).

    Only models whose ``step()`` class *and* actor collection classes all
    live in the file are analyzed.  Models with imported actors are skipped
    here -- the whole-model ``frfc_analyze hotpath`` pass (and its committed
    budget) covers those.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return []
    module = f"<file:{path}>"
    resolver = SingleModuleResolver(module, tree)
    local_classes = {
        stmt.name for stmt in tree.body if isinstance(stmt, ast.ClassDef)
    }
    findings: list[HotPathFinding] = []
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        info = ClassInfo(name=stmt.name, module=module, node=stmt, resolver=resolver)
        if info.method("step") is None or info.method("__init__") is None:
            continue
        collections = _find_actor_collections(info)
        if not collections:
            continue
        if not all(c.class_name in local_classes for c in collections):
            continue
        findings.extend(HotPathAnalyzer(info, label=stmt.name).analyze().findings)
    return findings


# ---------------------------------------------------------------------------
# Budget (the CI gate's file format)
# ---------------------------------------------------------------------------


def build_budget(reports: Iterable[ModelHotPathReport]) -> dict[str, Any]:
    """The ``frfc-hotpath/1`` budget document for a set of model reports."""
    return {
        "schema": BUDGET_SCHEMA,
        "models": {
            report.label: {
                "module": report.module,
                "class": report.class_name,
                "hot_functions": len(report.hot_functions),
                "hot_classes": len(report.hot_classes),
                "categories": report.counts(),
            }
            for report in reports
        },
    }


def check_budget(
    reports: Sequence[ModelHotPathReport],
    budget: dict[str, Any],
    fail_on_slack: bool = False,
) -> tuple[list[str], list[str]]:
    """Compare fresh reports against a recorded budget.

    Returns ``(violations, notes)``: a violation is a budgeted category
    whose fresh count *exceeds* the recorded budget (or a model the budget
    does not know); a note is informational (a category that improved and
    could be re-recorded tighter, or a stale model in the budget).  With
    ``fail_on_slack``, slack is a violation too: the committed budget must
    match what the analyzer measures exactly, so every improvement gets
    locked in by re-recording instead of silently eroding the gate.
    """
    violations: list[str] = []
    notes: list[str] = []
    if budget.get("schema") != BUDGET_SCHEMA:
        violations.append(
            f"unexpected budget schema {budget.get('schema')!r}; "
            f"expected {BUDGET_SCHEMA!r}"
        )
        return violations, notes
    models = budget.get("models", {})
    fresh_labels = {report.label for report in reports}
    for report in reports:
        entry = models.get(report.label)
        if entry is None:
            violations.append(
                f"model {report.label} is missing from the budget; re-record it"
            )
            continue
        recorded = entry.get("categories", {})
        counts = report.counts()
        for category in BUDGETED_CATEGORIES:
            allowed = int(recorded.get(category, 0))
            fresh = counts[category]
            if fresh > allowed:
                violations.append(
                    f"{report.label}: {category} count {fresh} exceeds the "
                    f"recorded budget of {allowed} -- new hot-path "
                    f"{category.replace('_', ' ')} site(s); remove them or "
                    "re-record the budget with intent"
                )
            elif fresh < allowed:
                if fail_on_slack:
                    violations.append(
                        f"{report.label}: {category} improved ({fresh} < "
                        f"budget {allowed}) but the committed budget was not "
                        "tightened; re-record it to lock in the win"
                    )
                else:
                    notes.append(
                        f"{report.label}: {category} improved ({fresh} < budget "
                        f"{allowed}); consider re-recording to lock in the win"
                    )
    for label in models:
        if label not in fresh_labels:
            notes.append(f"budget lists model {label} which was not analyzed")
    return violations, notes


# ---------------------------------------------------------------------------
# Runtime cross-check (tracemalloc)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AllocationSite:
    """One observed allocation site tracemalloc could not attribute."""

    path: str
    line: int
    count: int
    size: int


@dataclass
class VerifyReport:
    """Outcome of the tracemalloc cross-check for one model."""

    label: str
    warmup: int
    cycles: int
    total_count: int
    hot_count: int
    hook_count: int
    unattributed: list[AllocationSite]
    threshold: float

    @property
    def coverage(self) -> float:
        if self.total_count == 0:
            return 0.0
        return (self.hot_count + self.hook_count) / self.total_count

    @property
    def passed(self) -> bool:
        return self.total_count > 0 and self.coverage >= self.threshold

    def format(self) -> str:
        verdict = "OK" if self.passed else "FAIL"
        lines = [
            f"tracemalloc cross-check for {self.label} "
            f"({self.cycles} cycles after {self.warmup} warm-up): {verdict}",
            f"  {self.total_count} allocation events in the simulator; "
            f"{self.hot_count} inside statically hot functions, "
            f"{self.hook_count} in hook-reached code "
            f"(coverage {self.coverage:.1%}, threshold {self.threshold:.1%})",
        ]
        for site in sorted(
            self.unattributed, key=lambda s: s.count, reverse=True
        )[:10]:
            lines.append(
                f"  unattributed: {site.path}:{site.line} "
                f"({site.count} events, {site.size} B)"
            )
        return "\n".join(lines)


def _build_network_for_label(
    label: str, offered_load: float, seed: int
) -> "NetworkModel":
    from repro.baselines.vc.config import VC8
    from repro.baselines.wormhole.network import WormholeConfig
    from repro.core.config import FR6
    from repro.harness.experiment import build_network
    from repro.topology.mesh import Mesh2D

    configs = {"FR": FR6, "VC": VC8, "WH": WormholeConfig(buffers_per_input=8)}
    if label not in configs:
        raise AnalysisError(f"no verify workload for model label {label!r}")
    return build_network(
        configs[label], offered_load, mesh=Mesh2D(4, 4), seed=seed
    )


def verify_allocations(
    report: ModelHotPathReport,
    warmup: int = 64,
    cycles: int = 192,
    offered_load: float = 0.5,
    seed: int = 1,
    threshold: float = 0.95,
) -> VerifyReport:
    """Step a short seeded 4x4 workload under tracemalloc and check that the
    static hot set accounts for (nearly) all observed allocation events.

    Warm-up cycles run untraced so steady-state per-cycle allocation is what
    gets measured.  Events are bucketed by their allocating Python line:
    inside a hot function's span ("hot"), elsewhere in a file the hot set
    touches or in the known hook-fed collector/payload modules ("hook" --
    code reached only through ``Callable`` attributes the static pass
    reports as ``hook_escape``), or unattributed.  Allocations outside the
    ``repro`` package (stdlib internals) are ignored.
    """
    import repro

    package_root = str(Path(repro.__file__).resolve().parent)
    spans: dict[str, list[tuple[int, int]]] = {}
    for fn in report.hot_functions:
        resolved = str(Path(fn.path).resolve())
        spans.setdefault(resolved, []).append((fn.line, fn.end_line))

    network = _build_network_for_label(report.label, offered_load, seed)
    for cycle in range(warmup):
        network.step(cycle)
    tracemalloc.start(1)
    try:
        for cycle in range(warmup, warmup + cycles):
            network.step(cycle)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    total = hot = hook = 0
    unattributed: list[AllocationSite] = []
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        path = str(Path(frame.filename).resolve())
        if not path.startswith(package_root):
            continue
        total += stat.count
        if any(lo <= frame.lineno <= hi for lo, hi in spans.get(path, ())):
            hot += stat.count
        elif path in spans or path.endswith(_HOOK_FILE_SUFFIXES):
            hook += stat.count
        else:
            unattributed.append(
                AllocationSite(
                    path=path, line=frame.lineno, count=stat.count, size=stat.size
                )
            )
    return VerifyReport(
        label=report.label,
        warmup=warmup,
        cycles=cycles,
        total_count=total,
        hot_count=hot,
        hook_count=hook,
        unattributed=unattributed,
        threshold=threshold,
    )
