"""Whole-program determinism & isolation prover (``frfc-analyze isolation``).

The ROADMAP's parallel sweep fabric will farm ``run_experiment`` points out
to a process pool and merge digests that must be byte-identical to a serial
run.  That is only sound if every sweep point is a pure function of
``(config, seed, load)`` -- no mutable state shared between points, no
ambient randomness, no iteration order that depends on hashes or object
identity.  This module proves that property statically, in the same
"analyze the whole reachable tree, emit a checkable certificate, gate CI"
shape as the cdg deadlock prover:

1. **Reachability** -- starting from an entry point (``run_experiment`` per
   model, ``run_load_sweep``), compute the import closure of ``repro.*``
   modules at module granularity.  Import statements anywhere in a module
   are followed (including function-level lazy imports); the body of a
   bare ``if TYPE_CHECKING:`` is skipped (it never executes), while
   ``if not TYPE_CHECKING:`` and compound tests count in full.  Per-model
   trees stop at the *other* models' config/network modules so a finding in
   the VC arbiter does not invalidate the FR certificate.  Parent-package
   ``__init__`` modules are import-time re-export plumbing and are not
   added unless imported by name.

2. **Global-state inventory** (pass 1) -- every module-level and
   class-level mutable binding (list/dict/set displays, calls to the
   mutable factories) in the scanned tree is classified *read-only*,
   *written* (``global`` rebinds, mutator-method calls, subscript or
   attribute stores), or *escaping* (the bare name returned, yielded, or
   passed whole to a reference-retaining callee -- any alias handed out can
   be mutated later).  ``functools`` caches and mutable default arguments
   are memoization in disguise and are flagged directly.

3. **RNG provenance** (pass 2) -- every stochastic draw must flow from an
   explicitly seeded :class:`repro.sim.rng.DeterministicRng`: the receiver
   traces to a ``DeterministicRng``-annotated parameter, an explicit
   ``DeterministicRng(...)`` construction, a ``.spawn(...)`` of a traced
   generator, or a ``self.<attr>`` assigned one of those along the class
   MRO.  Any use of the ambient ``random`` module, and any draw-named call
   whose receiver cannot be traced, is a finding.  ``repro/sim/rng.py``
   itself -- the one sanctioned wrapper around stdlib ``random`` -- is
   structurally exempt.

4. **Unordered iteration** (pass 3) -- iterating a set (display, ``set``
   call, or a set-typed name/attribute), keying maps by ``id()``/``hash()``,
   or sorting with ``key=id``/``key=hash`` makes element order depend on
   the process's hash seed or heap layout, which can leak into simulated
   state or exported artifacts.  ``sorted(...)`` wrappers are the fix and
   are naturally not flagged.  (Python dicts iterate in insertion order,
   which is deterministic; plain dict iteration is fine.)

The result is an ``frfc-isolation/1`` certificate: each entry point is
CERTIFIED (with the evidence -- modules scanned, globals classified
read-only, draws traced) or VIOLATED (with file:line findings).  The
committed baseline lives at ``benchmarks/results/ISOLATION_baseline.json``
and CI replays ``--check-budget`` against it.  :func:`verify_isolation` is
the dynamic witness: the same quick point replayed twice in-process and
once in a ``spawn``-ed subprocess must produce identical digests for all
three models.

Like the rest of :mod:`repro.analysis`, everything here reads the
simulator's modules as source text only -- nothing in the scanned tree is
executed.  The analysis is deliberately conservative: it over-approximates
escapes (handing a module-level container to an unknown callee counts) and
under-approximates aliasing through local rebinds; the order-permutation
differ and :func:`verify_isolation` backstop the gaps dynamically.

The per-file projections of passes 1-3 back the D011/D012/D013 lint rules
(see :mod:`repro.lint.rules`); the whole-program pass deliberately ignores
``# frfc-lint: disable=`` comments, so a suppressed sin still voids the
certificate if it is reachable from an entry point.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.analysis.imports import (
    MODEL_MODULES,
    RawImport,
    import_closure,
    module_origin,
    raw_imports,
)

CERT_SCHEMA = "frfc-isolation/1"

#: Verdicts.
CERTIFIED = "CERTIFIED"
VIOLATED = "VIOLATED"

#: Finding categories (certificate ``findings[].category`` values).
GLOBAL_WRITE = "global-write"
GLOBAL_ESCAPE = "global-escape"
CLASS_MUTABLE_WRITE = "class-mutable-write"
FUNCTOOLS_CACHE = "functools-cache"
DEFAULT_ALIAS = "default-alias"
RNG_UNTRACED = "rng-untraced"
UNORDERED_ITERATION = "unordered-iteration"
ID_KEYED = "id-keyed"

CATEGORIES = (
    GLOBAL_WRITE,
    GLOBAL_ESCAPE,
    CLASS_MUTABLE_WRITE,
    FUNCTOOLS_CACHE,
    DEFAULT_ALIAS,
    RNG_UNTRACED,
    UNORDERED_ITERATION,
    ID_KEYED,
)

#: Constructors whose result is a shared mutable container.
MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter", "OrderedDict"}
)

#: Method names assumed to mutate their receiver.
MUTATOR_METHODS = frozenset(
    {
        "append", "appendleft", "add", "insert", "extend", "extendleft",
        "remove", "discard", "pop", "popleft", "popitem", "clear", "update",
        "setdefault", "sort", "reverse", "write",
    }
)

#: Methods that *draw* from a generator (DeterministicRng's API plus the
#: stdlib ``random`` surface).  ``spawn`` is derivation, not a draw.
DRAW_METHODS = frozenset(
    {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "shuffled", "chance", "getrandbits", "randbytes",
        "gauss", "normalvariate", "expovariate", "betavariate", "triangular",
    }
)

#: Builtins that consume an argument without retaining a reference to it;
#: passing a module-level container to these is a read, not an escape.
NON_RETAINING_CALLEES = frozenset(
    {
        "len", "sorted", "list", "tuple", "dict", "set", "frozenset", "sum",
        "min", "max", "any", "all", "iter", "next", "enumerate", "zip", "map",
        "filter", "reversed", "repr", "str", "bool", "print", "isinstance",
        "format", "join", "id", "type", "hash",
    }
)

#: The sanctioned wrapper around stdlib ``random`` -- exempt from pass 2.
RNG_WRAPPER_SUFFIX = "sim/rng.py"

_ALL_MODEL_MODULES = frozenset(m for mods in MODEL_MODULES.values() for m in mods)

#: The certified entry points: (name, module, function, model-or-None).
ENTRY_POINTS: tuple[tuple[str, str, str, Optional[str]], ...] = (
    ("run_experiment[FR]", "repro.harness.experiment", "run_experiment", "FR"),
    ("run_experiment[VC]", "repro.harness.experiment", "run_experiment", "VC"),
    ("run_experiment[WH]", "repro.harness.experiment", "run_experiment", "WH"),
    ("run_load_sweep", "repro.harness.sweep", "run_load_sweep", None),
)


class IsolationError(Exception):
    """The entry point could not be analysed (unresolvable module)."""


@dataclass(frozen=True)
class IsolationFinding:
    """One isolation hazard, anchored to a file:line."""

    category: str
    path: str
    line: int
    qualname: str
    detail: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.category}] {self.qualname}: {self.detail}"

    def key(self) -> tuple[str, str, str, str]:
        """Identity for baseline comparison -- line numbers drift, so they
        are deliberately not part of the key."""
        return (self.category, self.path, self.qualname, self.detail)


@dataclass
class ModuleScan:
    """One module's contribution to an entry point's evidence."""

    module: str
    path: str
    read_only_globals: tuple[str, ...]
    traced_draws: int
    findings: tuple[IsolationFinding, ...]


@dataclass
class EntryPointReport:
    """Verdict plus evidence for one certified entry point."""

    name: str
    module: str
    function: str
    model: Optional[str]
    modules: tuple[str, ...]
    read_only_globals: tuple[str, ...]
    traced_draws: int
    findings: tuple[IsolationFinding, ...]

    @property
    def verdict(self) -> str:
        return VIOLATED if self.findings else CERTIFIED

    def render(self) -> str:
        lines = [
            f"{self.name}: {self.verdict}"
            f"  ({len(self.modules)} modules, "
            f"{len(self.read_only_globals)} read-only globals, "
            f"{self.traced_draws} draws traced)"
        ]
        for finding in self.findings:
            lines.append(f"  {finding.render()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Module resolution and import closure
# ---------------------------------------------------------------------------


@dataclass
class ClassInfo:
    """One class's AST plus enough context to resolve its bases."""

    name: str
    module: str
    node: ast.ClassDef
    resolver: "SourceResolver"

    def mro(self) -> list["ClassInfo"]:
        """This class followed by its resolvable base classes, in order."""
        chain: list[ClassInfo] = [self]
        seen = {(self.module, self.name)}
        frontier = [self]
        while frontier:
            current = frontier.pop(0)
            for base in current.node.bases:
                if not isinstance(base, ast.Name):
                    continue
                resolved = current.resolver.resolve_class(base.id, current.module)
                if resolved is None or (resolved.module, resolved.name) in seen:
                    continue
                seen.add((resolved.module, resolved.name))
                chain.append(resolved)
                frontier.append(resolved)
        return chain


class SourceResolver:
    """Loads and caches module ASTs by dotted name, without executing them.

    :meth:`module_source` is the one place a module's bytes are read, so
    whatever is parsed, walked for imports or reported with an origin is the
    same content.
    """

    def __init__(self) -> None:
        self._modules: dict[str, ast.Module | None] = {}
        self._imports: dict[str, list[RawImport] | None] = {}
        #: module -> the file it was read from.
        self.origins: dict[str, str] = {}

    def module_source(self, module: str) -> bytes | None:
        origin = module_origin(module)
        if origin is None:
            return None
        self.origins[module] = origin
        return Path(origin).read_bytes()

    def module_ast(self, module: str) -> ast.Module | None:
        if module not in self._modules:
            source = self.module_source(module)
            self._modules[module] = (
                None
                if source is None
                else ast.parse(source, filename=self.origins.get(module, module))
            )
        return self._modules[module]

    def module_imports(self, module: str) -> list[RawImport] | None:
        if module not in self._imports:
            tree = self.module_ast(module)
            self._imports[module] = None if tree is None else raw_imports(tree)
        return self._imports[module]

    def resolve_class(self, name: str, module: str) -> ClassInfo | None:
        """Find class ``name`` in ``module`` or through its imports."""
        tree = self.module_ast(module)
        if tree is None:
            return None
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name == name:
                return ClassInfo(name=name, module=module, node=stmt, resolver=self)
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module:
                for alias in stmt.names:
                    if (alias.asname or alias.name) == name:
                        return self.resolve_class(alias.name, stmt.module)
        return None


class SingleModuleResolver(SourceResolver):
    """Resolution restricted to one already-parsed module.

    Imports are deliberately not followed: the per-file lint projection can
    only see base classes defined in the same file; the whole-program
    ``frfc-analyze isolation`` pass does the cross-module job.
    """

    def __init__(self, module: str, tree: ast.Module) -> None:
        super().__init__()
        self._modules[module] = tree

    def module_source(self, module: str) -> bytes | None:
        return None


def _rel_path(origin: str) -> str:
    """Repo-relative posix path for certificate stability across checkouts."""
    posix = Path(origin).as_posix()
    for marker in ("/src/", "/tools/", "/tests/"):
        index = posix.rfind(marker)
        if index >= 0:
            return posix[index + 1 :]
    return posix


# ---------------------------------------------------------------------------
# The three analysis passes (one walk per module, cached)
# ---------------------------------------------------------------------------


def _ann_text(node: ast.expr | None) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return ""


def _is_mutable_value(node: ast.expr | None) -> bool:
    if node is None:
        return False
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        return name in MUTABLE_FACTORIES
    return False


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _assigned_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound locally inside ``func`` (shadowing module globals)."""
    names: set[str] = set()
    args = func.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        names.add(arg.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    globals_declared: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            globals_declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not func:
                names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
    return names - globals_declared


@dataclass
class _ClassFacts:
    """Per-class facts pass 1-3 need about attribute provenance."""

    mutable_attrs: dict[str, int] = field(default_factory=dict)  # name -> line
    reassigned_attrs: set[str] = field(default_factory=set)  # self.X = ... somewhere
    traced_rng_attrs: set[str] = field(default_factory=set)  # self.X is a DeterministicRng
    set_attrs: set[str] = field(default_factory=set)  # self.X is a set


class _ModuleAnalyzer:
    """One walk over one module, producing a :class:`ModuleScan`."""

    def __init__(
        self,
        module: str,
        tree: ast.Module,
        path: str,
        resolver: SourceResolver,
        include_set_displays: bool = True,
    ) -> None:
        self.module = module
        self.tree = tree
        self.path = path
        self.resolver = resolver
        self.include_set_displays = include_set_displays
        self.findings: list[IsolationFinding] = []
        self.traced_draws = 0
        self.mutable_globals: dict[str, int] = {}
        self.random_names: set[str] = set()  # names bound to ambient random
        self.class_facts: dict[str, _ClassFacts] = {}
        self.rng_exempt = path.replace("\\", "/").endswith(RNG_WRAPPER_SUFFIX)

    # -- driving ----------------------------------------------------------

    def run(self) -> ModuleScan:
        self._inventory_module_scope()
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_function(stmt, qualname=f"{self.module}.{stmt.name}", facts=None)
            elif isinstance(stmt, ast.ClassDef):
                facts = self.class_facts.get(stmt.name)
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._scan_function(
                            item,
                            qualname=f"{self.module}.{stmt.name}.{item.name}",
                            facts=facts,
                        )
        written = {f.detail.split(" ")[0] for f in self.findings if f.category == GLOBAL_WRITE}
        escaped = {f.detail.split(" ")[0] for f in self.findings if f.category == GLOBAL_ESCAPE}
        read_only = tuple(
            sorted(
                f"{self.module}.{name}"
                for name in self.mutable_globals
                if name not in written and name not in escaped
            )
        )
        self.findings.sort(key=lambda f: (f.path, f.line, f.category, f.detail))
        return ModuleScan(
            module=self.module,
            path=self.path,
            read_only_globals=read_only,
            traced_draws=self.traced_draws,
            findings=tuple(self.findings),
        )

    def _emit(self, category: str, node: ast.AST, qualname: str, detail: str) -> None:
        self.findings.append(
            IsolationFinding(
                category=category,
                path=self.path,
                line=getattr(node, "lineno", 0),
                qualname=qualname,
                detail=detail,
            )
        )

    # -- module / class scope inventory -----------------------------------

    def _inventory_module_scope(self) -> None:
        for stmt in self.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    if alias.name == "random":
                        self.random_names.add(alias.asname or "random")
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.module == "random":
                    for alias in stmt.names:
                        self.random_names.add(alias.asname or alias.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and _is_mutable_value(stmt.value):
                        self.mutable_globals[target.id] = stmt.lineno
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and _is_mutable_value(stmt.value):
                    self.mutable_globals[stmt.target.id] = stmt.lineno
            elif isinstance(stmt, ast.ClassDef):
                self.class_facts[stmt.name] = self._class_facts(stmt)

    def _class_facts(self, node: ast.ClassDef) -> _ClassFacts:
        facts = _ClassFacts()
        for stmt in node.body:
            value: ast.expr | None
            if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
                name, value, ann = stmt.targets[0].id, stmt.value, ""
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                name, value, ann = stmt.target.id, stmt.value, _ann_text(stmt.annotation)
            else:
                continue
            if _is_mutable_value(value):
                facts.mutable_attrs[name] = stmt.lineno
            if (value is not None and _is_set_expr(value)) or ann.split("[")[0] == "set":
                facts.set_attrs.add(name)
        # Attribute provenance comes from every method along the (statically
        # resolvable) MRO; fixpoint over two rounds catches attr-from-attr.
        methods = self._mro_methods(node)
        for _ in range(2):
            for method in methods:
                params = self._traced_params(method)
                local_traced: set[str] = set(params)
                for sub in ast.walk(method):
                    if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                        target = sub.targets[0]
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            facts.reassigned_attrs.add(target.attr)
                            if self._rng_traced(sub.value, local_traced, facts):
                                facts.traced_rng_attrs.add(target.attr)
                            if _is_set_expr(sub.value):
                                facts.set_attrs.add(target.attr)
                        elif isinstance(target, ast.Name):
                            if self._rng_traced(sub.value, local_traced, facts):
                                local_traced.add(target.id)
                    elif isinstance(sub, ast.AnnAssign) and sub.target is not None:
                        target = sub.target
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            facts.reassigned_attrs.add(target.attr)
                            ann = _ann_text(sub.annotation)
                            if "DeterministicRng" in ann:
                                facts.traced_rng_attrs.add(target.attr)
                            if ann.split("[")[0] == "set" or (
                                sub.value is not None and _is_set_expr(sub.value)
                            ):
                                facts.set_attrs.add(target.attr)
        return facts

    def _mro_methods(self, node: ast.ClassDef) -> list[ast.FunctionDef]:
        """All methods of ``node`` and its statically resolvable bases."""
        methods = [s for s in node.body if isinstance(s, ast.FunctionDef)]
        for base in node.bases:
            if not isinstance(base, ast.Name):
                continue
            resolved = self.resolver.resolve_class(base.id, self.module)
            if resolved is None:
                continue
            for cls in resolved.mro():
                methods.extend(
                    s for s in cls.node.body if isinstance(s, ast.FunctionDef)
                )
        return methods

    # -- rng provenance helpers -------------------------------------------

    def _traced_params(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        traced: set[str] = set()
        args = func.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if "DeterministicRng" in _ann_text(arg.annotation):
                traced.add(arg.arg)
        return traced

    def _rng_traced(
        self, node: ast.expr | None, local_traced: set[str], facts: Optional[_ClassFacts]
    ) -> bool:
        """Does ``node`` evaluate to a deterministically seeded generator?"""
        if node is None:
            return False
        if isinstance(node, ast.Name):
            return node.id in local_traced
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return facts is not None and node.attr in facts.traced_rng_attrs
            return False
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "DeterministicRng":
                return True
            if isinstance(func, ast.Attribute):
                if func.attr == "DeterministicRng":
                    return True
                if func.attr == "spawn":
                    return self._rng_traced(func.value, local_traced, facts)
            return False
        if isinstance(node, ast.BoolOp):
            return all(self._rng_traced(v, local_traced, facts) for v in node.values)
        if isinstance(node, ast.IfExp):
            return self._rng_traced(node.body, local_traced, facts) and self._rng_traced(
                node.orelse, local_traced, facts
            )
        return False

    # -- per-function scan -------------------------------------------------

    def _scan_function(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        facts: Optional[_ClassFacts],
    ) -> None:
        self._check_decorators(func, qualname)
        self._check_defaults(func, qualname)
        local_names = _assigned_names(func)
        global_declared: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                global_declared.update(node.names)
        # Pass 2 state: names known to hold a deterministic generator.
        traced = set(self._traced_params(func))
        # Pass 3 state: names known to hold a set (annotations + assignments).
        set_locals: set[str] = set()
        args = func.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            ann = _ann_text(arg.annotation)
            if ann.split("[")[0] in {"set", "frozenset"}:
                set_locals.add(arg.arg)
        for _ in range(2):
            for node in ast.walk(func):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        if self._rng_traced(node.value, traced, facts):
                            traced.add(target.id)
                        if _is_set_expr(node.value):
                            set_locals.add(target.id)
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    ann = _ann_text(node.annotation)
                    if "DeterministicRng" in ann:
                        traced.add(node.target.id)
                    if ann.split("[")[0] == "set":
                        set_locals.add(node.target.id)

        for node in ast.walk(func):
            self._check_global_write(node, qualname, local_names, global_declared)
            self._check_global_escape(node, qualname, local_names)
            self._check_class_write(node, qualname, facts)
            if not self.rng_exempt:
                self._check_rng(node, qualname, traced, facts)
            self._check_iteration(node, qualname, set_locals, facts)
            self._check_id_keys(node, qualname)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
                self._check_decorators(node, f"{qualname}.{node.name}")
                self._check_defaults(node, f"{qualname}.{node.name}")

    def _check_decorators(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str
    ) -> None:
        for decorator in func.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = (
                target.id
                if isinstance(target, ast.Name)
                else target.attr if isinstance(target, ast.Attribute) else ""
            )
            if name in {"lru_cache", "cache"}:
                self._emit(
                    FUNCTOOLS_CACHE,
                    decorator,
                    qualname,
                    f"@{name} memoizes across calls; results would be shared "
                    "between sweep points in the same process",
                )

    def _check_defaults(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str
    ) -> None:
        args = func.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is not None and _is_mutable_value(default):
                self._emit(
                    DEFAULT_ALIAS,
                    default,
                    qualname,
                    "mutable default argument is evaluated once and aliased "
                    "across every call",
                )

    def _check_global_write(
        self,
        node: ast.AST,
        qualname: str,
        local_names: set[str],
        global_declared: set[str],
    ) -> None:
        def is_global_mutable(expr: ast.expr) -> str | None:
            if isinstance(expr, ast.Name) and expr.id in self.mutable_globals:
                if expr.id not in local_names or expr.id in global_declared:
                    return expr.id
            return None

        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id in global_declared:
                self._emit(
                    GLOBAL_WRITE,
                    node,
                    qualname,
                    f"{node.id} rebound via `global` -- module state mutated at run time",
                )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATOR_METHODS:
                name = is_global_mutable(node.func.value)
                if name is not None:
                    self._emit(
                        GLOBAL_WRITE,
                        node,
                        qualname,
                        f"{name} mutated via .{node.func.attr}() -- shared across "
                        "every caller in the process",
                    )
        elif isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            name = is_global_mutable(node.value)
            if name is not None:
                kind = "subscript" if isinstance(node, ast.Subscript) else "attribute"
                self._emit(
                    GLOBAL_WRITE,
                    node,
                    qualname,
                    f"{name} mutated via {kind} store -- shared across every "
                    "caller in the process",
                )

    def _check_global_escape(
        self, node: ast.AST, qualname: str, local_names: set[str]
    ) -> None:
        def global_name(expr: ast.expr | None) -> str | None:
            if (
                isinstance(expr, ast.Name)
                and expr.id in self.mutable_globals
                and expr.id not in local_names
            ):
                return expr.id
            return None

        if isinstance(node, (ast.Return, ast.Yield)):
            name = global_name(node.value)
            if name is not None:
                self._emit(
                    GLOBAL_ESCAPE,
                    node,
                    qualname,
                    f"{name} escapes by return/yield -- callers receive an alias "
                    "to shared module state",
                )
        elif isinstance(node, ast.Call):
            callee = _call_name(node)
            if callee in NON_RETAINING_CALLEES:
                return
            for arg in [*node.args, *[k.value for k in node.keywords]]:
                name = global_name(arg)
                if name is not None:
                    self._emit(
                        GLOBAL_ESCAPE,
                        node,
                        qualname,
                        f"{name} passed whole to {callee or '<call>'}() -- the callee "
                        "may retain an alias to shared module state",
                    )
        elif isinstance(node, ast.Assign):
            name = global_name(node.value)
            if name is not None and any(
                isinstance(t, (ast.Attribute, ast.Subscript)) for t in node.targets
            ):
                self._emit(
                    GLOBAL_ESCAPE,
                    node,
                    qualname,
                    f"{name} stored into an object attribute/container -- an alias "
                    "to shared module state now lives past this call",
                )

    def _check_class_write(
        self, node: ast.AST, qualname: str, facts: Optional[_ClassFacts]
    ) -> None:
        def hazard_attr(expr: ast.expr) -> str | None:
            # self.X where X is a class-level mutable never shadowed per-instance.
            if (
                facts is not None
                and isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in facts.mutable_attrs
                and expr.attr not in facts.reassigned_attrs
            ):
                return expr.attr
            # ClassName.X for any class in this module with a mutable X.
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id in self.class_facts
                and expr.attr in self.class_facts[expr.value.id].mutable_attrs
            ):
                return f"{expr.value.id}.{expr.attr}"
            return None

        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATOR_METHODS:
                attr = hazard_attr(node.func.value)
                if attr is not None:
                    self._emit(
                        CLASS_MUTABLE_WRITE,
                        node,
                        qualname,
                        f"{attr} is class-level mutable state mutated via "
                        f".{node.func.attr}() -- shared by every instance",
                    )
        elif isinstance(node, (ast.Subscript,)) and isinstance(node.ctx, (ast.Store, ast.Del)):
            attr = hazard_attr(node.value)
            if attr is not None:
                self._emit(
                    CLASS_MUTABLE_WRITE,
                    node,
                    qualname,
                    f"{attr} is class-level mutable state mutated via subscript "
                    "store -- shared by every instance",
                )

    def _check_rng(
        self,
        node: ast.AST,
        qualname: str,
        traced: set[str],
        facts: Optional[_ClassFacts],
    ) -> None:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.random_names:
                self._emit(
                    RNG_UNTRACED,
                    node,
                    qualname,
                    f"{func.id}() draws from the ambient `random` module -- "
                    "seed provenance untraceable",
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        receiver = func.value
        if isinstance(receiver, ast.Name) and receiver.id in self.random_names:
            self._emit(
                RNG_UNTRACED,
                node,
                qualname,
                f"random.{func.attr}() uses ambient process-global state -- "
                "seed provenance untraceable",
            )
            return
        if func.attr not in DRAW_METHODS:
            return
        if self._rng_traced(receiver, traced, facts):
            self.traced_draws += 1
            return
        self._emit(
            RNG_UNTRACED,
            node,
            qualname,
            f".{func.attr}() draw on a receiver that does not trace to a "
            "seeded DeterministicRng",
        )

    def _check_iteration(
        self,
        node: ast.AST,
        qualname: str,
        set_locals: set[str],
        facts: Optional[_ClassFacts],
    ) -> None:
        iters: list[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if _is_set_expr(it):
                if self.include_set_displays:
                    self._emit(
                        UNORDERED_ITERATION,
                        it,
                        qualname,
                        "iterating a set expression -- element order depends on "
                        "the process hash seed; sort it first",
                    )
            elif isinstance(it, ast.Name) and it.id in set_locals:
                self._emit(
                    UNORDERED_ITERATION,
                    it,
                    qualname,
                    f"iterating set-typed {it.id} -- element order depends on "
                    "the process hash seed; sort it first",
                )
            elif (
                facts is not None
                and isinstance(it, ast.Attribute)
                and isinstance(it.value, ast.Name)
                and it.value.id == "self"
                and it.attr in facts.set_attrs
            ):
                self._emit(
                    UNORDERED_ITERATION,
                    it,
                    qualname,
                    f"iterating set-typed self.{it.attr} -- element order depends "
                    "on the process hash seed; sort it first",
                )

    def _check_id_keys(self, node: ast.AST, qualname: str) -> None:
        def is_identity_call(expr: ast.expr) -> str | None:
            if (
                isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Name)
                and expr.func.id in {"id", "hash"}
            ):
                return expr.func.id
            return None

        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Load, ast.Del)):
            name = is_identity_call(node.slice)
            if name is not None:
                self._emit(
                    ID_KEYED,
                    node,
                    qualname,
                    f"container keyed by {name}() -- keys depend on heap layout "
                    "or hash seed, not simulated state",
                )
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None and is_identity_call(key) is not None:
                    self._emit(
                        ID_KEYED,
                        key,
                        qualname,
                        "dict literal keyed by id()/hash() -- keys depend on heap "
                        "layout or hash seed",
                    )
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                value = keyword.value
                if isinstance(value, ast.Name) and value.id in {"id", "hash"}:
                    self._emit(
                        ID_KEYED,
                        value,
                        qualname,
                        f"ordering by key={value.id} -- order depends on heap "
                        "layout or hash seed, not simulated state",
                    )
                elif isinstance(value, ast.Lambda):
                    for sub in ast.walk(value.body):
                        if is_identity_call(sub) is not None:
                            self._emit(
                                ID_KEYED,
                                value,
                                qualname,
                                "sort key calls id()/hash() -- order depends on "
                                "heap layout or hash seed",
                            )
                            break


# ---------------------------------------------------------------------------
# Whole-program driver
# ---------------------------------------------------------------------------


class IsolationAnalyzer:
    """Scans entry-point import closures, caching per-module results."""

    def __init__(self) -> None:
        self.resolver = SourceResolver()
        self._scans: dict[str, ModuleScan] = {}

    def scan_module(self, module: str) -> ModuleScan | None:
        if module in self._scans:
            return self._scans[module]
        tree = self.resolver.module_ast(module)
        if tree is None:
            return None
        origin = self.resolver.origins.get(module, module)
        scan = _ModuleAnalyzer(
            module, tree, _rel_path(origin), self.resolver
        ).run()
        self._scans[module] = scan
        return scan

    def analyze_entry(
        self,
        name: str,
        module: str,
        function: str,
        model: Optional[str] = None,
    ) -> EntryPointReport:
        if self.resolver.module_ast(module) is None:
            raise IsolationError(f"entry module {module!r} is not importable as source")
        if model is not None:
            own = MODEL_MODULES.get(model, ())
            stop = frozenset(_ALL_MODEL_MODULES - set(own))
            modules = set(import_closure(module, self.resolver, stop=stop))
            for extra in own:
                modules.update(import_closure(extra, self.resolver, stop=stop))
        else:
            modules = set(import_closure(module, self.resolver))
        findings: list[IsolationFinding] = []
        read_only: set[str] = set()
        traced = 0
        scanned = sorted(modules)
        for mod in scanned:
            scan = self.scan_module(mod)
            if scan is None:
                continue
            findings.extend(scan.findings)
            read_only.update(scan.read_only_globals)
            traced += scan.traced_draws
        findings.sort(key=lambda f: (f.path, f.line, f.category, f.detail))
        return EntryPointReport(
            name=name,
            module=module,
            function=function,
            model=model,
            modules=tuple(scanned),
            read_only_globals=tuple(sorted(read_only)),
            traced_draws=traced,
            findings=tuple(findings),
        )


def analyze_entry_points(
    entries: Iterable[tuple[str, str, str, Optional[str]]] = ENTRY_POINTS,
) -> list[EntryPointReport]:
    """Analyze the shipped entry points (or any custom set)."""
    analyzer = IsolationAnalyzer()
    return [
        analyzer.analyze_entry(name, module, function, model)
        for name, module, function, model in entries
    ]


# ---------------------------------------------------------------------------
# Per-file projection (lint rules D011/D012/D013)
# ---------------------------------------------------------------------------


def analyze_module_isolation_ast(tree: ast.Module, path: str) -> list[IsolationFinding]:
    """Single-file isolation findings (the D011/D012/D013 lint backend).

    Resolution is restricted to the one module (base classes in other files
    are invisible), and bare set *expressions* are left to D002 -- here only
    set-typed names/attributes, id()/hash() keys, and pass-1/2 findings
    surface.  The whole-program ``frfc-analyze isolation`` pass is the
    authority; this projection catches sins at edit time.
    """
    module = Path(path).stem
    resolver = SingleModuleResolver(module, tree)
    scan = _ModuleAnalyzer(
        module, tree, path, resolver, include_set_displays=False
    ).run()
    return list(scan.findings)


def analyze_module_isolation_source(source: str, path: str) -> list[IsolationFinding]:
    return analyze_module_isolation_ast(ast.parse(source, filename=path), path)


# ---------------------------------------------------------------------------
# Certificate (frfc-isolation/1) and budget gate
# ---------------------------------------------------------------------------


def build_certificate(reports: Iterable[EntryPointReport]) -> dict[str, Any]:
    """The committable ``frfc-isolation/1`` certificate document."""
    entry_points: dict[str, Any] = {}
    for report in reports:
        entry_points[report.name] = {
            "module": report.module,
            "function": report.function,
            "model": report.model,
            "verdict": report.verdict,
            "modules_scanned": list(report.modules),
            "evidence": {
                "globals_read_only": list(report.read_only_globals),
                "rng_draws_traced": report.traced_draws,
            },
            "findings": [
                {
                    "category": f.category,
                    "path": f.path,
                    "line": f.line,
                    "qualname": f.qualname,
                    "detail": f.detail,
                }
                for f in report.findings
            ],
        }
    return {"schema": CERT_SCHEMA, "entry_points": entry_points}


def check_certificate(
    reports: Iterable[EntryPointReport],
    baseline: Mapping[str, Any],
    fail_on_new: bool = False,
) -> tuple[list[str], list[str]]:
    """Compare fresh reports against a committed certificate.

    Returns ``(violations, notes)``: violations fail CI (a CERTIFIED entry
    degraded, a finding category grew, or -- under ``fail_on_new`` -- any
    finding not present in the baseline); notes record improvements that
    deserve a re-record.
    """
    violations: list[str] = []
    notes: list[str] = []
    if baseline.get("schema") != CERT_SCHEMA:
        violations.append(
            f"baseline schema {baseline.get('schema')!r} != {CERT_SCHEMA!r}; re-record with --write-budget"
        )
        return violations, notes
    entries = baseline.get("entry_points", {})
    for report in reports:
        base = entries.get(report.name)
        if base is None:
            violations.append(
                f"{report.name}: not in the committed certificate -- re-record with --write-budget"
            )
            continue
        if base.get("verdict") == CERTIFIED and report.verdict == VIOLATED:
            for finding in report.findings:
                violations.append(f"{report.name}: {finding.render()}")
            violations.append(
                f"{report.name}: was CERTIFIED, now VIOLATED "
                f"({len(report.findings)} finding(s) above)"
            )
            continue
        base_findings = base.get("findings", [])
        base_keys = {
            (f["category"], f["path"], f["qualname"], f["detail"]) for f in base_findings
        }
        fresh_keys = {f.key() for f in report.findings}
        base_counts: dict[str, int] = {}
        for f in base_findings:
            base_counts[f["category"]] = base_counts.get(f["category"], 0) + 1
        fresh_counts: dict[str, int] = {}
        for f in report.findings:
            fresh_counts[f.category] = fresh_counts.get(f.category, 0) + 1
        for category in sorted(set(base_counts) | set(fresh_counts)):
            have, allowed = fresh_counts.get(category, 0), base_counts.get(category, 0)
            if have > allowed:
                violations.append(
                    f"{report.name}: {category} findings grew {allowed} -> {have}"
                )
        if fail_on_new:
            for key in sorted(fresh_keys - base_keys):
                category, path, qualname, detail = key
                violations.append(
                    f"{report.name}: new finding [{category}] {path} {qualname}: {detail}"
                )
        if base.get("verdict") == VIOLATED and report.verdict == CERTIFIED:
            notes.append(
                f"{report.name}: improved VIOLATED -> CERTIFIED; re-record the baseline"
            )
        elif not violations or violations[-1].split(":")[0] != report.name:
            notes.append(f"{report.name}: {report.verdict}, matches baseline")
    return violations, notes


# ---------------------------------------------------------------------------
# Runtime cross-check (--verify): spawn/serial digest identity
# ---------------------------------------------------------------------------


@dataclass
class IsolationVerifyReport:
    """Digest identity evidence for one model's quick point."""

    label: str
    serial: tuple[str, str]
    spawned: str

    @property
    def identical(self) -> bool:
        return self.serial[0] == self.serial[1] == self.spawned

    def render(self) -> str:
        status = "identical" if self.identical else "DIVERGED"
        return (
            f"{self.label}: serial {self.serial[0][:12]}/{self.serial[1][:12]} "
            f"spawn {self.spawned[:12]} -- {status}"
        )


def _verify_config(label: str) -> Any:
    # Local imports keep module import light.
    if label == "FR":
        from repro.core.config import FR6

        return FR6
    if label == "VC":
        from repro.baselines.vc.config import VC8

        return VC8
    if label == "WH":
        from repro.baselines.wormhole.network import WormholeConfig

        return WormholeConfig(buffers_per_input=8)
    raise ValueError(f"unknown model label {label!r}")


def _digest_hex(label: str, offered_load: float, seed: int, cycles: int) -> str:
    """One quick point's run digest.  Top-level so ``spawn`` can pickle it."""
    from repro.analysis.permute import digest_network
    from repro.harness.experiment import build_network
    from repro.sim.kernel import Simulator
    from repro.topology.mesh import Mesh2D

    network = build_network(
        _verify_config(label), offered_load, seed=seed, mesh=Mesh2D(4, 4)
    )
    network.set_measure_window(0, cycles)
    Simulator(network).step(cycles)
    return digest_network(network, cycles, label).hexdigest()


def verify_isolation(
    offered_load: float = 0.3,
    seed: int = 7,
    cycles: int = 400,
    labels: Sequence[str] = ("FR", "VC", "WH"),
) -> list[IsolationVerifyReport]:
    """Replay a quick point per model: twice in-process, once in a fresh
    ``spawn``-ed interpreter.  Identical digests are the dynamic witness
    that no hidden process state feeds the simulation."""
    import multiprocessing

    reports: list[IsolationVerifyReport] = []
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=1) as pool:
        for label in labels:
            first = _digest_hex(label, offered_load, seed, cycles)
            second = _digest_hex(label, offered_load, seed, cycles)
            spawned = pool.apply(_digest_hex, (label, offered_load, seed, cycles))
            reports.append(
                IsolationVerifyReport(label=label, serial=(first, second), spawned=spawned)
            )
    return reports


__all__ = [
    "CERT_SCHEMA",
    "CERTIFIED",
    "VIOLATED",
    "CATEGORIES",
    "ENTRY_POINTS",
    "EntryPointReport",
    "IsolationAnalyzer",
    "IsolationError",
    "IsolationFinding",
    "IsolationVerifyReport",
    "ModuleScan",
    "SourceResolver",
    "analyze_entry_points",
    "analyze_module_isolation_ast",
    "analyze_module_isolation_source",
    "build_certificate",
    "check_certificate",
    "import_closure",
    "verify_isolation",
]
