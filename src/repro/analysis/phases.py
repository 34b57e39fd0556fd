"""Cycle-phase race detector: static order-independence proof for ``step()``.

Every network model in this repository advances time in *phases*: ``step``
walks the routers (then the interfaces, then the routers again...) calling
one phase method per actor per cycle.  The models are written so the order
in which actors are visited **within** a phase loop cannot matter -- the
precondition both for reproducibility (the loop order is an implementation
detail, not physics) and for any future parallel-stepping optimisation.
Nothing enforced that property until now; this module proves it statically.

The proof rests on an *ownership discipline* that the shipped code already
follows and that this analyzer makes checkable:

========  ==============================================================
owned     State created by the actor itself (fresh objects, per-actor RNG
          streams).  Reachable from exactly one actor: never a race.
node      The actor's own node-group peer -- an interface's ``self.router``
          is the router at the *same* mesh node, wired with the same index
          at construction.  Actor ``i`` touching node-group state only
          touches node ``i``'s state, so per-actor effects stay disjoint.
shared    One object handed to *every* actor (the routing table, the
          config), or the network's own attributes seen from inside a
          phase loop.  Reads commute; any write is a same-cycle race and
          is flagged.
channel   A :class:`repro.sim.link.Link` -- the one mutable object two
          *different* nodes legitimately share.  Safe exactly because the
          link is a pipeline register with ``delay >= 1``: ``send`` fills
          the ``cycle + delay`` slot while ``receive`` drains the ``cycle``
          slot, so sender and receiver commute.  Only the pipeline API
          (``send``/``receive``/``capacity_remaining``/``in_flight`` and
          the ``width``/``delay``/``total_sent`` fields) preserves that
          argument; any other access is flagged.
hook      A ``Callable`` attribute installed by the network (ejection,
          NI credits, observability).  Hook *targets* either stay inside
          the node group or append to network-level aggregation
          collectors; the static pass records each hook escape, and the
          runtime order-permutation differ (:mod:`repro.analysis.permute`)
          verifies the aggregation is order-independent in fact.
payload   A value drained from a channel via ``receive`` -- ownership has
          transferred to this actor for good, so mutating it is safe.
========  ==============================================================

Classification is read from the code itself, not from a hand-kept list:
``Link``-annotated attributes are channels, ``Callable``-annotated
attributes and constructor parameters are hooks, constructor arguments
that subscript an actor collection with the construction loop variable are
node-group references, loop-invariant constructor arguments are shared,
and everything else the actor builds is owned.

Phase loops come in two shapes, both recognised:

* ``for router in self.routers: router.control_phase(cycle)`` -- iterate
  the actor collection directly (optionally through a local alias);
* ``for node in self.eval_order: self.routers[node].control_phase(cycle)``
  -- iterate the permutable evaluation order and index the collection.
  ``self.<collection>[node]`` with the exact loop index is the actor
  itself; any other index reaches a *different* node and is shared.

The detector then walks the full phase call tree -- through helper
methods, node-group calls, and resolvable shared-object methods -- and
flags as a **D007 hazard** every write to shared state and every channel
access outside the pipeline API, i.e. exactly the same-cycle
write-then-read couplings that do not pass through a ``Link`` pipeline
stage.  Statements ``step`` runs directly (packet creation, occupancy
sampling) execute on the single network actor with no intra-phase
concurrency, so they are sequenced by definition and reported in the
phase order without race analysis.

Two refinements keep the proof exact for the active-set kernel:

* **Per-actor slots in shared arrays.**  A subscript store whose index is
  the phase loop's own index variable (``self._flags[node] = 0`` inside
  ``for node in self.eval_order``) writes a slot no other iteration of the
  loop touches: iteration ``i`` writes only slot ``i``, so the slots are
  disjoint across actors and the store is recorded as a per-actor write
  rather than flagged.  Any subscript store with a non-index key on shared
  state is still a hazard.
* **Method-alias dispatch.**  An attribute assigned a bound method of the
  same class (``self.accept_flit = self._accept_flit_plain``, swapped by
  hook setters) is a dispatch slot; a call through it is walked into
  *every* method ever assigned to that slot anywhere in the class, so the
  analysis covers the union of plain and observed variants instead of
  silently skipping the call.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.analysis.imports import RawImport, module_origin, raw_imports

#: The Link pipeline API: calls that preserve the delay >= 1 argument.
LINK_API_CALLS = frozenset({"send", "receive", "capacity_remaining", "in_flight"})

#: Link fields that are safe to read (configuration and lifetime counters,
#: plus ``pending``, the documented O(1) occupancy counter ``in_flight``
#: returns verbatim -- reading it commutes exactly like calling in_flight).
LINK_API_FIELDS = frozenset({"width", "delay", "total_sent", "pending"})

#: Method names assumed to mutate their receiver when the class is opaque.
MUTATOR_METHODS = frozenset(
    {
        "append", "appendleft", "add", "insert", "extend", "extendleft",
        "remove", "discard", "pop", "popleft", "popitem", "clear", "update",
        "setdefault", "sort", "reverse", "write",
    }
)

#: Network attributes that hold the permutable actor evaluation order.
INDEX_ORDER_ATTRS = frozenset({"eval_order"})

#: The shipped network models the ``frfc_analyze races`` CLI checks.
KNOWN_NETWORKS: tuple[tuple[str, str, str], ...] = (
    ("FR", "repro.core.network", "FRNetwork"),
    ("VC", "repro.baselines.vc.network", "VCNetwork"),
    ("WH", "repro.baselines.wormhole.network", "WormholeNetwork"),
)

_MAX_CALL_DEPTH = 12


class AnalysisError(Exception):
    """The model could not be analysed (unresolvable class, missing step)."""


# ---------------------------------------------------------------------------
# Source resolution (AST only -- model modules are never executed)
# ---------------------------------------------------------------------------


@dataclass
class ClassInfo:
    """One class's AST plus enough context to resolve its bases."""

    name: str
    module: str
    node: ast.ClassDef
    resolver: "SourceResolver"

    def method(self, name: str) -> ast.FunctionDef | None:
        """Find ``name`` along the (statically resolvable) MRO."""
        for cls in self.mro():
            for stmt in cls.node.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
                    return stmt
        return None

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

    Imports are deliberately not followed: the single-file mode can only
    reason about models whose actor classes live in the same file; the
    ``frfc_analyze races`` CLI does the whole-model, cross-module job.
    """

    def __init__(self, module: str, tree: ast.Module) -> None:
        super().__init__()
        self._modules[module] = tree

    def module_source(self, module: str) -> bytes | None:
        return None


# ---------------------------------------------------------------------------
# Ownership classification
# ---------------------------------------------------------------------------

OWNED = "owned"
NODE = "node"
SHARED = "shared"
CHANNEL = "channel"
HOOK = "hook"
PAYLOAD = "payload"
SCALAR = "scalar"
SELF = "self"  # the actor currently being stepped by the phase loop
NETWORK = "network"  # the network object, seen from inside a phase loop
ACTORS = "actors"  # an actor collection attribute (self.routers, ...)
INDEX = "index"  # the phase loop's actor index variable


@dataclass(frozen=True)
class Val:
    """Abstract value: an ownership kind, an optional class, a report chain."""

    kind: str
    cls: str | None = None
    chain: tuple[str, ...] = ()


@dataclass
class AttrClass:
    """Classification of one actor attribute or constructor parameter."""

    kind: str
    cls: str | None = None  # class name for NODE / SHARED attributes


@dataclass(frozen=True)
class ActorCollection:
    """One ``self.<attr> = [ActorClass(...) for v in ...]`` construction.

    ``module`` is where the construction statement lives (the class that
    defines the ``__init__``), which is where ``class_name`` resolves from.
    """

    attr: str
    class_name: str
    loop_var: str
    call: ast.Call
    module: str


def _annotation_text(node: ast.expr | None) -> str:
    return ast.unparse(node) if node is not None else ""


def _find_actor_collections(info: ClassInfo) -> list[ActorCollection]:
    """Actor constructions from every ``__init__`` along the MRO.

    A subclass like the wormhole network inherits its collections (and its
    ``step``) from the base network, so each class's own ``__init__`` is
    scanned; the most-derived definition of an attribute wins.
    """
    collections: list[ActorCollection] = []
    for cls in info.mro():
        for stmt in cls.node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                for found in _collections_in_init(stmt, cls.module):
                    if all(found.attr != existing.attr for existing in collections):
                        collections.append(found)
    return collections


def _collections_in_init(init: ast.FunctionDef, module: str) -> list[ActorCollection]:
    collections: list[ActorCollection] = []
    for stmt in ast.walk(init):
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            continue
        value = stmt.value
        if not (isinstance(value, ast.ListComp) and isinstance(value.elt, ast.Call)):
            continue
        func = value.elt.func
        if not isinstance(func, ast.Name):
            continue
        generator = value.generators[0]
        if not isinstance(generator.target, ast.Name):
            continue
        collections.append(
            ActorCollection(
                attr=target.attr,
                class_name=func.id,
                loop_var=generator.target.id,
                call=value.elt,
                module=module,
            )
        )
    return collections


def _mentions_name(expr: ast.expr, name: str) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == name for node in ast.walk(expr)
    )


def _classify_constructor_arg(
    expr: ast.expr, loop_var: str, collections: Sequence[ActorCollection]
) -> AttrClass:
    """Ownership of one constructor argument, from the construction site."""
    if isinstance(expr, ast.Subscript):
        base = expr.value
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            for collection in collections:
                if collection.attr == base.attr:
                    index = expr.slice
                    if isinstance(index, ast.Name) and index.id == loop_var:
                        return AttrClass(NODE, cls=collection.class_name)
                    # Indexing an actor collection by anything other than
                    # the construction loop variable reaches a *different*
                    # node: classify shared so any write is flagged.
                    return AttrClass(SHARED, cls=collection.class_name)
    if _mentions_name(expr, loop_var):
        return AttrClass(OWNED)
    return AttrClass(SHARED)


def _param_names(func: ast.FunctionDef) -> list[str]:
    names = [arg.arg for arg in func.args.posonlyargs + func.args.args]
    return names[1:] if names and names[0] == "self" else names


def _bind_call_args(func: ast.FunctionDef, call: ast.Call) -> dict[str, ast.expr]:
    """Map constructor-call argument expressions onto parameter names."""
    bound: dict[str, ast.expr] = {}
    for name, arg in zip(_param_names(func), call.args):
        bound[name] = arg
    for keyword in call.keywords:
        if keyword.arg is not None:
            bound[keyword.arg] = keyword.value
    return bound


class ActorModel:
    """Everything the walker needs to know about one actor class."""

    def __init__(
        self,
        info: ClassInfo,
        collection: ActorCollection | None,
        all_collections: Sequence[ActorCollection],
    ) -> None:
        self.info = info
        self.attrs: dict[str, AttrClass] = {}
        self.param_classes: dict[str, AttrClass] = {}
        # Dispatch slots: attribute name -> every method of this class ever
        # assigned to it (``self.X = self._X_plain`` and the hook-setter
        # swaps).  A call through the slot is analysed as the union.
        self.method_aliases: dict[str, list[str]] = {}
        init = info.method("__init__")
        if init is not None:
            self._classify_params(init, collection, all_collections)
            self._classify_attrs()

    def _classify_params(
        self,
        init: ast.FunctionDef,
        collection: ActorCollection | None,
        all_collections: Sequence[ActorCollection],
    ) -> None:
        site = _bind_call_args(init, collection.call) if collection is not None else {}
        for arg in init.args.posonlyargs + init.args.args:
            if arg.arg == "self":
                continue
            annotation = _annotation_text(arg.annotation)
            if "Callable" in annotation:
                self.param_classes[arg.arg] = AttrClass(HOOK)
                continue
            if "Link" in annotation:
                self.param_classes[arg.arg] = AttrClass(CHANNEL)
                continue
            if arg.arg in site and collection is not None:
                classified = _classify_constructor_arg(
                    site[arg.arg], collection.loop_var, all_collections
                )
                if classified.kind == SHARED and classified.cls is None:
                    classified = AttrClass(SHARED, cls=_bare_class_name(annotation))
                self.param_classes[arg.arg] = classified
            else:
                # No visible construction site (base-class params, kwargs):
                # shared is the conservative default -- reads stay legal,
                # writes are flagged.
                self.param_classes[arg.arg] = AttrClass(
                    SHARED, cls=_bare_class_name(annotation)
                )

    def _classify_attrs(self) -> None:
        for cls in self.info.mro():
            for method in cls.node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                for stmt in ast.walk(method):
                    self._classify_attr_stmt(stmt, method.name == "__init__")

    def _classify_attr_stmt(self, stmt: ast.stmt, in_init: bool) -> None:
        if isinstance(stmt, ast.AnnAssign):
            target = stmt.target
            if not self._is_self_attr(target):
                return
            annotation = _annotation_text(stmt.annotation)
            if "Link" in annotation:
                self.attrs[target.attr] = AttrClass(CHANNEL)
            elif "Callable" in annotation:
                self.attrs[target.attr] = AttrClass(HOOK)
            else:
                self.attrs.setdefault(target.attr, AttrClass(OWNED))
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if not self._is_self_attr(target):
                    continue
                value = stmt.value
                if self._is_self_attr(value) and self.info.method(value.attr) is not None:
                    targets = self.method_aliases.setdefault(target.attr, [])
                    if value.attr not in targets:
                        targets.append(value.attr)
                    self.attrs.setdefault(target.attr, AttrClass(OWNED))
                    continue
                if target.attr in self.attrs:
                    continue
                if in_init and isinstance(value, ast.Name):
                    param = self.param_classes.get(value.id)
                    if param is not None:
                        self.attrs[target.attr] = param
                        continue
                self.attrs.setdefault(target.attr, AttrClass(OWNED))

    @staticmethod
    def _is_self_attr(target: ast.expr) -> bool:
        return (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        )


def _bare_class_name(annotation: str) -> str | None:
    """``'DimensionOrderRouting'`` from a plain class annotation, else None."""
    return annotation if annotation.isidentifier() else None


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hazard:
    """One same-cycle shared-state coupling that bypasses the Link pipeline."""

    rule_id: str
    network: str
    phase: str
    location: str
    line: int
    message: str

    def format(self) -> str:
        return (
            f"{self.network} phase '{self.phase}' at {self.location}:"
            f"{self.line}: {self.rule_id} {self.message}"
        )


@dataclass
class PhaseEffects:
    """Per-phase read/write sets over ``Class.attr`` chains, plus escapes."""

    name: str
    actor_class: str | None
    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)
    channel_ops: set[str] = field(default_factory=set)
    hook_calls: set[str] = field(default_factory=set)


@dataclass
class ModelRaceReport:
    """The race-detector verdict for one network model."""

    network: str
    module: str
    phases: list[PhaseEffects]
    hazards: list[Hazard]

    @property
    def clean(self) -> bool:
        return not self.hazards

    def format(self, verbose: bool = False) -> str:
        lines = [f"cycle-phase race analysis: {self.network} ({self.module})"]
        for index, phase in enumerate(self.phases, start=1):
            actor = phase.actor_class or "network"
            lines.append(f"  phase {index}: {phase.name}  [{actor}]")
            if verbose and phase.actor_class is not None:
                if phase.reads:
                    lines.append(f"    reads:  {', '.join(sorted(phase.reads))}")
                if phase.writes:
                    lines.append(f"    writes: {', '.join(sorted(phase.writes))}")
                if phase.channel_ops:
                    lines.append(f"    links:  {', '.join(sorted(phase.channel_ops))}")
                if phase.hook_calls:
                    lines.append(f"    hooks:  {', '.join(sorted(phase.hook_calls))}")
        if self.hazards:
            lines.append(f"  {len(self.hazards)} hazard(s):")
            for hazard in self.hazards:
                lines.append(f"    {hazard.format()}")
        else:
            lines.append(
                "  no hazards: within every phase, actors couple only through "
                "Link send/receive (delay >= 1) or node-local wiring"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The walker
# ---------------------------------------------------------------------------


class _EffectWalker:
    """Walks one phase's call tree collecting effects and hazards."""

    def __init__(
        self,
        analyzer: "NetworkAnalyzer",
        phase: PhaseEffects,
        hazards: list[Hazard],
    ) -> None:
        self.analyzer = analyzer
        self.network = analyzer.label
        self.phase = phase
        self.hazards = hazards
        self.visited: set[tuple[str, str, tuple[str, ...]]] = set()

    # -- entry ----------------------------------------------------------------

    def walk_method(
        self,
        model: ActorModel,
        method: ast.FunctionDef,
        args: dict[str, Val],
        depth: int,
        location: str,
        self_val: Val | None = None,
    ) -> None:
        if depth > _MAX_CALL_DEPTH:
            return
        bound_self = self_val or Val(SELF, cls=model.info.name)
        signature = (
            model.info.name,
            method.name,
            tuple(sorted(f"{k}={v.kind}" for k, v in args.items()))
            + (bound_self.kind,),
        )
        if signature in self.visited:
            return
        self.visited.add(signature)
        env: dict[str, Val] = {"self": bound_self}
        for arg in method.args.posonlyargs + method.args.args + method.args.kwonlyargs:
            if arg.arg == "self":
                continue
            env[arg.arg] = args.get(arg.arg, Val(SCALAR))
        where = f"{location} -> {model.info.name}.{method.name}"
        for stmt in method.body:
            self._stmt(stmt, env, depth, where)

    # -- statements -----------------------------------------------------------

    def _stmt(self, stmt: ast.stmt, env: dict[str, Val], depth: int, where: str) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env, depth, where)
            for target in stmt.targets:
                self._store(target, value, env, depth, where)
        elif isinstance(stmt, ast.AugAssign):
            self._eval(stmt.value, env, depth, where)
            self._store(stmt.target, Val(SCALAR), env, depth, where)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self._eval(stmt.value, env, depth, where)
                self._store(stmt.target, value, env, depth, where)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._store(target, Val(SCALAR), env, depth, where)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env, depth, where)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value, env, depth, where)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, env, depth, where)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test, env, depth, where)
            for child in stmt.body + stmt.orelse:
                self._stmt(child, env, depth, where)
        elif isinstance(stmt, ast.For):
            element = _element_of(self._eval(stmt.iter, env, depth, where))
            self._bind_target(stmt.target, element, env)
            for child in stmt.body + stmt.orelse:
                self._stmt(child, env, depth, where)
        elif isinstance(stmt, ast.Try):
            for child in stmt.body + stmt.orelse + stmt.finalbody:
                self._stmt(child, env, depth, where)
            for handler in stmt.handlers:
                for child in handler.body:
                    self._stmt(child, env, depth, where)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr, env, depth, where)
            for child in stmt.body:
                self._stmt(child, env, depth, where)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, env, depth, where)
        elif isinstance(stmt, ast.FunctionDef):
            # Nested functions are walked in place with the same environment
            # (closures over phase state share its ownership).
            for child in stmt.body:
                self._stmt(child, env, depth, where)

    # -- stores ---------------------------------------------------------------

    def _store(
        self, target: ast.expr, value: Val, env: dict[str, Val], depth: int, where: str
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store(element, _element_of(value), env, depth, where)
        elif isinstance(target, ast.Starred):
            self._store(target.value, value, env, depth, where)
        elif isinstance(target, ast.Attribute):
            base = self._eval(target.value, env, depth, where)
            self._check_write(base, target.attr, target.lineno, where)
        elif isinstance(target, ast.Subscript):
            index = self._eval(target.slice, env, depth, where)
            base = self._eval(target.value, env, depth, where)
            if index.kind == INDEX and base.kind in (SHARED, NETWORK):
                # A per-actor slot keyed by the phase loop's own index:
                # iteration i writes only slot i, so the slots are disjoint
                # across actors and the store cannot race within the phase
                # (the worklist-flag pattern).  Record it as a write.
                if base.chain:
                    chain = ".".join(base.chain + ("[]",))
                elif base.cls is not None:
                    chain = f"{base.cls}.[]"
                else:
                    chain = "[]"
                self.phase.writes.add(chain)
                return
            self._check_write(base, "[]", target.lineno, where)

    def _check_write(self, base: Val, attr: str, line: int, where: str) -> None:
        if base.chain:
            chain = ".".join(base.chain + (attr,))
        elif base.cls is not None:
            chain = f"{base.cls}.{attr}"
        else:
            chain = attr
        if base.kind in (SHARED, NETWORK, ACTORS):
            self._hazard(
                line,
                where,
                f"same-cycle write to shared state `{chain}`: state visible to "
                "every actor in the phase loop must only change through a Link "
                "pipeline stage",
            )
        elif base.kind == CHANNEL:
            self._hazard(
                line,
                where,
                f"direct mutation of link state `{chain}` bypasses the "
                "pipeline register; use Link.send/receive",
            )
        elif base.kind in (SELF, NODE):
            self.phase.writes.add(chain)

    # -- expressions ----------------------------------------------------------

    def _eval(self, expr: ast.expr, env: dict[str, Val], depth: int, where: str) -> Val:
        if isinstance(expr, ast.Name):
            return env.get(expr.id, Val(SCALAR))
        if isinstance(expr, ast.Attribute):
            return self._attribute(expr, env, depth, where)
        if isinstance(expr, ast.Subscript):
            index = self._eval(expr.slice, env, depth, where)
            base = self._eval(expr.value, env, depth, where)
            if base.kind == ACTORS:
                if index.kind == INDEX:
                    # self.<collection>[<phase loop index>] IS the actor.
                    return Val(SELF, cls=base.cls, chain=base.chain)
                # Any other index reaches a different node: shared.
                return Val(SHARED, cls=base.cls, chain=base.chain)
            return base
        if isinstance(expr, ast.Call):
            return self._call(expr, env, depth, where)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            elements = [self._eval(e, env, depth, where) for e in expr.elts]
            for element in elements:
                if element.kind in (PAYLOAD, OWNED):
                    return Val(element.kind)
            return Val(OWNED)
        if isinstance(expr, ast.Dict):
            for key in expr.keys:
                if key is not None:
                    self._eval(key, env, depth, where)
            for value in expr.values:
                self._eval(value, env, depth, where)
            return Val(OWNED)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            scope = dict(env)
            for generator in expr.generators:
                element = _element_of(self._eval(generator.iter, scope, depth, where))
                self._bind_target(generator.target, element, scope)
                for condition in generator.ifs:
                    self._eval(condition, scope, depth, where)
            if isinstance(expr, ast.DictComp):
                self._eval(expr.key, scope, depth, where)
                self._eval(expr.value, scope, depth, where)
            else:
                self._eval(expr.elt, scope, depth, where)
            return Val(OWNED)
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                self._eval(value, env, depth, where)
            return Val(SCALAR)
        if isinstance(expr, ast.BinOp):
            self._eval(expr.left, env, depth, where)
            self._eval(expr.right, env, depth, where)
            return Val(SCALAR)
        if isinstance(expr, ast.UnaryOp):
            self._eval(expr.operand, env, depth, where)
            return Val(SCALAR)
        if isinstance(expr, ast.Compare):
            self._eval(expr.left, env, depth, where)
            for comparator in expr.comparators:
                self._eval(comparator, env, depth, where)
            return Val(SCALAR)
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test, env, depth, where)
            body = self._eval(expr.body, env, depth, where)
            orelse = self._eval(expr.orelse, env, depth, where)
            return body if body.kind != SCALAR else orelse
        if isinstance(expr, ast.JoinedStr):
            for value in expr.values:
                if isinstance(value, ast.FormattedValue):
                    self._eval(value.value, env, depth, where)
            return Val(SCALAR)
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value, env, depth, where)
        if isinstance(expr, ast.Lambda):
            return Val(OWNED)
        if isinstance(expr, ast.Slice):
            for part in (expr.lower, expr.upper, expr.step):
                if part is not None:
                    self._eval(part, env, depth, where)
            return Val(SCALAR)
        return Val(SCALAR)

    def _attribute(
        self, expr: ast.Attribute, env: dict[str, Val], depth: int, where: str
    ) -> Val:
        base = self._eval(expr.value, env, depth, where)
        attr = expr.attr
        if base.kind == NETWORK:
            collection = self.analyzer.collection_for(attr)
            if collection is not None:
                return Val(
                    ACTORS,
                    cls=collection.class_name,
                    chain=(base.cls or "network", attr),
                )
            # The network's own state, seen concurrently by every loop
            # iteration: reads commute, writes are flagged via SHARED.
            self.phase.reads.add(f"{base.cls or 'network'}.{attr}")
            return Val(SHARED, chain=(base.cls or "network", attr))
        if base.kind in (SELF, NODE):
            model = self._model_for(base)
            chain = (model.info.name if model else base.cls or "?", attr)
            self.phase.reads.add(".".join(chain))
            classification = model.attrs.get(attr) if model else None
            if classification is None:
                return Val(OWNED, chain=chain)
            if classification.kind in (CHANNEL, HOOK):
                return Val(classification.kind, chain=chain)
            if classification.kind in (NODE, SHARED):
                return Val(classification.kind, cls=classification.cls, chain=chain)
            return Val(OWNED, chain=chain)
        if base.kind == CHANNEL:
            if attr in LINK_API_FIELDS or attr in LINK_API_CALLS:
                return Val(CHANNEL, chain=base.chain + (attr,))
            self._hazard(
                expr.lineno,
                where,
                f"access to link internals `{'.'.join(base.chain + (attr,))}` "
                "outside the Link pipeline API (send/receive/"
                "capacity_remaining/in_flight)",
            )
            return Val(SCALAR)
        if base.kind in (SHARED, ACTORS):
            return Val(SHARED, cls=None, chain=base.chain + (attr,))
        if base.kind in (OWNED, PAYLOAD, HOOK):
            return Val(base.kind, chain=base.chain + (attr,))
        return Val(SCALAR)

    def _call(self, expr: ast.Call, env: dict[str, Val], depth: int, where: str) -> Val:
        arg_vals = [self._eval(arg, env, depth, where) for arg in expr.args]
        keyword_vals = {
            kw.arg: self._eval(kw.value, env, depth, where)
            for kw in expr.keywords
            if kw.arg is not None
        }
        func = expr.func
        if isinstance(func, ast.Attribute):
            base = self._eval(func.value, env, depth, where)
            return self._method_call(func, base, arg_vals, keyword_vals, depth, where)
        # Plain names: builtins, module-level constructors and helpers --
        # all create fresh (owned) values; phase code never routes shared
        # mutation through a bare function in this codebase.
        return Val(OWNED)

    def _method_call(
        self,
        func: ast.Attribute,
        base: Val,
        args: list[Val],
        keywords: dict[str, Val],
        depth: int,
        where: str,
    ) -> Val:
        name = func.attr
        if base.kind == CHANNEL:
            chain = ".".join(base.chain + (name,))
            if name in LINK_API_CALLS:
                self.phase.channel_ops.add(chain)
                return Val(PAYLOAD) if name == "receive" else Val(SCALAR)
            self._hazard(
                func.lineno,
                where,
                f"call `{chain}()` is not part of the Link pipeline API; "
                "same-cycle link state must flow through send/receive",
            )
            return Val(SCALAR)
        if base.kind == HOOK:
            self.phase.hook_calls.add(".".join(base.chain) or name)
            return Val(SCALAR)
        if base.kind in (SELF, NODE):
            model = self._model_for(base)
            if model is None:
                return Val(OWNED)
            classification = model.attrs.get(name)
            if classification is not None:
                if classification.kind == HOOK:
                    self.phase.hook_calls.add(f"{model.info.name}.{name}")
                    return Val(SCALAR)
                if classification.kind == CHANNEL:
                    self._hazard(
                        func.lineno,
                        where,
                        f"calling link attribute `{model.info.name}.{name}` "
                        "directly; only the Link pipeline API moves state "
                        "between actors",
                    )
                    return Val(SCALAR)
            method = model.info.method(name)
            if method is not None:
                bound = dict(zip(_param_names(method), args))
                bound.update(keywords)
                self.walk_method(model, method, bound, depth + 1, where)
                return Val(OWNED)
            # Dispatch slot: walk every method ever assigned to it.
            for alias in model.method_aliases.get(name, ()):
                aliased = model.info.method(alias)
                if aliased is not None:
                    bound = dict(zip(_param_names(aliased), args))
                    bound.update(keywords)
                    self.walk_method(model, aliased, bound, depth + 1, where)
            return Val(OWNED)
        if base.kind == NETWORK:
            method = self.analyzer.info.method(name)
            if method is not None:
                bound = dict(zip(_param_names(method), args))
                bound.update(keywords)
                self.walk_method(
                    self.analyzer.network_model,
                    method,
                    bound,
                    depth + 1,
                    where,
                    self_val=base,
                )
            return Val(SCALAR)
        if base.kind in (SHARED, ACTORS):
            resolved = self._resolve_shared_methods(base, name)
            if resolved:
                for model, method in resolved:
                    bound = dict(zip(_param_names(method), args))
                    bound.update(keywords)
                    self.walk_method(
                        model,
                        method,
                        bound,
                        depth + 1,
                        where,
                        self_val=Val(SHARED, cls=model.info.name, chain=(model.info.name,)),
                    )
                return Val(SCALAR)
            if name in MUTATOR_METHODS:
                self._hazard(
                    func.lineno,
                    where,
                    f"mutating call `{'.'.join(base.chain + (name,))}()` on "
                    "shared state: same-cycle visible to every actor",
                )
            return Val(SCALAR)
        # owned / payload / scalar / index receivers cannot couple actors.
        return Val(OWNED)

    # -- helpers --------------------------------------------------------------

    def _model_for(self, base: Val) -> ActorModel | None:
        if base.cls is None:
            return None
        return self.analyzer.actor_model(base.cls)

    def _resolve_shared_methods(
        self, base: Val, name: str
    ) -> list[tuple[ActorModel, ast.FunctionDef]]:
        if base.cls is None:
            return []
        model = self.analyzer.actor_model(base.cls)
        if model is None:
            return []
        method = model.info.method(name)
        if method is not None:
            return [(model, method)]
        # Dispatch slot: every method ever assigned to it.
        resolved = []
        for alias in model.method_aliases.get(name, ()):
            aliased = model.info.method(alias)
            if aliased is not None:
                resolved.append((model, aliased))
        return resolved

    def _bind_target(self, target: ast.expr, value: Val, env: dict[str, Val]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, _element_of(value), env)

    def _hazard(self, line: int, where: str, message: str) -> None:
        self.hazards.append(
            Hazard(
                rule_id="D007",
                network=self.network,
                phase=self.phase.name,
                location=where,
                line=line,
                message=message,
            )
        )


def _element_of(value: Val) -> Val:
    """The abstract element obtained by iterating or unpacking ``value``."""
    if value.kind == ACTORS:
        # Iterating an actor collection yields *every* actor, not this
        # iteration's own: treat elements as shared so writes are flagged.
        return Val(SHARED, cls=value.cls, chain=value.chain)
    if value.kind in (PAYLOAD, OWNED, SHARED, NODE, CHANNEL):
        return Val(value.kind, cls=value.cls, chain=value.chain)
    return Val(SCALAR)


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------


class NetworkAnalyzer:
    """Analyses one network model class for cycle-phase races."""

    def __init__(self, info: ClassInfo, label: str | None = None) -> None:
        self.info = info
        self.label = label or info.name
        self.collections: list[ActorCollection] = _find_actor_collections(info)
        self._models: dict[str, ActorModel | None] = {}
        self._network_model: ActorModel | None = None
        for collection in self.collections:
            if collection.class_name not in self._models:
                resolved = self.info.resolver.resolve_class(
                    collection.class_name, collection.module
                ) or self._resolve_anywhere(collection.class_name)
                self._models[collection.class_name] = (
                    ActorModel(resolved, collection, self.collections)
                    if resolved is not None
                    else None
                )

    @property
    def network_model(self) -> ActorModel:
        if self._network_model is None:
            self._network_model = ActorModel(self.info, None, self.collections)
        return self._network_model

    def _resolve_anywhere(self, class_name: str) -> ClassInfo | None:
        """Resolve a class from the network module or any actor module.

        Shared-object classes (the routing function, configs) are often
        imported by the *actor* module rather than the network module, so
        resolution falls back through every module already involved.
        """
        modules = [self.info.module]
        for model in self._models.values():
            if model is not None and model.info.module not in modules:
                modules.append(model.info.module)
        for module in modules:
            resolved = self.info.resolver.resolve_class(class_name, module)
            if resolved is not None:
                return resolved
        return None

    def actor_model(self, class_name: str) -> ActorModel | None:
        if class_name not in self._models:
            resolved = self._resolve_anywhere(class_name)
            self._models[class_name] = (
                ActorModel(resolved, None, self.collections)
                if resolved is not None
                else None
            )
        return self._models[class_name]

    def collection_for(self, attr: str) -> ActorCollection | None:
        for collection in self.collections:
            if collection.attr == attr:
                return collection
        return None

    # -- phase extraction ----------------------------------------------------

    def analyze(self) -> ModelRaceReport:
        step = self.info.method("step")
        if step is None:
            raise AnalysisError(
                f"{self.label}: class {self.info.name} has no step() method"
            )
        phases: list[PhaseEffects] = []
        hazards: list[Hazard] = []
        aliases: dict[str, str] = {}  # local name -> the self.<attr> it aliases
        for stmt in step.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Attribute)
                and isinstance(stmt.value.value, ast.Name)
                and stmt.value.value.id == "self"
            ):
                aliases[stmt.targets[0].id] = stmt.value.attr
                continue
            loop_attr = self._loop_iter_attr(stmt, aliases)
            if loop_attr is not None and self.collection_for(loop_attr) is not None:
                assert isinstance(stmt, ast.For)
                collection = self.collection_for(loop_attr)
                assert collection is not None
                phases.append(self._direct_loop_phase(stmt, collection, hazards))
            elif loop_attr in INDEX_ORDER_ATTRS:
                assert isinstance(stmt, ast.For)
                phases.append(self._index_loop_phase(stmt, hazards))
            else:
                phases.append(self._singleton_phase(stmt))
        return ModelRaceReport(
            network=self.label, module=self.info.module, phases=phases, hazards=hazards
        )

    def _loop_iter_attr(self, stmt: ast.stmt, aliases: dict[str, str]) -> str | None:
        """The ``self.<attr>`` a For statement iterates, through aliases."""
        if not isinstance(stmt, ast.For):
            return None
        iterator = stmt.iter
        if (
            isinstance(iterator, ast.Attribute)
            and isinstance(iterator.value, ast.Name)
            and iterator.value.id == "self"
        ):
            return iterator.attr
        if isinstance(iterator, ast.Name):
            return aliases.get(iterator.id)
        return None

    def _direct_loop_phase(
        self, stmt: ast.For, collection: ActorCollection, hazards: list[Hazard]
    ) -> PhaseEffects:
        """``for router in self.routers: router.phase(cycle)`` loops."""
        name = self._phase_name(stmt, collection.attr)
        phase = PhaseEffects(name=name, actor_class=collection.class_name)
        model = self._models.get(collection.class_name)
        if model is None:
            hazards.append(self._unresolvable(collection.class_name, name, stmt.lineno))
            return phase
        walker = _EffectWalker(self, phase, hazards)
        env: dict[str, Val] = {"self": Val(NETWORK, cls=self.info.name)}
        if isinstance(stmt.target, ast.Name):
            env[stmt.target.id] = Val(SELF, cls=collection.class_name)
        for child in stmt.body:
            walker._stmt(child, env, 0, f"{self.info.name}.step")
        return phase

    def _index_loop_phase(self, stmt: ast.For, hazards: list[Hazard]) -> PhaseEffects:
        """``for node in self.eval_order: self.routers[node].phase(cycle)``."""
        actor_class = None
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "self"
            ):
                collection = self.collection_for(node.value.attr)
                if collection is not None:
                    actor_class = collection.class_name
                    break
        name = self._phase_name(stmt, actor_class or "eval_order")
        phase = PhaseEffects(name=name, actor_class=actor_class)
        if actor_class is not None and self._models.get(actor_class) is None:
            hazards.append(self._unresolvable(actor_class, name, stmt.lineno))
            return phase
        walker = _EffectWalker(self, phase, hazards)
        env: dict[str, Val] = {"self": Val(NETWORK, cls=self.info.name)}
        if isinstance(stmt.target, ast.Name):
            env[stmt.target.id] = Val(INDEX)
        for child in stmt.body:
            walker._stmt(child, env, 0, f"{self.info.name}.step")
        return phase

    def _unresolvable(self, class_name: str, phase: str, line: int) -> Hazard:
        return Hazard(
            rule_id="D007",
            network=self.label,
            phase=phase,
            location=f"{self.info.name}.step",
            line=line,
            message=(
                f"actor class `{class_name}` could not be resolved; "
                "phase is unverifiable"
            ),
        )

    @staticmethod
    def _phase_name(stmt: ast.For, subject: str) -> str:
        methods = [
            child.value.func.attr
            for child in stmt.body
            if isinstance(child, ast.Expr)
            and isinstance(child.value, ast.Call)
            and isinstance(child.value.func, ast.Attribute)
        ]
        return f"{subject}: {', '.join(methods) or '<loop>'}"

    def _singleton_phase(self, stmt: ast.stmt) -> PhaseEffects:
        description = ast.unparse(stmt).splitlines()[0]
        if len(description) > 60:
            description = description[:57] + "..."
        return PhaseEffects(name=f"network: {description}", actor_class=None)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def analyze_model(
    module: str,
    class_name: str,
    label: str | None = None,
    resolver: SourceResolver | None = None,
) -> ModelRaceReport:
    """Race-analyze one network model class by dotted module path."""
    resolver = resolver or SourceResolver()
    info = resolver.resolve_class(class_name, module)
    if info is None:
        raise AnalysisError(f"cannot resolve class {class_name} in module {module}")
    return NetworkAnalyzer(info, label=label).analyze()


def analyze_known_networks() -> list[ModelRaceReport]:
    """Race-analyze the three shipped network models (FR, VC, wormhole)."""
    resolver = SourceResolver()
    return [
        analyze_model(module, class_name, label=label, resolver=resolver)
        for label, module, class_name in KNOWN_NETWORKS
    ]


def analyze_module_source(source: str, path: str) -> list[Hazard]:
    """Single-file analysis, from source text (how tests feed it fixtures).

    Finds every class in the module that defines both a ``step`` method and
    an actor construction whose classes all live in the *same file*, and
    returns the hazards of each.  Models whose actor classes are imported
    are skipped -- the whole-model ``frfc_analyze races`` pass covers those.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return []
    module = f"<file:{path}>"
    resolver = SingleModuleResolver(module, tree)
    local_classes = {stmt.name for stmt in tree.body if isinstance(stmt, ast.ClassDef)}
    hazards: list[Hazard] = []
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        info = ClassInfo(name=stmt.name, module=module, node=stmt, resolver=resolver)
        if info.method("step") is None or info.method("__init__") is None:
            continue
        analyzer = NetworkAnalyzer(info)
        if not analyzer.collections:
            continue
        if not all(
            collection.class_name in local_classes
            for collection in analyzer.collections
        ):
            continue
        hazards.extend(analyzer.analyze().hazards)
    return hazards
