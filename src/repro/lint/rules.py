"""The frfc-lint rules.

These are *simulator-specific* checks: each one fences off a class of bug
that has silently corrupted cycle-accurate models in practice.  One class
per rule below, ``ALL_RULES`` at the bottom; the catalogue -- what each id
rejects and why it matters here -- is the table in
``docs/static-analysis.md`` (a test holds it equal to ``ALL_RULES``), and
``frfc-lint --list-rules`` prints the one-line summaries.  The ids have gaps
(D007, D009, D010, D011, D012, D013): retired rules keep their numbers.

Any rule can be silenced on a single line with ``# frfc-lint: disable=Dxxx``
or on the following line with ``# frfc-lint: disable-next-line=Dxxx``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.engine import Finding

#: Modules whose import (in simulator code) defeats seeded reproducibility.
FORBIDDEN_MODULES = ("random",)

#: Dotted call suffixes that read the wall clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)

#: Constructors whose call (or literal form) produces a mutable object.
MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter", "OrderedDict"}
)

#: Subpackages whose public functions D005 requires to be fully annotated.
ANNOTATED_SUBPACKAGES = frozenset({"core", "sim", "baselines"})

#: Path suffixes (as ``/``-joined parts) of the CLI front-ends D008 exempts:
#: the only modules in the package whose job is writing to stdout.
CLI_MODULE_SUFFIXES = ("harness/runner.py",)

#: Modules allowed to open files for (truncating) writing: the atomic-writer
#: home, the ledger built on it, and the CLI front-ends (D014 exempts them).
ATOMIC_WRITER_SUFFIXES = ("obs/exporters.py", "obs/ledger.py") + CLI_MODULE_SUFFIXES


def _dotted_name(node: ast.expr) -> str | None:
    """Best-effort dotted name of an attribute chain (``a.b.c``)."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


class Rule:
    """One lint rule: an id, a one-line summary, and an AST check."""

    rule_id: str = ""
    summary: str = ""

    def check(self, tree: ast.Module, path: str) -> Iterable[Finding]:
        raise NotImplementedError(f"rule {self.rule_id} does not implement check()")

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )


class NoAmbientNondeterminism(Rule):
    """D001: no wall-clock reads, no global ``random`` module."""

    rule_id = "D001"
    summary = "wall-clock or global `random` use; randomness must flow through repro.sim.rng"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in FORBIDDEN_MODULES:
                        yield self.finding(
                            path,
                            node,
                            f"module `{alias.name}` imported; draw randomness "
                            "through repro.sim.rng.DeterministicRng instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = (node.module or "").split(".")[0]
                if module in FORBIDDEN_MODULES:
                    yield self.finding(
                        path,
                        node,
                        f"import from `{node.module}`; draw randomness "
                        "through repro.sim.rng.DeterministicRng instead",
                    )
                elif module in ("time", "datetime"):
                    for alias in node.names:
                        dotted = f"{module}.{alias.name}"
                        if dotted in WALL_CLOCK_CALLS or alias.name in ("datetime", "date"):
                            yield self.finding(
                                path,
                                node,
                                f"wall-clock import `{dotted}`: simulator results "
                                "must not depend on real time",
                            )
            elif isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is None:
                    continue
                tail = ".".join(dotted.split(".")[-2:])
                if tail in WALL_CLOCK_CALLS:
                    yield self.finding(
                        path,
                        node,
                        f"wall-clock call `{dotted}()`: simulator results "
                        "must not depend on real time",
                    )


class NoBareSetIteration(Rule):
    """D002: iteration order over a set depends on hashes -- a determinism hazard."""

    rule_id = "D002"
    summary = "iteration over a bare set (hash-order nondeterminism)"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            for iterable in _iterables(node):
                if self._is_bare_set(iterable):
                    yield self.finding(
                        path,
                        iterable,
                        "iteration over a bare set is hash-order nondeterministic; "
                        "iterate a list/tuple or wrap in sorted()",
                    )
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            scope = list(_own_scope(node))
            names = self._set_only_locals(node, scope)
            for inner in scope if names else ():
                for iterable in _iterables(inner):
                    if isinstance(iterable, ast.Name) and iterable.id in names:
                        yield self.finding(
                            path,
                            iterable,
                            f"`{iterable.id}` is only ever bound to a set here, so "
                            "iterating it is hash-order nondeterministic; iterate "
                            f"sorted({iterable.id})",
                        )

    @staticmethod
    def _is_bare_set(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_ALGEBRA):
            # Set algebra (union/intersection/difference) of sets is a set.
            return NoBareSetIteration._is_bare_set(node.left) or NoBareSetIteration._is_bare_set(
                node.right
            )
        return False

    @staticmethod
    def _set_only_locals(
        function: ast.FunctionDef | ast.AsyncFunctionDef, scope: list[ast.AST]
    ) -> set[str]:
        """Names ``function`` binds, and binds only to a bare set expression.

        A parameter, a loop or ``with`` target and any assignment of
        something else (``names = sorted(names)``) make a name an unknown;
        in-place set algebra (``names |= other``) keeps it a set.
        """
        arguments = function.args
        other = {
            arg.arg
            for arg in (
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
                arguments.vararg,
                arguments.kwarg,
            )
            if arg is not None
        }
        set_targets: set[ast.AST] = set()
        for node in scope:
            if isinstance(node, ast.Assign) and NoBareSetIteration._is_bare_set(node.value):
                set_targets.update(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if NoBareSetIteration._is_bare_set(node.value):
                    set_targets.add(node.target)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, _SET_ALGEBRA):
                set_targets.add(node.target)
        bound_to_set: set[str] = set()
        for node in scope:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                (bound_to_set if node in set_targets else other).add(node.id)
        return bound_to_set - other


#: Binary operators that keep a set a set.
_SET_ALGEBRA = (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)


def _iterables(node: ast.AST) -> list[ast.expr]:
    """What ``node`` iterates: a loop's iterable, a comprehension's each."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return [generator.iter for generator in node.generators]
    return []


def _own_scope(function: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Every node of ``function``'s body, not descending into nested scopes."""
    stack: list[ast.AST] = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


class ErrorsCarryMessages(Rule):
    """D003: protocol-violation exceptions must name what went wrong."""

    rule_id = "D003"
    summary = "`*Error` exception raised without a message"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                name = _dotted_name(exc)
                if name is not None and self._is_error_name(name.split(".")[-1]):
                    yield self.finding(
                        path, node, f"exception `{name}` raised without a message"
                    )
            elif isinstance(exc, ast.Call):
                name = _dotted_name(exc.func)
                if name is None:
                    continue
                short = name.split(".")[-1]
                if self._is_error_name(short) and not exc.args:
                    yield self.finding(
                        path, node, f"exception `{short}` raised without a message"
                    )

    @staticmethod
    def _is_error_name(name: str) -> bool:
        return name.endswith("Error") or name.endswith("Violation")


class NoMutableDefaults(Rule):
    """D004: a mutable default is shared across every call and every instance."""

    rule_id = "D004"
    summary = "mutable default argument"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            for arg, default in zip(positional[len(positional) - len(args.defaults) :], args.defaults):
                if self._is_mutable(default):
                    yield self.finding(
                        path, default, f"mutable default argument `{arg.arg}`"
                    )
            for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
                if kw_default is not None and self._is_mutable(kw_default):
                    yield self.finding(
                        path, kw_default, f"mutable default argument `{arg.arg}`"
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in MUTABLE_FACTORIES
        return False


class PublicFunctionsAnnotated(Rule):
    """D005: the flit-accounting subpackages keep a fully annotated surface."""

    rule_id = "D005"
    summary = "public function in core/, sim/, or baselines/ missing type annotations"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        parts = set(Path(path).parts)
        if not parts & ANNOTATED_SUBPACKAGES:
            return
        yield from self._check_body(tree.body, path)

    def _check_body(self, body: list[ast.stmt], path: str) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_body(node.body, path)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                missing = self._missing_annotations(node)
                if missing:
                    yield self.finding(
                        path,
                        node,
                        f"public function `{node.name}` missing type annotations: "
                        + ", ".join(missing),
                    )

    @staticmethod
    def _missing_annotations(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
        args = node.args
        missing: list[str] = []
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is None and arg.arg not in ("self", "cls"):
                missing.append(arg.arg)
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append(f"*{args.vararg.arg}")
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append(f"**{args.kwarg.arg}")
        if node.returns is None:
            missing.append("return")
        return missing


class NoForeignPrivateState(Rule):
    """D006: another object's underscore attributes are not your state."""

    rule_id = "D006"
    summary = "access to another object's private (underscore) state"

    #: Link's pipeline internals; reading them outside sim/link.py couples
    #: an observer to sub-cycle link state the pipeline API hides.
    LINK_PRIVATE_NAMES = frozenset({"_slots"})

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        in_link_module = Path(path).name == "link.py" and "sim" in Path(path).parts
        for node in ast.walk(tree):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                yield from self._check_write(target, path)
            if (
                not in_link_module
                and isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr in self.LINK_PRIVATE_NAMES
                and not self._receiver_is_self(node)
            ):
                yield self.finding(
                    path,
                    node,
                    f"read of Link pipeline internals `{node.attr}`; use the "
                    "Link API (send/receive/capacity_remaining/in_flight) or "
                    "suppress with a justification",
                )

    def _check_write(self, target: ast.expr, path: str) -> Iterator[Finding]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._check_write(element, path)
        elif isinstance(target, ast.Starred):
            yield from self._check_write(target.value, path)
        elif (
            isinstance(target, ast.Attribute)
            and target.attr.startswith("_")
            and not self._receiver_is_self(target)
        ):
            yield self.finding(
                path,
                target,
                f"write to private attribute `{target.attr}` of another "
                "object; go through its public API so cross-object coupling "
                "stays visible",
            )

    @staticmethod
    def _receiver_is_self(node: ast.Attribute) -> bool:
        return isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")


class NoPrintInSimulator(Rule):
    """D008: only the CLI front-ends may write to stdout."""

    rule_id = "D008"
    summary = "direct print() in simulator code; only CLI modules own stdout"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        parts = Path(path).parts
        if "repro" not in parts:
            return  # tests, tools, and scripts print freely
        posix = Path(path).as_posix()
        if any(posix.endswith(suffix) for suffix in CLI_MODULE_SUFFIXES):
            return
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    path,
                    node,
                    "print() in simulator code: return the value, raise, or "
                    "emit through repro.obs; only CLI modules write to stdout",
                )


class ResultWritesAreAtomic(Rule):
    """D014: result-bearing writes flow through the atomic writers."""

    rule_id = "D014"
    summary = "direct truncating write; route through the atomic hash-verified writers"

    #: ``Path`` write methods that truncate in place.
    PATH_WRITE_METHODS = frozenset({"write_text", "write_bytes"})

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        parts = Path(path).parts
        if "repro" not in parts:
            return  # tests, tools, and scripts write freely
        posix = Path(path).as_posix()
        if any(posix.endswith(suffix) for suffix in ATOMIC_WRITER_SUFFIXES):
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                mode = self._open_mode(node)
                if mode is not None and ("w" in mode or "x" in mode):
                    yield self.finding(
                        path,
                        node,
                        f"open(..., {mode!r}) truncates in place; write results "
                        "through repro.obs.exporters.atomic_write_text/json so "
                        "readers never see a torn file",
                    )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self.PATH_WRITE_METHODS
            ):
                yield self.finding(
                    path,
                    node,
                    f"`.{node.func.attr}()` truncates in place; write results "
                    "through repro.obs.exporters.atomic_write_text/json so "
                    "readers never see a torn file",
                )

    @staticmethod
    def _open_mode(node: ast.Call) -> str | None:
        """The literal mode of an ``open`` call, or None when read/unknown."""
        mode: ast.expr | None = None
        if len(node.args) >= 2:
            mode = node.args[1]
        else:
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None


#: Every rule the engine runs, in report order.
ALL_RULES: tuple[Rule, ...] = (
    NoAmbientNondeterminism(),
    NoBareSetIteration(),
    ErrorsCarryMessages(),
    NoMutableDefaults(),
    PublicFunctionsAnnotated(),
    NoForeignPrivateState(),
    NoPrintInSimulator(),
    ResultWritesAreAtomic(),
)
