"""Per-cycle allocation witness: count what the kernel executes.

Each model steps a seeded 4x4 point -- 64 cycles of warm-up, then a
192-cycle window under ``sys.settrace`` with ``f_trace_opcodes`` -- and
every opcode executed in a ``repro`` frame is looked up in a table made
from its code object.  The categories are ones whose count does not move
between CPython 3.10 and 3.12:

* ``list`` / ``dict`` / ``set``: ``BUILD_LIST``, ``BUILD_MAP`` (with
  ``BUILD_CONST_KEY_MAP``), ``BUILD_SET``.  A comprehension counts by its
  ``BUILD_*`` alone, never by its frame or ``MAKE_FUNCTION``, so 3.12's
  inlined comprehensions (PEP 709) count the same as 3.10's.
* ``closure``: a ``MAKE_FUNCTION`` for a nested function, lambda or
  generator expression -- once at creation, not per resume.
* ``string``: ``BUILD_STRING`` and the f-string ``FORMAT_*`` opcodes.
* ``import``: ``IMPORT_NAME``.
* ``construct``: entries into a ``repro`` ``__init__``.

Then every new ``repro`` instance still alive that carries a ``__dict__``
is a class missing ``__slots__``.

The counts repeat exactly run to run.  The gate is "no increase" against
:data:`CEILINGS`: an edit that allocates less passes as is, and may lower
its ceiling in the same change.  Calls into C (``list()``, ``sorted``,
``dict.copy``) and tuple displays are not counted.
"""

from __future__ import annotations

import ast
import dis
import gc
import inspect
import sys
import textwrap
import types
from collections import Counter
from collections.abc import Callable

import pytest

from repro import FR6, VC8, WormholeConfig
from repro.core.router import FRRouter
from repro.harness.experiment import build_network
from repro.topology.mesh import Mesh2D
from repro.traffic import source
from repro.traffic.packet import Packet

WARMUP = 64
WINDOW = 192

POINTS = {
    "FR": (FR6, 0.5),
    "VC": (VC8, 0.5),
    "WH": (WormholeConfig(buffers_per_input=8), 0.3),
}

#: Counts over the window at seed 1.  A category absent here must stay at
#: zero; for every model that includes ``import`` and ``string``.
CEILINGS = {
    "FR": {"list": 22_247, "construct": 323},
    "VC": {"list": 13_175, "dict": 1_072, "closure": 286, "construct": 1_718},
    "WH": {"list": 8_314, "dict": 649, "closure": 170, "construct": 1_020},
}

_OPCODE_CATEGORIES = {
    "BUILD_LIST": "list",
    "BUILD_MAP": "dict",
    "BUILD_CONST_KEY_MAP": "dict",
    "BUILD_SET": "set",
    "BUILD_STRING": "string",
    "FORMAT_VALUE": "string",
    "FORMAT_SIMPLE": "string",
    "FORMAT_WITH_SPEC": "string",
    "IMPORT_NAME": "import",
}
_COMPREHENSIONS = frozenset({"<listcomp>", "<setcomp>", "<dictcomp>"})


def _opcode_table(code: types.CodeType) -> dict[int, str]:
    """Map each counted instruction offset of ``code`` to its category."""
    table = {}
    made = ""
    for instruction in dis.get_instructions(code):
        if isinstance(instruction.argval, types.CodeType):
            made = instruction.argval.co_name
        elif instruction.opname == "MAKE_FUNCTION":
            if made not in _COMPREHENSIONS:
                table[instruction.offset] = "closure"
        elif instruction.opname in _OPCODE_CATEGORIES:
            table[instruction.offset] = _OPCODE_CATEGORIES[instruction.opname]
    return table


def count_allocations(
    run: Callable[[], object], package: str = "repro."
) -> tuple[Counter[str], Counter[str]]:
    """Call ``run`` under opcode tracing.

    Only frames whose module name starts with ``package`` count.  Returns
    the category counts, and the instances with a ``__dict__`` that ``run``
    left alive (its return value included), by class.
    """
    if sys.gettrace() is not None:
        pytest.skip("sys.settrace is taken (coverage or a debugger); the witness needs it")
    counts: Counter[str] = Counter()
    tracers: dict[types.CodeType, tuple[bool, Callable | None]] = {}

    def opcode_tracer(table: dict[int, str]) -> Callable:
        def trace(frame, event, arg):
            if event == "opcode":
                category = table.get(frame.f_lasti)
                if category is not None:
                    counts[category] += 1
            return trace

        return trace

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in tracers:
            counted = frame.f_globals.get("__name__", "").startswith(package)
            table = _opcode_table(code) if counted else {}
            tracers[code] = (counted, opcode_tracer(table) if table else None)
        counted, trace = tracers[code]
        if counted and code.co_name == "__init__":
            counts["construct"] += 1
        if trace is not None:
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
            frame.f_trace = trace  # 3.13 arms opcode events only through this setter
        return trace

    before = gc.get_objects()  # held, so no id below is reused by a new object
    known = set(map(id, before))
    # 3.12 enables opcode events at settrace() only once some frame has asked.
    sys._getframe().f_trace_opcodes = True
    sys.settrace(on_call)
    try:
        _kept = run()
    finally:
        sys.settrace(None)
    loose = Counter(
        f"{type(obj).__module__}.{type(obj).__qualname__}"
        for obj in gc.get_objects()
        if id(obj) not in known
        and type(obj).__module__.startswith(package)
        and hasattr(obj, "__dict__")
    )
    return counts, loose


def _measure(model: str) -> tuple[Counter[str], Counter[str]]:
    config, load = POINTS[model]
    network = build_network(config, load, mesh=Mesh2D(4, 4), seed=1)
    for cycle in range(WARMUP):
        network.step(cycle)

    def window() -> None:
        for cycle in range(WARMUP, WARMUP + WINDOW):
            network.step(cycle)

    return count_allocations(window)


def _violations(model: str, counts: Counter[str]) -> list[str]:
    ceilings = CEILINGS[model]
    return [
        f"{model}: {count} {category} > ceiling {ceilings.get(category, 0)}"
        for category, count in sorted(counts.items())
        if count > ceilings.get(category, 0)
    ]


@pytest.mark.parametrize("model", sorted(POINTS))
def test_per_cycle_allocations_stay_within_ceilings(model):
    counts, loose = _measure(model)
    assert not _violations(model, counts)
    assert not loose, f"{model}: per-cycle instances without __slots__: {dict(loose)}"


def _with_allocation(method: Callable) -> Callable:
    """``method`` recompiled from its source with ``_ = []`` as its first statement."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
    tree.body[0].body.insert(1, ast.parse("_ = []").body[0])  # after the docstring
    module = sys.modules[method.__module__]
    namespace: dict[str, Callable] = {}
    exec(compile(ast.fix_missing_locations(tree), module.__file__, "exec"), vars(module), namespace)
    return namespace[method.__name__]


def test_allocation_seeded_into_fr_control_phase_trips_fr_only(monkeypatch):
    monkeypatch.setattr(FRRouter, "control_phase", _with_allocation(FRRouter.control_phase))
    found = {model: _violations(model, _measure(model)[0]) for model in sorted(POINTS)}
    assert len(found["FR"]) == 1 and " list > " in found["FR"][0]
    assert found["VC"] == found["WH"] == []


def test_slotless_per_cycle_class_trips_the_slots_check(monkeypatch):
    loose_packet = type("LoosePacket", (Packet,), {"__module__": Packet.__module__})
    monkeypatch.setattr(source, "Packet", loose_packet)
    _, loose = _measure("WH")
    assert set(loose) == {"repro.traffic.packet.LoosePacket"}


class _Slotted:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


class _Slotless:
    def __init__(self, value: int) -> None:
        self.value = value


def _fixture() -> tuple[object, ...]:
    n = 3
    items = [n, n + 1]  # list
    squares = [i * i for i in items]  # list: the comprehension's BUILD_LIST only
    index = {i: i * i for i in items}  # dict
    named = {"n": n, "m": n}  # dict (BUILD_CONST_KEY_MAP before 3.13)
    seen = {n}  # set
    total = sum(i for i in items)  # closure: made once, resumed three times

    def scaled(x: int) -> int:  # closure
        return x * n

    label = f"n={n}"  # string: FORMAT_VALUE and BUILD_STRING
    import math  # import

    # construct twice; only the slotless instance carries a __dict__
    return _Slotted(total), _Slotless(scaled(len(squares))), index, named, seen, label, math


def test_fixture_counts_pin_the_counting_rule():
    counts, loose = count_allocations(_fixture, package=__name__)
    assert counts == {
        "list": 2,
        "dict": 2,
        "set": 1,
        "closure": 2,
        "string": 2,
        "import": 1,
        "construct": 2,
    }
    assert loose == {f"{__name__}._Slotless": 1}


def test_skips_when_another_tracer_holds_settrace():
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: None)
    try:
        with pytest.raises(pytest.skip.Exception, match="settrace is taken"):
            count_allocations(_fixture, package=__name__)
    finally:
        sys.settrace(previous)
