"""An independent oracle for ``OutputReservationTable.reserve_earliest``.

The real table keeps its free-buffer counts as a circular suffix-difference
array with a lazily refreshed lower bound, and fuses the earliest-slot scan
with the commit.  :class:`NaiveReservationTable` below keeps the same
quantities the obvious way -- one list entry per window cycle, every update
an O(horizon) loop, every query a scan -- and shares no code with it.  A
hypothesis state machine drives both through the same reserve / credit /
advance steps, including jumps that expire the whole window, and requires
equal answers and equal table contents after every step, with and without
the caller's read-port limit, for finite and infinite downstream pools.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.reservation import OutputReservationTable, ReservationError


class NaiveReservationTable:
    """Window cycle ``start + i`` owns ``busy[i]`` and ``free[i]``."""

    def __init__(self, horizon: int, buffers: int, delay: int, infinite: bool) -> None:
        self.horizon = horizon
        self.buffers = buffers
        self.delay = delay
        self.infinite = infinite
        self.start = 0
        self.busy = [False] * horizon
        self.free = [buffers] * horizon
        self.parked: dict[int, int] = {}  # credits that start beyond the window

    @property
    def end(self) -> int:
        return self.start + self.horizon - 1

    def advance(self, now: int) -> None:
        """Slide one cycle at a time; a reborn end cycle carries the old end
        count plus any credit parked for exactly that cycle."""
        while self.start < now:
            self.busy = self.busy[1:] + [False]
            born = self.end + 1
            self.free = self.free[1:] + [self.free[-1] + self.parked.pop(born, 0)]
            self.start += 1

    def _qualifies(self, t: int, port_uses: dict[int, int] | None, port_limit: int) -> bool:
        if self.busy[t - self.start]:
            return False
        if port_uses is not None and port_uses.get(t, 0) >= port_limit:
            return False
        if self.infinite:
            return True
        # Hold to horizon: a buffer is free from the arrival (the end cycle
        # when the arrival lies beyond the window) through the window's end.
        first = min(t + self.delay, self.end)
        return all(self.free[u - self.start] >= 1 for u in range(first, self.end + 1))

    def reserve_earliest(
        self, now: int, earliest: int, port_uses: dict[int, int] | None, port_limit: int
    ) -> int | None:
        self.advance(now)
        for t in range(max(earliest, now + 1), self.end + 1):
            if self._qualifies(t, port_uses, port_limit):
                self.busy[t - self.start] = True
                if not self.infinite:
                    for u in range(min(t + self.delay, self.end), self.end + 1):
                        self.free[u - self.start] -= 1
                return t
        return None

    def apply_credit(self, now: int, from_cycle: int) -> None:
        self.advance(now)
        if self.infinite:
            return
        first = max(from_cycle, self.start)
        if first > self.end:
            self.parked[first] = self.parked.get(first, 0) + 1
            return
        if self.free[-1] >= self.buffers:
            raise ReservationError("credit would overfill the pool")
        for u in range(first, self.end + 1):
            self.free[u - self.start] += 1


class ReserveEarliestMachine(RuleBasedStateMachine):
    """Same steps on the real table and the oracle; answers must agree."""

    @initialize(
        horizon=st.integers(min_value=2, max_value=10),
        buffers=st.integers(min_value=1, max_value=3),
        delay=st.integers(min_value=0, max_value=3),
        infinite=st.booleans(),
    )
    def build(self, horizon: int, buffers: int, delay: int, infinite: bool) -> None:
        self.now = 0
        self.real = OutputReservationTable(horizon, buffers, delay, infinite_buffers=infinite)
        self.oracle = NaiveReservationTable(horizon, buffers, delay, infinite)

    @rule(step=st.integers(min_value=0, max_value=3))
    def tick(self, step: int) -> None:
        self.now += step
        self.real.advance(self.now)
        self.oracle.advance(self.now)

    @rule(wraps=st.integers(min_value=1, max_value=3), extra=st.integers(min_value=0, max_value=5))
    def jump(self, wraps: int, extra: int) -> None:
        """Expire the whole window at once (the real table rebuilds it)."""
        self.now += wraps * self.oracle.horizon + extra
        self.real.advance(self.now)
        self.oracle.advance(self.now)

    @rule(
        lag=st.integers(min_value=0, max_value=2),
        offset=st.integers(min_value=-2, max_value=11),
        uses=st.none() | st.dictionaries(
            st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2),
            max_size=8,
        ),
        limit=st.integers(min_value=1, max_value=2),
    )
    def reserve(self, lag: int, offset: int, uses: dict[int, int] | None, limit: int) -> None:
        self.now += lag
        earliest = self.now + offset
        port_uses = None if uses is None else {self.now + k: v for k, v in uses.items()}
        got = self.real.reserve_earliest(self.now, earliest, port_uses, limit)
        want = self.oracle.reserve_earliest(self.now, earliest, port_uses, limit)
        assert got == want, f"reserve_earliest({self.now}, {earliest}): {got} != {want}"

    @rule(lag=st.integers(min_value=0, max_value=2), offset=st.integers(min_value=-2, max_value=20))
    def credit(self, lag: int, offset: int) -> None:
        self.now += lag
        outcomes = []
        for table in (self.real, self.oracle):
            try:
                table.apply_credit(self.now, self.now + offset)
                outcomes.append("applied")
            except ReservationError:
                outcomes.append("refused")
        assert outcomes[0] == outcomes[1], f"credit from {self.now + offset}: {outcomes}"

    @invariant()
    def same_window(self) -> None:
        assert self.real.window_end == self.oracle.end
        start = self.oracle.start
        busy = [self.real.is_busy(start + i) for i in range(self.oracle.horizon)]
        assert busy == self.oracle.busy
        if not self.oracle.infinite:
            assert self.real.free_values() == self.oracle.free


ReserveEarliestMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
TestReserveEarliestAgainstOracle = ReserveEarliestMachine.TestCase
