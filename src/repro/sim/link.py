"""Pipelined point-to-point links.

A link models a wire (or a bundle of wires) between two routers.  It is fully
pipelined: one *batch* of up to ``width`` items can be launched every cycle,
and each batch arrives exactly ``delay`` cycles later.  The paper's two
physical regimes map onto two parameterisations:

* **fast control** -- data links with ``delay=4`` and control/credit links
  with ``delay=1`` (control wires are four times faster), and
* **leading control** -- every link with ``delay=1``.

The control network additionally injects and forwards *two* control flits per
cycle (paper footnote 12), which is the ``width=2`` case.

Activity tracking
-----------------

The link keeps an O(1) ``pending`` count of items on the wire (``in_flight``
returns it), and optionally raises a *wake flag* on every ``send``: the
network hands each link a shared flag array and the consumer's index via
:meth:`set_wake`, and the active-set step loops use those flags to skip
routers with nothing to do.  The wake write is a commutative, idempotent
``flags[i] = 1`` performed inside the pipeline API, so it preserves the
delay >= 1 argument that makes phase loops order-independent:
whether the consumer observes the flag during the send cycle or one cycle
later, the item is only *deliverable* at ``cycle + delay``, and a consumer
stays awake while any of its in-links has ``pending`` items.
"""

from __future__ import annotations

from typing import Generic, Optional, TypeVar

T = TypeVar("T")

#: ``next_arrival`` when the wire is empty -- later than any real cycle.
_NEVER = 1 << 60


class LinkOverflowError(Exception):
    """Raised when more than ``width`` items are launched in one cycle.

    Flow control is supposed to make this impossible; hitting it indicates a
    router bug, so it is an error rather than silent back-pressure.
    """


class Link(Generic[T]):
    """A fixed-delay, fixed-width pipelined channel.

    Items sent during cycle ``c`` are delivered by :meth:`receive` at cycle
    ``c + delay``.  Internally the in-flight items live in a circular buffer
    of ``delay + 1`` slots indexed by absolute cycle, so both operations are
    O(1) and no per-cycle sliding work is needed for idle links.  A consumer
    drains each slot in its arrival cycle (the activity kernel keeps it
    awake while ``pending``), so the slot a send appends to holds exactly
    that cycle's launches, and its length is the width count.
    """

    __slots__ = (
        "delay",
        "width",
        "total_sent",
        "pending",
        "next_arrival",
        "_slots",
        "_mod",
        "_wake_flags",
        "_wake_index",
    )

    def __init__(self, delay: int, width: int = 1) -> None:
        if delay < 1:
            raise ValueError(f"link delay must be >= 1 cycle, got {delay}")
        if width < 1:
            raise ValueError(f"link width must be >= 1 flit/cycle, got {width}")
        self.delay = delay
        self.width = width
        self.total_sent = 0  # lifetime launches, for utilization statistics
        self.pending = 0  # items currently on the wire (== in_flight())
        # Earliest cycle any in-flight item is deliverable: consumers with
        # pending items skip the receive call entirely until it comes up.
        self.next_arrival = _NEVER
        self._slots: list[list[T]] = [[] for _ in range(delay + 1)]
        self._mod = delay + 1  # circular-buffer modulus, hoisted off the hot path
        self._wake_flags: Optional[bytearray] = None
        self._wake_index = 0

    def set_wake(self, flags: bytearray, index: int) -> None:
        """Raise ``flags[index]`` on every send (network wiring, init-time)."""
        self._wake_flags = flags
        self._wake_index = index

    def send(self, item: T, cycle: int) -> None:
        """Launch ``item`` onto the wire during ``cycle``."""
        arrival = cycle + self.delay
        batch = self._slots[arrival % self._mod]
        if len(batch) >= self.width:
            raise LinkOverflowError(
                f"link of width {self.width} asked to carry more than "
                f"{self.width} items in cycle {cycle}"
            )
        batch.append(item)
        self.total_sent += 1
        self.pending += 1
        if arrival < self.next_arrival:
            self.next_arrival = arrival
        wake = self._wake_flags
        if wake is not None:
            wake[self._wake_index] = 1

    def capacity_remaining(self, cycle: int) -> int:
        """How many more items can still be launched during ``cycle``."""
        return self.width - len(self._slots[(cycle + self.delay) % self._mod])

    def receive(self, cycle: int) -> list[T]:
        """Drain and return the items arriving at ``cycle``.

        Must be called at most once per cycle per link (arrivals are consumed).
        """
        index = cycle % self._mod
        slots = self._slots
        arrivals = slots[index]
        if not arrivals:
            return arrivals
        slots[index] = []
        self.pending -= len(arrivals)
        if self.pending:
            # Remaining items land within (cycle, cycle + delay]; find the
            # earliest occupied slot (delay is tiny, so this scan is O(1)).
            mod = self._mod
            for k in range(1, self.delay + 1):
                if slots[(cycle + k) % mod]:
                    self.next_arrival = cycle + k
                    break
        else:
            self.next_arrival = _NEVER
        return arrivals

    def in_flight(self) -> int:
        """Number of items currently on the wire (for occupancy statistics)."""
        return self.pending

    def __repr__(self) -> str:
        return f"Link(delay={self.delay}, width={self.width})"
