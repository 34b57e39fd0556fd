"""The input reservation table and scheduler (paper Figure 4c).

One per input channel.  It orchestrates every data flit movement through the
router at its pre-arranged times:

* ``expected``   -- reservations for flits that have not arrived yet, keyed
  by arrival time (the "Flit Arriving?" / "Departure Time" / "Output
  Channel" rows of Figure 4c);
* ``departures`` -- which buffer drives which output at each cycle (the
  "Buffer Out" / "Output Channel" rows);
* ``schedule list`` -- flits that arrived before their control flit finished
  scheduling here (possible when data flits catch up with control flits, or
  when one control flit leads several data flits), held in the pool and
  linked up when the reservation feedback arrives.

There are no decisions here -- all the work was done ahead of time by the
control flits; each cycle the table simply directs writes, reads and the
bypass.  Credits to the upstream node are generated the moment a departure
is scheduled (advance credits), which is what collapses the buffer
turnaround time to zero.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.buffer_pool import BufferPool, IntervalBookkeeper
from repro.core.flits import DataFlit


class InputScheduleError(Exception):
    """Raised when arrivals and reservations disagree -- a protocol bug."""


# Shared sentinel for "no departures this cycle": the caller only iterates
# the returned sequence, so handing every idle call the same empty tuple
# avoids an allocation on the dominant path.  A tuple (not a list) so no
# caller can mutate it and alias state across every InputScheduler in the
# mesh, and across every run in the process.
_NO_DEPARTURES: tuple[tuple[DataFlit, int], ...] = ()

#: ``next_departure`` when nothing is scheduled -- later than any real cycle.
_NEVER = 1 << 60


class InputScheduler:
    """Directs data flit movement through one input port."""

    __slots__ = (
        "pool",
        "expected",
        "departures",
        "schedule_list",
        "port_uses",
        "next_departure",
        "bookkeeper",
        "on_arrival",
        "take_departures",
        "_on_buffer_event",
        "flits_bypassed",
        "flits_buffered",
        "early_arrivals",
    )

    def __init__(self, pool_size: int, track_transfers: bool = False) -> None:
        self.pool = BufferPool(pool_size)
        self.expected: dict[int, tuple[int, int]] = {}  # t_a -> (t_d, out_port)
        self.departures: dict[int, list[tuple[int, int]]] = {}  # t_d -> [(buffer, out)]
        self.schedule_list: dict[int, int] = {}  # t_a -> buffer, for early flits
        # Departures scheduled per cycle from this input, bypasses included:
        # the output schedulers consult this to respect the number of buffer
        # read ports (paper footnote 7).
        self.port_uses: dict[int, int] = {}
        # Earliest outstanding departure cycle (min over port_uses keys, which
        # cover every departures key): lets the router skip take_departures
        # entirely on cycles where both pops would be no-ops.
        self.next_departure = _NEVER
        self.bookkeeper = IntervalBookkeeper(pool_size) if track_transfers else None
        # Observability hook: ("alloc"|"free", cycle, occupied-after).  Pure
        # observer -- the scheduler never consults it.  The public name is a
        # property; setting it swaps the on_arrival/take_departures dispatch
        # slots between plain and observed variants, so a detached scheduler
        # pays no per-event hook branches.  The slots hold plain class
        # functions (a bound method would make the scheduler reference
        # itself), so callers pass the scheduler: on_arrival(sched, now, flit).
        self._on_buffer_event: Optional[Callable[[str, int, int], None]] = None
        self.on_arrival = InputScheduler._on_arrival_plain
        self.take_departures = InputScheduler._take_departures_plain
        # Diagnostics.
        self.flits_bypassed = 0
        self.flits_buffered = 0
        self.early_arrivals = 0

    @property
    def on_buffer_event(self) -> Optional[Callable[[str, int, int], None]]:
        return self._on_buffer_event

    @on_buffer_event.setter
    def on_buffer_event(self, hook: Optional[Callable[[str, int, int], None]]) -> None:
        self._on_buffer_event = hook
        if hook is None:
            self.on_arrival = InputScheduler._on_arrival_plain
            self.take_departures = InputScheduler._take_departures_plain
        else:
            self.on_arrival = InputScheduler._on_arrival_observed
            self.take_departures = InputScheduler._take_departures_observed

    def on_reservation(self, now: int, arrival: int, departure: int, out_port: int) -> None:
        """Record the output scheduler's feedback for one data flit.

        ``arrival``/``departure`` are the reservation signals t_a and t_d of
        the paper; the caller is responsible for sending the advance credit
        (departure time) to the upstream node.
        """
        if departure <= now:
            raise InputScheduleError(
                f"departure {departure} not in the future (now {now})"
            )
        if self.bookkeeper is not None:
            self.bookkeeper.book(arrival, departure)
        self.port_uses[departure] = self.port_uses.get(departure, 0) + 1
        if departure < self.next_departure:
            self.next_departure = departure
        if arrival >= now:
            if arrival in self.expected:
                raise InputScheduleError(
                    f"two reservations for the same arrival cycle {arrival}"
                )
            if departure < arrival:
                raise InputScheduleError(
                    f"departure {departure} before arrival {arrival}"
                )
            self.expected[arrival] = (departure, out_port)
            return
        # The flit arrived before its control flit finished scheduling here:
        # it is waiting in the pool, tracked by the schedule list.
        try:
            buffer_index = self.schedule_list.pop(arrival)
        except KeyError:
            raise InputScheduleError(
                f"reservation for arrival {arrival} but no such flit in the "
                f"schedule list (now {now})"
            ) from None
        self.departures.setdefault(departure, []).append((buffer_index, out_port))

    def departures_at(self, cycle: int) -> int:
        """Departures already scheduled from this input at ``cycle``."""
        return self.port_uses.get(cycle, 0)

    def _take_departures_plain(self, now: int) -> Sequence[tuple[DataFlit, int]]:
        """Pop this cycle's scheduled (flit, output port) departures.

        Buffers are freed here, *before* arrivals are processed, so a buffer
        vacated at cycle t is usable by a flit arriving at cycle t -- the
        zero-turnaround reuse the reservation accounting promises.
        """
        port_uses = self.port_uses
        if port_uses:
            port_uses.pop(now, None)
            self.next_departure = min(port_uses) if port_uses else _NEVER
        departures = self.departures
        entries = departures.pop(now, None) if departures else None
        if not entries:
            return _NO_DEPARTURES
        release = self.pool.release
        return [(release(buffer_index), out_port) for buffer_index, out_port in entries]

    def _take_departures_observed(self, now: int) -> Sequence[tuple[DataFlit, int]]:
        # Lockstep twin of _take_departures_plain plus the buffer events.
        released = self._take_departures_plain(now)
        if released:
            hook = self._on_buffer_event
            occupied = self.pool.occupied
            for _ in released:
                hook("free", now, occupied)
        return released

    def _on_arrival_plain(self, now: int, flit: DataFlit) -> int | None:
        """Handle a data flit arriving this cycle.

        Returns the output port when the flit *bypasses* -- departs this
        very cycle without touching a buffer -- and None when it was
        buffered (or held in the schedule list awaiting its reservation).
        """
        reservation = self.expected.pop(now, None)
        if reservation is None:
            # Control flit has not finished scheduling here yet.
            buffer_index = self.pool.allocate(flit)
            self.schedule_list[now] = buffer_index
            self.early_arrivals += 1
            self.flits_buffered += 1
            return None
        departure, out_port = reservation
        if departure == now:
            self.flits_bypassed += 1
            return out_port
        buffer_index = self.pool.allocate(flit)
        bucket = self.departures.get(departure)
        if bucket is None:
            self.departures[departure] = bucket = []
        bucket.append((buffer_index, out_port))
        self.flits_buffered += 1
        return None

    def _on_arrival_observed(self, now: int, flit: DataFlit) -> int | None:
        # Lockstep twin of _on_arrival_plain; the alloc event fires exactly
        # when a buffer was taken (every path except the bypass).
        occupied_before = self.pool.occupied
        result = self._on_arrival_plain(now, flit)
        if self.pool.occupied != occupied_before:
            self._on_buffer_event("alloc", now, self.pool.occupied)
        return result

    @property
    def occupancy(self) -> int:
        """Occupied buffers right now (Section 4.2's tracked quantity)."""
        return self.pool.occupied
