"""Tests for the input scheduler (input reservation table)."""

import pytest

from repro.core.flits import DataFlit
from repro.core.input_schedule import InputScheduleError, InputScheduler
from repro.topology.mesh import EAST, EJECT, NORTH
from repro.traffic.packet import Packet


def make_flit(index=0):
    packet = Packet(1, source=0, destination=3, length=8, creation_cycle=0)
    return DataFlit(packet, index)


class TestReservations:
    def test_future_reservation_then_arrival_then_departure(self):
        scheduler = InputScheduler(4)
        scheduler.on_reservation(now=0, arrival=5, departure=9, out_port=NORTH)
        flit = make_flit()
        assert scheduler.on_arrival(scheduler, 5, flit) is None
        assert scheduler.take_departures(scheduler, 9) == [(flit, NORTH)]

    def test_bypass_when_departure_equals_arrival(self):
        scheduler = InputScheduler(4)
        scheduler.on_reservation(now=0, arrival=5, departure=5, out_port=EAST)
        flit = make_flit()
        assert scheduler.on_arrival(scheduler, 5, flit) == EAST
        assert scheduler.occupancy == 0
        assert scheduler.flits_bypassed == 1

    def test_early_arrival_goes_to_schedule_list(self):
        """A data flit that catches up with its control flit waits in the
        pool and is linked when the reservation feedback arrives."""
        scheduler = InputScheduler(4)
        flit = make_flit()
        assert scheduler.on_arrival(scheduler, 7, flit) is None
        assert scheduler.early_arrivals == 1
        scheduler.on_reservation(now=8, arrival=7, departure=11, out_port=EAST)
        assert scheduler.take_departures(scheduler, 11) == [(flit, EAST)]

    def test_duplicate_arrival_reservation_rejected(self):
        scheduler = InputScheduler(4)
        scheduler.on_reservation(now=0, arrival=5, departure=7, out_port=EAST)
        with pytest.raises(InputScheduleError):
            scheduler.on_reservation(now=0, arrival=5, departure=9, out_port=EAST)

    def test_past_departure_rejected(self):
        scheduler = InputScheduler(4)
        with pytest.raises(InputScheduleError):
            scheduler.on_reservation(now=10, arrival=12, departure=10, out_port=EAST)

    def test_reservation_for_unknown_early_flit_rejected(self):
        scheduler = InputScheduler(4)
        with pytest.raises(InputScheduleError):
            scheduler.on_reservation(now=10, arrival=5, departure=12, out_port=EAST)

    def test_departure_before_arrival_rejected(self):
        scheduler = InputScheduler(4)
        with pytest.raises(InputScheduleError):
            scheduler.on_reservation(now=0, arrival=9, departure=8, out_port=EAST)


class TestBufferTurnaround:
    def test_buffer_freed_at_t_reusable_at_t(self):
        """The zero-turnaround property: a departure at cycle t frees its
        buffer for an arrival in the same cycle."""
        scheduler = InputScheduler(1)  # a single buffer
        scheduler.on_reservation(now=0, arrival=2, departure=6, out_port=EAST)
        scheduler.on_reservation(now=0, arrival=6, departure=9, out_port=NORTH)
        first, second = make_flit(0), make_flit(1)
        assert scheduler.on_arrival(scheduler, 2, first) is None
        assert scheduler.occupancy == 1
        assert scheduler.take_departures(scheduler, 6) == [(first, EAST)]
        assert scheduler.on_arrival(scheduler, 6, second) is None  # same cycle reuse
        assert scheduler.occupancy == 1
        assert scheduler.take_departures(scheduler, 9) == [(second, NORTH)]

    def test_multiple_departures_same_cycle(self):
        scheduler = InputScheduler(4)
        scheduler.on_reservation(now=0, arrival=2, departure=8, out_port=EAST)
        scheduler.on_reservation(now=0, arrival=3, departure=8, out_port=EJECT)
        a, b = make_flit(0), make_flit(1)
        scheduler.on_arrival(scheduler, 2, a)
        scheduler.on_arrival(scheduler, 3, b)
        departures = scheduler.take_departures(scheduler, 8)
        assert sorted(d[1] for d in departures) == sorted([EAST, EJECT])


class TestDiagnostics:
    def test_counters(self):
        scheduler = InputScheduler(4)
        scheduler.on_reservation(now=0, arrival=1, departure=1, out_port=EAST)
        scheduler.on_reservation(now=0, arrival=2, departure=5, out_port=EAST)
        scheduler.on_arrival(scheduler, 1, make_flit(0))
        scheduler.on_arrival(scheduler, 2, make_flit(1))
        assert scheduler.flits_bypassed == 1
        assert scheduler.flits_buffered == 1


class TestSharedSentinel:
    def test_no_departures_sentinel_is_immutable(self):
        # Every idle take_departures returns this one object; a list would
        # let one caller's mutation reach every scheduler in every run.
        from repro.core import input_schedule

        assert isinstance(input_schedule._NO_DEPARTURES, tuple)
