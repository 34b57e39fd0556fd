"""Reproduce the paper's Figure 4 worked scheduling example.

A data flit arrives from the west channel at cycle 9 and must leave east.
The east channel is busy during cycle 10; at cycle 11 the channel is free
but the next node has no free buffer; the flit is therefore scheduled to
depart at cycle 12, the channel is marked busy at 12, and the downstream
free-buffer count is decremented from 12 onward.  (The figure's footnote 5
uses the buffer state at t_d as the state at t_d + t_p, i.e. a zero
propagation delay, which we mirror here.)
"""

import pytest

from repro.core.flits import DataFlit
from repro.core.input_schedule import InputScheduler
from repro.core.reservation import OutputReservationTable
from repro.topology.mesh import EAST
from repro.traffic.packet import Packet


@pytest.fixture
def east_table():
    """The east output reservation table in the state of Figure 4(a)."""
    table = OutputReservationTable(
        horizon=32, downstream_buffers=1, propagation_delay=0
    )
    # An earlier flit departs at cycle 10 (channel busy) and holds the last
    # downstream buffer until it leaves the next node at cycle 12 (credit).
    table.reserve(0, 10)
    table.apply_credit(0, from_cycle=12)
    return table


class TestFigure4OutputScheduling:
    def test_state_matches_figure_4a(self, east_table):
        assert east_table.is_busy(10)
        assert not east_table.is_busy(11)
        assert east_table.free_buffers_at(11) == 0
        assert east_table.free_buffers_at(12) == 1

    def test_flit_scheduled_to_depart_at_12(self, east_table):
        # t_a = 9, so the earliest departure considered is cycle 10.
        departure = east_table.find_departure(now=0, earliest=10)
        assert departure == 12

    def test_updates_match_figure_4b(self, east_table):
        east_table.reserve(0, 12)
        assert east_table.is_busy(12)
        for cycle in range(12, 32):
            assert east_table.free_buffers_at(cycle) == 0
        assert east_table.free_buffers_at(11) == 0  # unchanged from (a)


class TestFigure4InputScheduling:
    def test_flit_movement_follows_the_reservation(self):
        """Figure 4(c)/(d): arrive at 9, buffered, depart east at 12."""
        scheduler = InputScheduler(pool_size=8)
        scheduler.on_reservation(now=0, arrival=9, departure=12, out_port=EAST)
        packet = Packet(1, source=0, destination=1, length=1, creation_cycle=0)
        flit = DataFlit(packet, 0)

        for cycle in range(9):
            # The idle path returns the shared immutable empty-tuple sentinel.
            assert list(scheduler.take_departures(scheduler, cycle)) == []
        assert scheduler.on_arrival(scheduler, 9, flit) is None  # buffered, not bypassed
        assert scheduler.occupancy == 1

        for cycle in range(9, 12):
            assert list(scheduler.take_departures(scheduler, cycle)) == []
        departures = scheduler.take_departures(scheduler, 12)
        assert departures == [(flit, EAST)]
        assert scheduler.occupancy == 0
