"""Watch flit-reservation flow control work, one packet at a time.

Attaches a trace log to an FR6 network under moderate load and prints a
packet's event timeline -- the programmatic version of the paper's Figure
4(d).  You can see the control flits arrive at each router ahead of the
data flits, and data flits bypass straight to ejection (arrival and
ejection in the same cycle) once the reservations are in place.  A channel
utilization report shows where the network is actually working.

Run:  python examples/trace_a_packet.py [--load 0.4] [--packet 5]
"""

import argparse

from repro import FR6, Simulator, build_network
from repro.obs.spatial import SpatialMetricsRegistry, format_link_utilization
from repro.obs.trace import TraceLog


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--load", type=float, default=0.40)
    parser.add_argument("--packet", type=int, default=5)
    parser.add_argument("--cycles", type=int, default=500)
    args = parser.parse_args()

    network = build_network(FR6, args.load, seed=7)
    log = TraceLog().attach(network)
    simulator = Simulator(network)
    simulator.step(args.cycles)

    print(log.format_packet(args.packet))
    events = log.packet_events(args.packet)
    bypasses = sum(
        1
        for eject in events
        if eject.kind == "data_eject"
        and any(
            arrival.kind == "data_arrival"
            and arrival.cycle == eject.cycle
            and arrival.detail == eject.detail
            for arrival in events
        )
    )
    print(f"\n{bypasses} flit(s) of this packet bypassed buffering at the "
          "destination (ejected the cycle they arrived).")

    print("\nWhere the data network is working:")
    registry = SpatialMetricsRegistry()
    registry.install_standard_instruments(network, simulator.cycle)
    simulator.step(1_000)
    row = registry.row(network, simulator.cycle - 1)
    print(format_link_utilization(registry, row, count=6))


if __name__ == "__main__":
    main()
