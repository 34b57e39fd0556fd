"""Deterministic dimension-ordered (XY) routing.

The paper's simulated network uses deterministic dimension-ordered routing,
which is deadlock-free on a mesh without extra virtual channels: packets
first travel east/west until the destination column, then north/south until
the destination row, then eject.
"""

from __future__ import annotations

from typing import Protocol

from repro.topology.mesh import EAST, EJECT, NORTH, SOUTH, WEST, Mesh2D


class RoutingFunction(Protocol):
    """A deterministic single-path routing function."""

    def output_port(self, node: int, destination: int) -> int:
        """The output port a packet at ``node`` bound for ``destination`` takes."""


class DimensionOrderRouting:
    """XY routing on a 2-D mesh, with a precomputed lookup table.

    The table is ``num_nodes x num_nodes`` small integers; on an 8x8 mesh
    that is 4096 entries, and it turns the per-flit routing decision in the
    simulation hot loop into a list index.
    """

    __slots__ = ("mesh", "_table")

    def __init__(self, mesh: Mesh2D) -> None:
        self.mesh = mesh
        width, height = mesh.width, mesh.height
        self._table: list[bytearray] = []
        for node in range(mesh.num_nodes):
            x, y = node % width, node // width
            # Each destination row is WEST up to this column and EAST after
            # it; only the entry for this column depends on the row: NORTH
            # above this node, EJECT on its row, SOUTH below.
            west, east = bytes([WEST]) * x, bytes([EAST]) * (width - x - 1)
            north, here, south = (west + bytes([port]) + east for port in (NORTH, EJECT, SOUTH))
            self._table.append(bytearray(north * y + here + south * (height - y - 1)))

    def _compute(self, node: int, destination: int) -> int:
        """The port for one (node, destination) pair: the reference the
        table is tested against."""
        x, y = self.mesh.coordinates(node)
        dx, dy = self.mesh.coordinates(destination)
        if x < dx:
            return EAST
        if x > dx:
            return WEST
        if y < dy:
            return SOUTH
        if y > dy:
            return NORTH
        return EJECT

    def output_port(self, node: int, destination: int) -> int:
        """The port (EAST/WEST/SOUTH/NORTH/EJECT) to take at ``node``."""
        return self._table[node][destination]


class RoutingLoopError(ValueError):
    """A routing function revisited a node, so the packet can never arrive.

    Carries the offending ``cycle`` (the node sequence from the first visit
    of the repeated node back to itself), so a caller can report the exact
    livelock instead of a generic hop-count overflow.
    """

    def __init__(self, src: int, dst: int, cycle: list[int]) -> None:
        loop = " -> ".join(str(node) for node in cycle)
        super().__init__(
            f"routing loop between {src} and {dst}: packet revisits node "
            f"{cycle[-1]} via {loop}"
        )
        self.src = src
        self.dst = dst
        self.cycle = cycle


def route_path(routing: RoutingFunction, mesh: Mesh2D, src: int, dst: int) -> list[int]:
    """The full node sequence a packet visits from ``src`` to ``dst``.

    Used by tests (among them the channel-dependency deadlock check in
    ``tests/topology/test_routing.py``); the simulators themselves route hop
    by hop.  A deterministic routing function that revisits any node can never
    deliver the packet, so the walk keeps a visited set and raises
    :class:`RoutingLoopError` naming the exact node cycle on the first
    revisit, rather than only after ``num_nodes`` hops.
    """
    path = [src]
    visited = {src}
    node = src
    while node != dst:
        port = routing.output_port(node, dst)
        next_node = mesh.neighbor(node, port)
        if next_node is None:
            raise ValueError(
                f"routing sent a packet off the mesh edge at node {node} port {port}"
            )
        node = next_node
        if node in visited:
            cycle = path[path.index(node) :] + [node]
            raise RoutingLoopError(src, dst, cycle)
        visited.add(node)
        path.append(node)
    return path
