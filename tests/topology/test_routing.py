"""Tests for dimension-ordered routing."""

from graphlib import CycleError, TopologicalSorter

import pytest

from repro.topology.mesh import EAST, EJECT, NORTH, SOUTH, WEST, Mesh2D
from repro.topology.routing import (
    DimensionOrderRouting,
    RoutingLoopError,
    route_path,
)


@pytest.fixture
def routing8(mesh8):
    return DimensionOrderRouting(mesh8)


class TestOutputPort:
    def test_eject_at_destination(self, mesh8, routing8):
        for node in [0, 17, 63]:
            assert routing8.output_port(node, node) == EJECT

    def test_x_before_y(self, mesh8, routing8):
        src = mesh8.node_at(1, 1)
        dst = mesh8.node_at(4, 6)
        assert routing8.output_port(src, dst) == EAST

    def test_y_after_x_aligned(self, mesh8, routing8):
        src = mesh8.node_at(4, 1)
        dst = mesh8.node_at(4, 6)
        assert routing8.output_port(src, dst) == SOUTH

    def test_west_and_north(self, mesh8, routing8):
        src = mesh8.node_at(5, 5)
        assert routing8.output_port(src, mesh8.node_at(2, 5)) == WEST
        assert routing8.output_port(src, mesh8.node_at(5, 2)) == NORTH

    @pytest.mark.parametrize("width, height", [(2, 2), (5, 3), (2, 7), (8, 8), (16, 16)])
    def test_table_equals_the_per_pair_reference(self, width, height):
        mesh = Mesh2D(width, height)
        routing = DimensionOrderRouting(mesh)
        for node in mesh.nodes():
            assert list(routing._table[node]) == [
                routing._compute(node, destination) for destination in mesh.nodes()
            ]


class TestPaths:
    def test_path_length_is_hop_distance(self, mesh8, routing8):
        for src, dst in [(0, 63), (7, 56), (20, 43)]:
            path = route_path(routing8, mesh8, src, dst)
            assert len(path) - 1 == mesh8.hop_distance(src, dst)

    def test_all_pairs_reach_destination(self, mesh4):
        routing = DimensionOrderRouting(mesh4)
        for src in mesh4.nodes():
            for dst in mesh4.nodes():
                if src == dst:
                    continue
                path = route_path(routing, mesh4, src, dst)
                assert path[0] == src
                assert path[-1] == dst
                assert len(path) - 1 == mesh4.hop_distance(src, dst)

    def test_paths_turn_at_most_once(self, mesh8, routing8):
        """XY routing has a single EW->NS turn and never goes NS->EW."""
        path = route_path(routing8, mesh8, mesh8.node_at(1, 6), mesh8.node_at(6, 1))
        directions = []
        for a, b in zip(path, path[1:]):
            ax, ay = mesh8.coordinates(a)
            bx, by = mesh8.coordinates(b)
            directions.append("x" if ax != bx else "y")
        # All x-moves precede all y-moves.
        assert directions == sorted(directions, key=lambda d: d != "x")

    def test_a_hop_off_the_mesh_edge_is_refused(self, mesh4):
        class WestwardRouting:
            def output_port(self, node, destination):
                return WEST

        with pytest.raises(ValueError, match="off the mesh edge at node 0 port"):
            route_path(WestwardRouting(), mesh4, 1, 3)


class TestRoutingLoopDetection:
    class BouncingRouting:
        """Sends every non-delivered packet east/west forever."""

        def __init__(self, mesh):
            self.mesh = mesh

        def output_port(self, node, destination):
            if node == destination:
                return EJECT
            return EAST if node % self.mesh.width == 0 else WEST

    def test_revisit_raises_immediately_with_node_cycle(self, mesh4):
        routing = self.BouncingRouting(mesh4)
        with pytest.raises(RoutingLoopError) as excinfo:
            route_path(routing, mesh4, 0, 3)
        error = excinfo.value
        assert error.src == 0
        assert error.dst == 3
        # The cycle closes on the revisited node and names it in the message.
        assert error.cycle[-1] in error.cycle[:-1]
        assert str(error.cycle[-1]) in str(error)

    def test_detection_does_not_wait_for_hop_count_overflow(self, mesh4):
        """The walk raises on the first revisit: the reported cycle is the
        two-node bounce, not a num_nodes-hop trek."""
        routing = self.BouncingRouting(mesh4)
        with pytest.raises(RoutingLoopError) as excinfo:
            route_path(routing, mesh4, 0, 3)
        assert len(excinfo.value.cycle) <= 3

    class LateBouncingRouting:
        """Walks east to column 2, then bounces between columns 1 and 2: the
        loop never passes the source.  Asked for more hops than the mesh
        has nodes, it fails instead of letting a missed loop spin forever."""

        def __init__(self, mesh):
            self.mesh = mesh
            self.hops = 0

        def output_port(self, node, destination):
            self.hops += 1
            assert self.hops <= self.mesh.num_nodes, "route_path missed the loop"
            return WEST if node % self.mesh.width == 2 else EAST

    def test_a_loop_away_from_the_source_is_caught_on_its_first_revisit(self, mesh4):
        with pytest.raises(RoutingLoopError) as excinfo:
            route_path(self.LateBouncingRouting(mesh4), mesh4, 0, 3)
        assert excinfo.value.cycle == [1, 2, 1]


def dependency_graph(routing, mesh):
    """The channel dependency graph, as ``{wanted: {held, ...}}``.

    One vertex per unidirectional mesh channel ``(node, next_node)``, each
    listing the channels a route holds just before requesting it.  Injection
    and ejection channels stay out: nothing upstream of an injection and
    nothing downstream of an (unbounded) ejection can close a wait cycle.
    """
    graph = {}
    for src in mesh.nodes():
        for dst in mesh.nodes():
            if src == dst:
                continue
            path = route_path(routing, mesh, src, dst)
            channels = list(zip(path, path[1:]))
            for held, wanted in zip(channels, channels[1:]):
                graph.setdefault(wanted, set()).add(held)
    return graph


def dependency_sorter(routing, mesh):
    """The channel dependency graph as a ``TopologicalSorter``."""
    return TopologicalSorter(dependency_graph(routing, mesh))


class TestDeadlockFreedom:
    """Dally & Seitz: a deterministic routing function is deadlock-free iff
    its channel dependency graph is acyclic."""

    class YXMixedRouting:
        """XY toward even destinations, YX toward odd ones.

        Every hop is minimal, so every route delivers, but mixing the two
        dimension orders allows all eight turns, and around any mesh square
        they close a channel cycle.
        """

        def __init__(self, mesh):
            self.mesh = mesh

        def output_port(self, node, destination):
            x, y = self.mesh.coordinates(node)
            dx, dy = self.mesh.coordinates(destination)
            moves = [
                EAST if x < dx else WEST if x > dx else None,
                SOUTH if y < dy else NORTH if y > dy else None,
            ]
            if destination % 2:
                moves.reverse()
            return next((port for port in moves if port is not None), EJECT)

    class GreedyDimensionRouting:
        """Minimal 'adaptive' routing with no escape channel.

        Each hop corrects whichever dimension has the larger remaining offset
        (ties go to x).  The dimension order then depends on position, which
        closes channel-wait cycles -- the hazard escape channels exist to
        break (Duato).
        """

        def __init__(self, mesh):
            self.mesh = mesh

        def output_port(self, node, destination):
            x, y = self.mesh.coordinates(node)
            dx, dy = self.mesh.coordinates(destination)
            if x != dx and abs(dx - x) >= abs(dy - y):
                return EAST if x < dx else WEST
            if y != dy:
                return SOUTH if y < dy else NORTH
            return EJECT

    class PingPongRouting:
        """Bounces every undelivered packet between two columns: it livelocks."""

        def __init__(self, mesh):
            self.mesh = mesh

        def output_port(self, node, destination):
            if node == destination:
                return EJECT
            return WEST if node % self.mesh.width else EAST

    DEADLOCK_PRONE = ["YXMixedRouting", "GreedyDimensionRouting"]

    @pytest.mark.parametrize("side", [4, 8])
    def test_xy_channel_dependency_graph_is_acyclic(self, side):
        mesh = Mesh2D(side, side)
        order = list(dependency_sorter(DimensionOrderRouting(mesh), mesh).static_order())
        # Every mesh channel carries some two-hop route, so all of them are
        # ordered: both directions of each of the 2 * side * (side - 1) links.
        assert len(order) == len(set(order)) == 4 * side * (side - 1)

    def test_yx_mixed_routing_is_rejected_with_a_channel_cycle(self, mesh4):
        routing = self.YXMixedRouting(mesh4)
        with pytest.raises(CycleError) as excinfo:
            dependency_sorter(routing, mesh4).prepare()
        cycle = excinfo.value.args[1]
        assert len(cycle) >= 5 and cycle[0] == cycle[-1]
        # Each step holds one channel and wants the next out of its far end.
        for held, wanted in zip(cycle, cycle[1:]):
            assert held[1] == wanted[0]

    @pytest.mark.parametrize("width, height", [(5, 3), (2, 7)])
    def test_xy_is_acyclic_on_rectangular_meshes(self, width, height):
        mesh = Mesh2D(width, height)
        order = list(dependency_sorter(DimensionOrderRouting(mesh), mesh).static_order())
        links = 2 * ((width - 1) * height + width * (height - 1))
        assert len(order) == len(set(order)) == links

    def test_xy_dependencies_turn_only_from_x_to_y(self, mesh8):
        """The turn-model reason XY is acyclic: a route never waits on an x
        channel while holding a y channel."""

        def is_x(channel):
            return mesh8.coordinates(channel[0])[1] == mesh8.coordinates(channel[1])[1]

        graph = dependency_graph(DimensionOrderRouting(mesh8), mesh8)
        assert graph
        for wanted, held_channels in graph.items():
            for held in held_channels:
                assert is_x(held) or not is_x(wanted), (held, wanted)

    def test_dependency_graph_holds_only_mesh_links(self, mesh4):
        graph = dependency_graph(DimensionOrderRouting(mesh4), mesh4)
        channels = set(graph).union(*graph.values())
        for src, dst in channels:
            assert dst in [mesh4.neighbor(src, port) for port in mesh4.mesh_ports(src)]

    @pytest.mark.parametrize("routing_name", DEADLOCK_PRONE)
    def test_deadlock_prone_routings_still_deliver_minimally(self, routing_name, mesh4):
        """The broken routings fail the check for a cycle, not a bad route."""
        routing = getattr(self, routing_name)(mesh4)
        for src in mesh4.nodes():
            for dst in mesh4.nodes():
                path = route_path(routing, mesh4, src, dst)
                assert path[0] == src and path[-1] == dst
                assert len(path) == mesh4.hop_distance(src, dst) + 1

    @pytest.mark.parametrize("routing_name", DEADLOCK_PRONE)
    def test_reported_cycle_follows_dependency_edges(self, routing_name, mesh8):
        routing = getattr(self, routing_name)(mesh8)
        graph = dependency_graph(routing, mesh8)
        with pytest.raises(CycleError) as excinfo:
            TopologicalSorter(graph).prepare()
        cycle = excinfo.value.args[1]
        assert len(cycle) >= 5 and cycle[0] == cycle[-1]
        for held, wanted in zip(cycle, cycle[1:]):
            assert held in graph[wanted], (held, wanted)

    def test_a_livelocked_routing_raises_rather_than_ordering(self, mesh4):
        with pytest.raises(RoutingLoopError):
            dependency_sorter(self.PingPongRouting(mesh4), mesh4)
