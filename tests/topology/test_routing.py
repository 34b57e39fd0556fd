"""Tests for dimension-ordered routing."""

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


class TestDeadlockFreedom:
    def test_channel_dependency_graph_acyclic(self, mesh4):
        """XY routing's channel dependency graph must be a DAG (Dally-Seitz)."""
        import networkx as nx

        routing = DimensionOrderRouting(mesh4)
        graph = nx.DiGraph()
        for src in mesh4.nodes():
            for dst in mesh4.nodes():
                if src == dst:
                    continue
                path = route_path(routing, mesh4, src, dst)
                channels = list(zip(path, path[1:]))
                for c1, c2 in zip(channels, channels[1:]):
                    graph.add_edge(c1, c2)
        assert nx.is_directed_acyclic_graph(graph)
