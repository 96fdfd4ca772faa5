"""Tests for the SpanningTree structure and congestion accounting."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import Graph, polarfly_graph
from repro.trees import (
    SpanningTree,
    are_edge_disjoint,
    bfs_spanning_tree,
    edge_congestion,
    max_congestion,
    single_tree,
    total_tree_edges,
)
from repro.utils.errors import ConstructionError


def star_tree(n, root=0):
    return SpanningTree(root, {v: root for v in range(n) if v != root})


class TestSpanningTreeBasics:
    def test_star(self):
        t = star_tree(5)
        assert t.root == 0
        assert t.depth == 1
        assert t.num_vertices == 5
        assert t.children(0) == (1, 2, 3, 4)
        assert t.leaves() == (1, 2, 3, 4)
        assert len(t.edges) == 4

    def test_path_tree_depths(self):
        t = SpanningTree(0, {1: 0, 2: 1, 3: 2})
        assert [t.depth_of(v) for v in range(4)] == [0, 1, 2, 3]
        assert t.depth == 3
        assert t.path_to_root(3) == [3, 2, 1, 0]

    def test_root_with_parent_rejected(self):
        with pytest.raises(ConstructionError):
            SpanningTree(0, {0: 1, 1: 0})

    def test_cycle_rejected(self):
        with pytest.raises(ConstructionError):
            SpanningTree(0, {1: 2, 2: 1})

    def test_unknown_parent_rejected(self):
        with pytest.raises(ConstructionError):
            SpanningTree(0, {1: 5, 5: 0}) and SpanningTree(0, {1: 9})

    def test_reduction_direction(self):
        t = SpanningTree(0, {1: 0, 2: 1})
        assert t.reduction_direction(1, 0) == (1, 0)
        assert t.reduction_direction(0, 1) == (1, 0)
        assert t.reduction_direction(2, 1) == (2, 1)
        with pytest.raises(ValueError):
            t.reduction_direction(0, 2)

    def test_tree_id(self):
        t = SpanningTree(0, {1: 0}, tree_id=7)
        assert t.tree_id == 7


class TestFromPath:
    def test_midpoint_root_default(self):
        t = SpanningTree.from_path([10, 11, 12, 13, 14])
        assert t.root == 12
        assert t.depth == 2
        assert t.depth_of(10) == 2 and t.depth_of(14) == 2

    def test_even_length_midpoint(self):
        t = SpanningTree.from_path([0, 1, 2, 3])
        assert t.root == 1
        assert t.depth == 2

    def test_explicit_root_index(self):
        t = SpanningTree.from_path([5, 6, 7], root_index=0)
        assert t.root == 5
        assert t.depth == 2

    def test_singleton_path(self):
        t = SpanningTree.from_path([3])
        assert t.root == 3 and t.depth == 0 and t.num_vertices == 1

    def test_repeating_path_rejected(self):
        with pytest.raises(ConstructionError):
            SpanningTree.from_path([1, 2, 1])

    def test_empty_path_rejected(self):
        with pytest.raises(ConstructionError):
            SpanningTree.from_path([])

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=49))
    @settings(max_examples=40)
    def test_depth_formula(self, n, ridx):
        if ridx >= n:
            return
        t = SpanningTree.from_path(list(range(n)), root_index=ridx)
        assert t.depth == max(ridx, n - 1 - ridx)
        assert len(t.edges) == n - 1


class TestValidation:
    def test_validate_on_polarfly(self):
        pf = polarfly_graph(3)
        t = bfs_spanning_tree(pf.graph)
        t.validate(pf.graph)  # must not raise
        assert t.is_spanning(pf.graph)
        assert t.uses_only_graph_edges(pf.graph)

    def test_non_spanning_detected(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        t = SpanningTree(0, {1: 0})
        assert not t.is_spanning(g)
        with pytest.raises(ConstructionError):
            t.validate(g)

    def test_non_physical_edge_detected(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        t = SpanningTree(0, {1: 0, 2: 0})  # (0,2) is not a link
        with pytest.raises(ConstructionError):
            t.validate(g)

    def test_validate_memo_is_per_graph_identity(self):
        # a clean validation is memoized against that Graph object only:
        # the same tree revalidated against a *different* graph (where one
        # of its edges is not a physical link) must still raise
        g_ok = Graph.from_edges(3, [(0, 1), (0, 2)])
        g_bad = Graph.from_edges(3, [(0, 1), (1, 2)])
        t = SpanningTree(0, {1: 0, 2: 0})
        t.validate(g_ok)
        t.validate(g_ok)  # memoized re-validation stays clean
        with pytest.raises(ConstructionError):
            t.validate(g_bad)

    def test_failed_validation_is_not_memoized(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        t = SpanningTree(0, {1: 0, 2: 0})
        for _ in range(2):  # still raises on every retry
            with pytest.raises(ConstructionError):
                t.validate(g)

    @staticmethod
    def _pickled_pair():
        """Two equal trees, each validated against its own copy of the
        q = 7 PolarFly graph, the copies built in opposite edge orders."""
        edges = sorted(polarfly_graph(7).graph.edges)
        g1 = Graph.from_edges(57, edges)
        g2 = Graph.from_edges(57, edges[::-1])
        t1 = bfs_spanning_tree(g1)
        t2 = SpanningTree(t1.root, dict(t1.parent), t1.tree_id)
        t1.validate(g1)
        t2.validate(g2)
        return t1, t2, g1

    def test_pickle_leaves_out_the_validated_graph(self):
        t1, t2, g = self._pickled_pair()
        assert pickle.dumps(t1) == pickle.dumps(t2)
        assert b"repro.topology.graph" not in pickle.dumps(t1)

    def test_unpickled_tree_validates_afresh(self):
        t1, _, g = self._pickled_pair()
        t = pickle.loads(pickle.dumps(t1))
        assert t.root == t1.root and t.parent == t1.parent
        t.validate(g)
        dropped = sorted(t.edges)[0]
        lacking = Graph.from_edges(g.n, [e for e in g.edges if e != dropped])
        with pytest.raises(ConstructionError, match="is not a physical link"):
            t.validate(lacking)

    def test_cycle_detected_at_construction(self):
        with pytest.raises(ConstructionError):
            SpanningTree(0, {1: 2, 2: 1, 3: 0})


class TestCongestion:
    def test_disjoint_trees(self):
        t1 = SpanningTree(0, {1: 0, 2: 0})
        t2 = SpanningTree(1, {0: 1, 2: 1})
        # t1 edges {01, 02}; t2 edges {01, 12} -> edge 01 congested
        cong = edge_congestion([t1, t2])
        assert cong[(0, 1)] == 2
        assert cong[(0, 2)] == 1
        assert max_congestion([t1, t2]) == 2
        assert not are_edge_disjoint([t1, t2])

    def test_edge_disjoint(self):
        # K4 has 6 edges; two disjoint spanning trees: {01,12,23} and {02,03,13}
        a = SpanningTree(0, {1: 0, 2: 1, 3: 2})
        b = SpanningTree(0, {2: 0, 3: 0, 1: 3})
        assert a.edges == {(0, 1), (1, 2), (2, 3)}
        assert b.edges == {(0, 2), (0, 3), (1, 3)}
        assert are_edge_disjoint([a, b])
        assert max_congestion([a, b]) == 1

    def test_empty(self):
        assert max_congestion([]) == 0
        assert are_edge_disjoint([])
        assert total_tree_edges([]) == 0

    def test_total_tree_edges(self):
        t1 = star_tree(4)
        assert total_tree_edges([t1, t1]) == 6


class TestBfsBaseline:
    @pytest.mark.parametrize("q", [3, 4, 5, 7])
    def test_spanning_and_shallow(self, q):
        pf = polarfly_graph(q)
        t = bfs_spanning_tree(pf.graph)
        t.validate(pf.graph)
        # diameter-2 topology => BFS depth <= 2
        assert t.depth <= 2

    def test_depths_match_bfs_layers(self):
        pf = polarfly_graph(5)
        t = bfs_spanning_tree(pf.graph, root=3)
        layers = pf.graph.bfs_layers(3)
        for v in range(pf.n):
            assert t.depth_of(v) == layers[v]

    def test_single_tree_alias(self):
        pf = polarfly_graph(3)
        t = single_tree(pf.graph)
        assert t.tree_id == 0
        assert t.root == 0

    def test_disconnected_rejected(self):
        g = Graph(4)
        g.add_edge(0, 1)
        with pytest.raises(ValueError):
            bfs_spanning_tree(g)

    def test_deterministic_parent_choice(self):
        pf = polarfly_graph(3)
        t1 = bfs_spanning_tree(pf.graph, root=2)
        t2 = bfs_spanning_tree(pf.graph, root=2)
        assert t1.parent == t2.parent
