"""Tests for the base Graph structure and diameter-2 routing."""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    Graph,
    canonical_edge,
    minimal_route,
    polarfly_graph,
    route_edges,
    traffic_per_link,
)


class TestGraphBasics:
    def test_empty(self):
        g = Graph(3)
        assert g.num_edges == 0
        assert g.degree(0) == 0
        assert not g.has_edge(0, 1)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Graph(0)

    def test_add_edge_symmetric(self):
        g = Graph(4)
        g.add_edge(2, 1)
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert g.edges == frozenset({(1, 2)})
        assert g.neighbors(1) == {2}

    def test_self_loop_tracked_separately(self):
        g = Graph(4)
        g.add_edge(3, 3)
        assert g.num_edges == 0
        assert g.self_loops == {3}
        assert g.has_edge(3, 3)
        g.add_self_loop(1)
        assert g.self_loops == {1, 3}

    def test_out_of_range(self):
        g = Graph(4)
        with pytest.raises(ValueError):
            g.add_edge(0, 4)
        with pytest.raises(ValueError):
            g.neighbors(-1)

    def test_duplicate_edges_ignored(self):
        g = Graph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        assert g.num_edges == 1

    def test_from_edges(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_edges == 3
        assert g.degree_sequence() == [1, 1, 2, 2]

    def test_canonical_edge(self):
        assert canonical_edge(5, 2) == (2, 5)
        assert canonical_edge(2, 5) == (2, 5)
        assert canonical_edge(3, 3) == (3, 3)


class TestBoundary:
    """``n`` and every vertex argument are exact ints (NumPy ints pass);
    anything else fails with an error that names the argument."""

    @pytest.mark.parametrize("call,exc,match", [
        (lambda g: Graph(3.5), TypeError, "n must be an integer"),
        (lambda g: Graph("3"), TypeError, "n must be an integer"),
        (lambda g: g.add_edge(0, 1.0), TypeError, "v must be an integer"),
        (lambda g: g.neighbors(1.0), TypeError, "v must be an integer"),
        (lambda g: g.has_edge("a", 1), TypeError, "u must be an integer"),
        (lambda g: g.bfs_layers("a"), TypeError, "root must be an integer"),
        (lambda g: g.add_edges_bulk([0.5], [1.7]), TypeError,
         "us must hold integers"),
        (lambda g: g.add_edges_bulk([0], ["1"]), TypeError,
         "vs must hold integers"),
        (lambda g: g.add_edges_bulk([0, 1], [1]), ValueError,
         "us and vs must be aligned; sizes 2, 1"),
        (lambda g: g.add_edges_bulk([0], [4]), ValueError,
         r"vs has a vertex out of range \[0, 4\)"),
        (lambda g: Graph.from_edges(4, [(0, 1, 2)]), ValueError,
         "edges must be"),
    ], ids=["float-n", "str-n", "float-vertex", "float-neighbors",
            "str-has-edge", "str-root", "float-bulk", "str-bulk",
            "misaligned-bulk", "range-bulk", "triple-edge"])
    def test_named_errors(self, call, exc, match):
        g = Graph(4)
        with pytest.raises(exc, match=match):
            call(g)
        assert g.num_edges == 0 and not g.self_loops

    def test_numpy_ints_pass(self):
        g = Graph(np.int64(4))
        g.add_edge(np.int32(0), np.int64(1))
        g.add_edges_bulk(np.array([1], np.uint8), np.array([2], np.int16))
        assert type(g.n) is int
        assert g.edges == {(0, 1), (1, 2)}
        assert g.bfs_layers(np.int64(0)) == {0: 0, 1: 1, 2: 2}


class TestCanonicalState:
    """A graph is its edge set: every way of building the same edges and
    self-loops gives the same bytes, arrays and iteration order."""

    @staticmethod
    def _builds(n, edges, extra, seed):
        rng = random.Random(seed)
        out = []
        for _ in range(2):  # add_edge, in two shuffled orders
            order = list(edges)
            rng.shuffle(order)
            g = Graph(n)
            for u, v in order:
                g.add_edge(u, v)
            out.append(g)
        g = Graph(n)  # add_edges_bulk, in random chunks
        rest = list(edges)
        rng.shuffle(rest)
        while rest:
            k = rng.randint(1, len(rest))
            chunk, rest = rest[:k], rest[k:]
            g.add_edges_bulk([u for u, _ in chunk], [v for _, v in chunk])
        out.append(g)
        out.append(Graph.from_edges(n, edges))
        out.append(Graph.from_edges(n, edges + extra).without_edges(extra))
        return out

    @given(st.integers(min_value=2, max_value=40), st.data())
    @settings(max_examples=40, deadline=None)
    def test_five_builds_are_one_graph(self, n, data):
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = data.draw(st.lists(pair, min_size=1, max_size=120))
        have = {canonical_edge(u, v) for u, v in edges}
        extra = [e for e in data.draw(st.lists(pair, max_size=40))
                 if e[0] != e[1] and canonical_edge(*e) not in have]
        seed = data.draw(st.integers(0, 2**32 - 1))
        ref, *others = self._builds(n, edges, extra, seed)
        for g in others:
            assert pickle.dumps(g) == pickle.dumps(ref)
            assert np.array_equal(g.edge_keys(), ref.edge_keys())
            for a, b in zip(g.adjacency_arrays(), ref.adjacency_arrays()):
                assert np.array_equal(a, b)
            for v in range(n):
                assert list(g.neighbors(v)) == list(ref.neighbors(v))
        # the state is n, the sorted keys and the sorted self-loops only
        n_ref, keys, loops = ref.__getstate__()
        assert n_ref == n
        assert keys.tolist() == sorted(u * n + v for u, v in have if u != v)
        assert loops.tolist() == sorted({u for u, v in edges if u == v})

    def test_views_follow_mutation(self):
        g = Graph.from_edges(4, [(0, 1)])
        assert g.edges is g.edges and g.degree(2) == 0
        g.add_edge(2, 1)
        assert g.edges == {(0, 1), (1, 2)} and g.degree(2) == 1
        assert g.neighbors(1) == {0, 2}
        assert not g.edge_keys().flags.writeable

    def test_pickle_roundtrip_and_foreign_state(self):
        g = Graph.from_edges(5, [(0, 1), (3, 2), (4, 4)])
        h = pickle.loads(pickle.dumps(g))
        assert pickle.dumps(h) == pickle.dumps(g)
        assert h.edges == g.edges and h.self_loops == {4}
        # the slot dict an adjacency-set Graph pickled is not a state
        old = (None, {"n": 5, "_adj": [set()] * 5, "_edges": set(),
                      "self_loops": set(), "_csr": None, "_ekeys": None})
        for state in (old, (5, [1], []), ("5", g.edge_keys(), g.edge_keys())):
            with pytest.raises(TypeError, match="not a Graph state"):
                Graph.__new__(Graph).__setstate__(state)


class TestTraversal:
    def path_graph(self, n):
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    def test_bfs_layers(self):
        g = self.path_graph(5)
        assert g.bfs_layers(0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_connectivity(self):
        g = self.path_graph(4)
        assert g.is_connected()
        g2 = Graph(4)
        g2.add_edge(0, 1)
        assert not g2.is_connected()

    def test_eccentricity_and_diameter(self):
        g = self.path_graph(5)
        assert g.eccentricity(0) == 4
        assert g.eccentricity(2) == 2
        assert g.diameter() == 4

    def test_eccentricity_disconnected(self):
        g = Graph(3)
        g.add_edge(0, 1)
        with pytest.raises(ValueError):
            g.eccentricity(0)

    def test_paths_of_length_two(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
        assert g.paths_of_length_two(0, 2) == [1, 3]

    def test_to_networkx(self):
        import networkx as nx

        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        g.add_self_loop(0)
        nxg = g.to_networkx()
        assert nxg.number_of_edges() == 2
        nxg_loops = g.to_networkx(include_self_loops=True)
        assert nxg_loops.number_of_edges() == 3
        assert nx.is_connected(nxg)

    @given(st.integers(min_value=2, max_value=30), st.data())
    @settings(max_examples=30)
    def test_bfs_distances_are_metric(self, n, data):
        edges = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=60,
            )
        )
        g = Graph.from_edges(n, edges)
        g.add_edge(0, n - 1)  # keep 0's component nontrivial
        dist = g.bfs_layers(0)
        for u in dist:
            for v in g.neighbors(u):
                assert v in dist
                assert abs(dist[u] - dist[v]) <= 1


class TestRouting:
    def test_route_on_polarfly(self):
        pf = polarfly_graph(5)
        g = pf.graph
        for u in range(0, pf.n, 7):
            for v in range(0, pf.n, 5):
                path = minimal_route(g, u, v)
                assert path[0] == u and path[-1] == v
                assert len(path) <= 3
                for a, b in zip(path, path[1:]):
                    assert g.has_edge(a, b)

    def test_route_self(self):
        pf = polarfly_graph(3)
        assert minimal_route(pf.graph, 4, 4) == [4]

    def test_route_unreachable(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(ValueError):
            minimal_route(g, 0, 3)

    def test_route_edges(self):
        pf = polarfly_graph(3)
        g = pf.graph
        u = 0
        v = next(x for x in range(pf.n) if x != u and not g.has_edge(u, x))
        es = route_edges(g, u, v)
        assert len(es) == 2
        assert all(a < b for a, b in es)

    def test_traffic_per_link(self):
        pf = polarfly_graph(3)
        g = pf.graph
        u, v = next(iter(g.edges))
        load = traffic_per_link(g, [(u, v, 2.0), (v, u, 3.0)])
        assert load == {canonical_edge(u, v): 5.0}

    def test_traffic_conservation(self):
        # total link traffic == sum over flows of hops * volume
        pf = polarfly_graph(5)
        g = pf.graph
        flows = [(0, 9, 1.0), (3, 17, 2.0), (8, 8, 4.0)]
        load = traffic_per_link(g, flows)
        expected = sum(
            (len(minimal_route(g, s, d)) - 1) * vol for s, d, vol in flows
        )
        assert sum(load.values()) == pytest.approx(expected)
