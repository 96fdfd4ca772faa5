"""Tests for the generic greedy multi-tree embedder and random-tree strawman."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import aggregate_bandwidth, build_plan
from repro.core.faults import remove_links
from repro.topology import (
    hypercube_graph,
    hyperx_graph,
    polarfly_graph,
    torus_graph,
)
from repro.trees import (
    greedy_tree,
    greedy_trees,
    low_depth_trees,
    max_congestion,
    random_spanning_trees,
)
from repro.topology.graph import Graph
from repro.trees import greedy as greedy_mod
from repro.trees.greedy import _greedy_tree_reference


class TestGreedyTree:
    def test_depth_bound_respected(self):
        g = polarfly_graph(5).graph
        t = greedy_tree(g, root=0)
        t.validate(g)
        assert t.depth <= g.eccentricity(0) + 1 == 3

    def test_exact_depth_bound(self):
        g = polarfly_graph(5).graph
        t = greedy_tree(g, root=0, max_depth=2)
        assert t.depth == 2

    def test_usage_updated(self):
        g = polarfly_graph(3).graph
        usage = {}
        t = greedy_tree(g, 0, usage)
        assert sum(usage.values()) == len(t.edges)
        assert all(v == 1 for v in usage.values())

    def test_second_tree_avoids_used_edges_when_possible(self):
        # after the star at 0 takes all of 0's links, a second tree must
        # reuse exactly one of them (any spanning tree covers vertex 0);
        # greedy reuses no more than that one
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        usage = {}
        t1 = greedy_tree(g, 0, usage, max_depth=2)
        t2 = greedy_tree(g, 1, usage, max_depth=2)
        shared = t1.edges & t2.edges
        assert len(shared) == 1
        assert max_congestion([t1, t2]) == 2

    def test_theorem_61_forces_depth2_parents(self):
        # on ER_q every depth-2 tree is fully determined by its root: the
        # 2-hop midpoint is unique, so usage-aware choice needs depth >= 3
        g = polarfly_graph(5).graph
        usage = {}
        a = greedy_tree(g, 0, usage, max_depth=2)
        b = greedy_tree(g, 0, {}, max_depth=2)  # fresh usage, same result
        assert a.parent == b.parent

    def test_unreachable_within_depth(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError):
            greedy_tree(g, 0, max_depth=2)

    def test_disconnected_rejected(self):
        g = Graph(4)
        g.add_edge(0, 1)
        with pytest.raises(ValueError):
            greedy_tree(g, 0)


@lru_cache(maxsize=None)
def _plan(q, scheme):
    return build_plan(q, scheme)


def _grow_both(g, root, usage, max_depth, tree_id):
    """Grow one tree with the heap and with the reference scan, each on
    its own copy of ``usage``; returns both trees and both usages."""
    u_heap, u_ref = dict(usage), dict(usage)
    heap = greedy_tree(g, root, u_heap, max_depth=max_depth, tree_id=tree_id)
    ref = _greedy_tree_reference(g, root, u_ref, max_depth=max_depth, tree_id=tree_id)
    return heap, ref, u_heap, u_ref


class TestHeapMatchesReference:
    """The lazy-deletion heap against the covered-set rescan it replaced:
    same attach sequence, so the same ``parent`` insertion order (which
    fixes the engines' flow order) and the same ``usage`` dict."""

    @settings(max_examples=80, deadline=None)
    @given(
        q=st.sampled_from([3, 5, 7]),
        scheme=st.sampled_from(["low-depth", "edge-disjoint"]),
        data=st.data(),
    )
    def test_residual_graphs(self, q, scheme, data):
        plan = _plan(q, scheme)
        links = sorted(plan.topology.edges)
        picks = data.draw(
            st.lists(st.integers(0, len(links) - 1), max_size=5, unique=True),
            label="failed",
        )
        failed = [links[i] for i in picks]
        g = remove_links(plan.topology, failed)
        if not g.is_connected():
            failed, g = [], plan.topology
        # pre-charge like a re-plan (surviving trees' links), plus noise
        usage = {}
        bad = set(failed)
        for t in plan.trees:
            if not t.edges & bad:
                for e in t.edges:
                    usage[e] = usage.get(e, 0) + 1
        survivors = sorted(g.edges)
        extra = data.draw(
            st.lists(
                st.tuples(st.integers(0, len(survivors) - 1), st.integers(0, 3)),
                max_size=12,
            ),
            label="extra usage",
        )
        for i, k in extra:
            e = survivors[i]
            usage[e] = usage.get(e, 0) + k
        root = data.draw(st.integers(0, g.n - 1), label="root")
        ecc = g.eccentricity(root)
        max_depth = data.draw(
            st.sampled_from([None, ecc, ecc + 1, ecc + 2]), label="max_depth"
        )
        heap, ref, u_heap, u_ref = _grow_both(g, root, usage, max_depth, 4)
        assert (heap.root, heap.tree_id) == (ref.root, ref.tree_id) == (root, 4)
        assert list(heap.parent.items()) == list(ref.parent.items())
        assert list(u_heap.items()) == list(u_ref.items())
        heap.validate(g)

    def test_sequential_trees_share_usage(self):
        # greedy_trees threads one usage dict through k trees: each tree
        # must see exactly the charges the reference would have left
        g = polarfly_graph(7).graph
        u_heap, u_ref = {}, {}
        for i, root in enumerate(greedy_mod._spread_roots(g, 7)):
            a = greedy_tree(g, root, u_heap, tree_id=i)
            b = _greedy_tree_reference(g, root, u_ref, tree_id=i)
            assert list(a.parent.items()) == list(b.parent.items())
        assert list(u_heap.items()) == list(u_ref.items())

    def test_stranded_vertex_falls_back_identically(self, monkeypatch):
        # root 2 with one level of slack: the least-used links reach 1
        # last, at depth 3 through 4 and 3, where it may take no child, so
        # 0 is stranded; both implementations must roll the partial tree
        # back (leaving (1, 3) charged 0) and build the layered tree
        g = Graph.from_edges(
            6, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5)]
        )
        layered = greedy_mod._bfs_layered_tree
        outs = []
        for grow in (greedy_tree, _greedy_tree_reference):
            calls = []

            def spy(*args, **kwargs):
                calls.append(args[1])
                return layered(*args, **kwargs)

            monkeypatch.setattr(greedy_mod, "_bfs_layered_tree", spy)
            usage = {(0, 1): 1, (1, 2): 3, (3, 4): 0, (2, 3): 1}
            t = grow(g, 2, usage, max_depth=3)
            assert calls == [2], grow.__name__  # took the fallback, once
            outs.append((list(t.parent.items()), list(usage.items())))
        assert outs[0] == outs[1]
        usage = dict(outs[0][1])
        assert usage[(1, 3)] == 0  # charged by the stranded growth, rolled back
        assert usage == {(0, 1): 2, (1, 2): 4, (3, 4): 0, (2, 3): 2,
                         (2, 4): 1, (4, 5): 1, (1, 3): 0}


class TestGreedyTrees:
    @pytest.mark.parametrize("builder,arg,k", [
        (hypercube_graph, 4, 4),
        (torus_graph, [4, 4], 4),
        (hyperx_graph, [3, 3], 4),
    ])
    def test_on_families(self, builder, arg, k):
        g = builder(arg)
        trees = greedy_trees(g, k)
        assert len(trees) == k
        for t in trees:
            t.validate(g)
        assert max_congestion(trees) <= k

    def test_better_than_random_on_polarfly(self):
        g = polarfly_graph(7).graph
        k = 7
        greedy = greedy_trees(g, k)
        rand = random_spanning_trees(g, k, seed=0)
        assert max_congestion(greedy) < max_congestion(rand)
        assert aggregate_bandwidth(g, greedy) > aggregate_bandwidth(g, rand)

    def test_specialized_beats_greedy(self):
        # the whole point of the paper: algebraic structure buys bandwidth
        q = 7
        g = polarfly_graph(q).graph
        greedy_bw = aggregate_bandwidth(g, greedy_trees(g, q))
        alg3_bw = aggregate_bandwidth(g, low_depth_trees(q))
        assert alg3_bw > greedy_bw

    def test_explicit_roots(self):
        g = hypercube_graph(3)
        trees = greedy_trees(g, 2, roots=[0, 7])
        assert [t.root for t in trees] == [0, 7]

    def test_validation(self):
        g = hypercube_graph(3)
        with pytest.raises(ValueError):
            greedy_trees(g, 0)
        with pytest.raises(ValueError):
            greedy_trees(g, 2, roots=[0])

    def test_even_q_polarfly_fallback(self):
        # greedy provides multi-tree embeddings where Algorithm 3 is
        # undefined (even q)
        g = polarfly_graph(4).graph
        trees = greedy_trees(g, 5)
        for t in trees:
            t.validate(g)
        assert aggregate_bandwidth(g, trees) >= 1


class TestRandomTrees:
    def test_valid_spanning_trees(self):
        g = polarfly_graph(5).graph
        trees = random_spanning_trees(g, 5, seed=3)
        for t in trees:
            t.validate(g)
        assert [t.tree_id for t in trees] == list(range(5))

    def test_deterministic_given_seed(self):
        g = polarfly_graph(3).graph
        a = random_spanning_trees(g, 3, seed=1)
        b = random_spanning_trees(g, 3, seed=1)
        assert [t.parent for t in a] == [t.parent for t in b]

    def test_seeds_differ(self):
        g = polarfly_graph(5).graph
        a = random_spanning_trees(g, 4, seed=1)
        b = random_spanning_trees(g, 4, seed=2)
        assert any(x.parent != y.parent for x, y in zip(a, b))

    def test_congestion_generally_high(self):
        g = polarfly_graph(7).graph
        trees = random_spanning_trees(g, 7, seed=0)
        assert max_congestion(trees) > 2  # the Section 1.2 hazard

    def test_validation(self):
        g = polarfly_graph(3).graph
        with pytest.raises(ValueError):
            random_spanning_trees(g, 0)
        disconnected = Graph(4)
        disconnected.add_edge(0, 1)
        with pytest.raises(ValueError):
            random_spanning_trees(disconnected, 1)
