"""Tests for the projective-geometry ER_q construction (Section 6.1, Table 1)."""

import pickle
import re

import numpy as np
import pytest

from repro.topology import V1, V2, W, polarfly_graph, polarfly_layout, singer_graph
from repro.topology.polarfly import PolarFly, _all_pairs_graph
from repro.trees import low_depth_trees

ODD_QS = [3, 5, 7, 9, 11, 13]
ALL_QS = [2, 3, 4, 5, 7, 8, 9, 11, 13]


@pytest.fixture(params=ALL_QS, ids=lambda q: f"q{q}")
def pf(request):
    return polarfly_graph(request.param)


class TestConstruction:
    def test_invalid_q(self):
        for q in (1, 6, 10, 12):
            with pytest.raises(ValueError):
                PolarFly(q)

    def test_vertex_count(self, pf):
        assert pf.n == pf.q**2 + pf.q + 1
        assert pf.graph.n == pf.n

    def test_edge_count(self, pf):
        # Corollary 7.1's proof: |E| = q (q+1)^2 / 2 (self-loops excluded).
        assert pf.graph.num_edges == pf.q * (pf.q + 1) ** 2 // 2

    def test_radix(self, pf):
        assert pf.radix == pf.q + 1

    def test_connected_diameter_two(self, pf):
        assert pf.graph.is_connected()
        assert pf.graph.diameter() == 2

    def test_unique_two_hop_path(self, pf):
        # Theorem 6.1: at most one 2-hop path between distinct vertices.
        g = pf.graph
        rng = np.random.default_rng(pf.q)
        pairs = rng.integers(0, pf.n, size=(200, 2))
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                continue
            mids = g.paths_of_length_two(u, v)
            if g.has_edge(u, v):
                # adjacent vertices may have at most one common neighbor too
                assert len(mids) <= 1
            else:
                assert len(mids) == 1

    def test_memoized(self):
        assert polarfly_graph(3) is polarfly_graph(3)


#: calls below ``build_plan`` with an unusual ``q`` or vertex, and what
#: each must do: ``None`` for "returns an object with int ``q``", else
#: the named error (type, message)
_BOUNDARY_CALLS = {
    "polarfly_graph-np": (lambda: polarfly_graph(np.int64(3)), None),
    "singer_graph-np": (lambda: singer_graph(np.int64(3)), None),
    "polarfly_layout-np": (lambda: polarfly_layout(np.int64(5)), None),
    "low_depth_trees-np": (lambda: low_depth_trees(np.int64(3)), None),
    "polarfly_graph-str": (
        lambda: polarfly_graph("3"), (TypeError, "q must be an integer; got '3'")
    ),
    "singer_graph-str": (
        lambda: singer_graph("3"), (TypeError, "q must be an integer; got '3'")
    ),
    "low_depth_trees-str": (
        lambda: low_depth_trees("3"), (TypeError, "q must be an integer; got '3'")
    ),
    "vertex_type-out-of-range": (
        lambda: polarfly_graph(3).vertex_type(999),
        (ValueError, "999 is not a vertex of ER_3 (0..12)"),
    ),
}


@pytest.mark.parametrize("name", list(_BOUNDARY_CALLS))
def test_constructors_take_numpy_ints_and_name_bad_input(name):
    call, error = _BOUNDARY_CALLS[name]
    if error is not None:
        with pytest.raises(error[0], match=re.escape(error[1])):
            call()
        return
    out = call()
    if isinstance(out, list):  # spanning trees: Algorithm 3 gives q of them
        assert len(out) == 3
    else:
        assert type(out.q) is int and out.q in (3, 5)


class TestOrthogonality:
    def test_edges_are_orthogonal_pairs(self, pf):
        for u, v in list(pf.graph.edges)[:300]:
            assert pf.dot(u, v) == 0

    def test_non_edges_not_orthogonal(self, pf):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 100:
            u, v = (int(x) for x in rng.integers(0, pf.n, 2))
            if u == v or pf.graph.has_edge(u, v):
                continue
            assert pf.dot(u, v) != 0
            checked += 1

    def test_quadrics_are_self_orthogonal(self, pf):
        for v in range(pf.n):
            assert (pf.dot(v, v) == 0) == pf.is_quadric(v)


#: every prime power q = 3..32
PRIME_POWERS_TO_32 = [3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


class TestPolarLineBuild:
    """The polar-line build against the all-pairs orthogonality oracle."""

    @pytest.mark.parametrize("q", PRIME_POWERS_TO_32)
    def test_pickles_like_the_all_pairs_build(self, q):
        pf = PolarFly(q)
        ref = _all_pairs_graph(pf.field, pf.vectors)
        assert pickle.dumps(pf.graph) == pickle.dumps(ref)
        assert pf.graph.self_loops == ref.self_loops


class TestVertexCoding:
    def test_vectors_left_normalized(self, pf):
        for v in range(pf.n):
            vec = pf.vertex_vector(v)
            lead = next(c for c in vec if c != 0)
            assert lead == 1

    def test_vectors_distinct(self, pf):
        assert len({pf.vertex_vector(v) for v in range(pf.n)}) == pf.n

    def test_index_roundtrip(self, pf):
        for v in range(pf.n):
            assert pf.vertex_index(pf.vertex_vector(v)) == v

    def test_index_of_scaled_vector(self, pf):
        # any nonzero scalar multiple names the same projective point
        f = pf.field
        rng = np.random.default_rng(2)
        for v in rng.integers(0, pf.n, 50):
            v = int(v)
            vec = pf.vertex_vector(v)
            s = int(rng.integers(1, pf.q))
            scaled = tuple(f.mul(s, c) for c in vec)
            assert pf.vertex_index(scaled) == v

    def test_zero_vector_rejected(self, pf):
        with pytest.raises(ValueError):
            pf.vertex_index((0, 0, 0))


class TestTable1:
    """Exact reproduction of Table 1 (odd q; even-q W count also holds)."""

    @pytest.mark.parametrize("q", ODD_QS)
    def test_global_counts(self, q):
        pf = polarfly_graph(q)
        counts = pf.counts()
        assert counts[W] == q + 1
        assert counts[V1] == q * (q + 1) // 2
        assert counts[V2] == q * (q - 1) // 2

    @pytest.mark.parametrize("q", ALL_QS)
    def test_quadric_count_all_q(self, q):
        assert polarfly_graph(q).counts()[W] == q + 1

    @pytest.mark.parametrize("q", ODD_QS)
    def test_neighborhood_of_quadric(self, q):
        pf = polarfly_graph(q)
        for w in pf.quadrics:
            nb = pf.neighborhood_counts(w)
            assert nb == {W: 0, V1: q, V2: 0}

    @pytest.mark.parametrize("q", ODD_QS)
    def test_neighborhood_of_v1(self, q):
        pf = polarfly_graph(q)
        for v in pf.v1_vertices:
            nb = pf.neighborhood_counts(v)
            assert nb == {W: 2, V1: (q - 1) // 2, V2: (q - 1) // 2}

    @pytest.mark.parametrize("q", ODD_QS)
    def test_neighborhood_of_v2(self, q):
        pf = polarfly_graph(q)
        for v in pf.v2_vertices:
            nb = pf.neighborhood_counts(v)
            assert nb == {W: 0, V1: (q + 1) // 2, V2: (q + 1) // 2}

    @pytest.mark.parametrize("q", ODD_QS)
    def test_degrees(self, q):
        # Quadrics have degree q (self-loop removed), others q + 1.
        pf = polarfly_graph(q)
        for v in range(pf.n):
            want = q if pf.is_quadric(v) else q + 1
            assert pf.graph.degree(v) == want

    def test_no_edges_between_quadrics(self, pf):
        # Property 1.2 (holds for odd q; verify on odd fixtures only).
        if pf.q % 2 == 0:
            pytest.skip("quadrics are collinear (mutually adjacent) cases differ for even q")
        for i, w in enumerate(pf.quadrics):
            for w2 in pf.quadrics[i + 1 :]:
                assert not pf.graph.has_edge(w, w2)
