"""Lightweight undirected graph used as the network representation.

Section 4.1 models the interconnect as an undirected graph ``G = (V, E)``
with ``N`` nodes and at most ``d`` (the network radix) bidirectional links
per node. This class is deliberately small — an edge set plus the couple
of queries the tree constructions need — with a :meth:`to_networkx` escape
hatch for anything heavier (isomorphism checks, matchings).

A graph's whole state is ``n``, its sorted unique edge keys ``lo * n +
hi`` (int64) and its sorted self-loops. The CSR arrays, the neighbour sets
(filled in ascending order) and the :attr:`edges` frozenset are views
derived on first use and cached until the next mutation, so equal edge
sets pickle and iterate alike however they were built.

Self-loops (the quadrics' self-orthogonality) are tracked separately:
PolarFly ignores them as physical links (Section 6.1) but the Singer
construction reasons about them (reflection points).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

import numpy as np

from repro.utils.errors import whole

Edge = Tuple[int, int]

__all__ = ["Graph", "canonical_edge"]


def canonical_edge(u: int, v: int) -> Edge:
    """Undirected edge key with endpoints sorted ascending."""
    return (u, v) if u <= v else (v, u)


_NONE = np.empty(0, dtype=np.int64)
_NONE.flags.writeable = False


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` as read-only state (every empty one is ``_NONE``: one layout)."""
    if not a.size:
        return _NONE
    a.flags.writeable = False
    return a


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted unique union: one sort and a mask (faster than ``np.union1d``)."""
    k = np.sort(np.concatenate([a, b]))
    return _frozen(k[np.concatenate(([True], k[1:] != k[:-1]))])


def _vertices(name: str, xs, n: int) -> np.ndarray:
    """``xs`` as a flat int64 vertex array, or a named error."""
    a = np.asarray(xs)
    if a.size == 0:
        return _NONE
    if a.dtype.kind not in "iu":
        raise TypeError(f"{name} must hold integers; got dtype {a.dtype}")
    a = a.astype(np.int64, copy=False).ravel()
    if a.min() < 0 or a.max() >= n:
        raise ValueError(f"{name} has a vertex out of range [0, {n})")
    return a


def _columns(edges: Iterable[Edge]):
    """The ``(us, vs)`` columns of an iterable of ``(u, v)`` pairs."""
    a = np.asarray(list(edges))
    if a.size and (a.ndim != 2 or a.shape[1] != 2):
        raise ValueError(f"edges must be (u, v) pairs; got shape {a.shape}")
    return (a[:, 0], a[:, 1]) if a.size else (a, a)


class Graph:
    """Undirected simple graph on vertices ``0..n-1`` with optional self-loop
    bookkeeping.

    Mutation is limited to :meth:`add_edge`, :meth:`add_self_loop` and
    :meth:`add_edges_bulk`; the tree constructions treat instances as
    immutable once built.
    """

    __slots__ = ("n", "_keys", "_loops", "_csr", "_adj", "_edges", "_loopset")

    def __init__(self, n: int):
        n = whole("n", n)
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        self.n = n
        self._keys = self._loops = _NONE
        self._drop_views()

    def _drop_views(self) -> None:
        self._csr = self._adj = self._edges = self._loopset = None

    def __getstate__(self):
        return (self.n, self._keys, self._loops)

    def __setstate__(self, state) -> None:
        if not (isinstance(state, tuple) and len(state) == 3
                and type(state[0]) is int
                and all(isinstance(a, np.ndarray) and a.dtype == np.int64
                        and a.ndim == 1 for a in state[1:])):
            raise TypeError("not a Graph state: expected (n, edge keys, self-loops)")
        self.n, keys, loops = state
        self._keys, self._loops = _frozen(keys), _frozen(loops)
        self._drop_views()

    # ---------------------------------------------------------------- build

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        g = cls(n)
        g.add_edges_bulk(*_columns(edges))
        return g

    def add_edge(self, u: int, v: int) -> None:
        self.add_edges_bulk([self._vertex(u, "u")], [self._vertex(v, "v")])

    def add_self_loop(self, v: int) -> None:
        v = self._vertex(v)
        self.add_edges_bulk([v], [v])

    def add_edges_bulk(self, us, vs) -> None:
        """Add the edges ``(us[i], vs[i])`` of two aligned integer vertex
        arrays in one sorted merge; pairs with ``us[i] == vs[i]`` are
        self-loops."""
        keys, loops = self._keys_of(us, vs)
        if keys.size:
            self._keys = _union(self._keys, keys)
        if loops.size:
            self._loops = _union(self._loops, loops)
        self._drop_views()

    def without_edges(self, edges: Iterable[Edge]) -> "Graph":
        """A new graph with ``edges`` removed (self-loops kept); edges that
        are not links of this graph are ignored."""
        keys, _ = self._keys_of(*_columns(edges))
        out = Graph(self.n)
        out._keys = _frozen(self._keys[~np.isin(self._keys, keys)])
        out._loops = self._loops
        return out

    def _keys_of(self, us, vs) -> Tuple[np.ndarray, np.ndarray]:
        """Canonical keys of the non-loop pairs, and the self-loop
        vertices, of two aligned vertex arrays."""
        us = _vertices("us", us, self.n)
        vs = _vertices("vs", vs, self.n)
        if us.shape != vs.shape:
            raise ValueError(f"us and vs must be aligned; sizes {us.size}, {vs.size}")
        loop = us == vs
        lo = np.minimum(us, vs)[~loop]
        hi = np.maximum(us, vs)[~loop]
        return lo * self.n + hi, us[loop]

    def _vertex(self, v: int, name: str = "v") -> int:
        v = whole(name, v)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")
        return v

    # -------------------------------------------------------------- queries

    @property
    def num_edges(self) -> int:
        """Number of undirected edges, self-loops excluded."""
        return int(self._keys.size)

    @property
    def edges(self) -> FrozenSet[Edge]:
        """The edge set as canonical ``(min, max)`` tuples (cached)."""
        if self._edges is None:
            lo, hi = np.divmod(self._keys, self.n)
            self._edges = frozenset(zip(lo.tolist(), hi.tolist()))
        return self._edges

    @property
    def self_loops(self) -> FrozenSet[int]:
        """Vertices carrying a self-loop (cached)."""
        if self._loopset is None:
            self._loopset = frozenset(self._loops.tolist())
        return self._loopset

    def edge_keys(self) -> np.ndarray:
        """The sorted int64 canonical edge keys ``lo * n + hi`` — the
        graph's state itself (read-only), and the membership index for
        vectorized "are these edges physical links?" checks."""
        return self._keys

    def adjacency_arrays(self):
        """Cached CSR adjacency view ``(indptr, indices)`` with each
        vertex's neighbors sorted ascending — ``indices[indptr[v]:
        indptr[v+1]]`` is the sorted neighbor row of ``v``. Treat the
        arrays as read-only.
        """
        if self._csr is None:
            n = self.n
            lo, hi = np.divmod(self._keys, n)
            both = np.sort(np.concatenate([self._keys, hi * n + lo]))
            src, indices = np.divmod(both, n)
            indptr = np.searchsorted(src, np.arange(n + 1))
            self._csr = (indptr, indices)
        return self._csr

    def _rows(self) -> List[Set[int]]:
        """Per-vertex neighbor sets, each filled in ascending order."""
        if self._adj is None:
            indptr, indices = self.adjacency_arrays()
            flat, ptr = indices.tolist(), indptr.tolist()
            self._adj = [set(flat[a:b]) for a, b in zip(ptr, ptr[1:])]
        return self._adj

    def neighbors(self, v: int) -> Set[int]:
        """Neighbor set of ``v`` (copy; self-loops excluded)."""
        return set(self._rows()[self._vertex(v)])

    def degree(self, v: int) -> int:
        v = self._vertex(v)
        indptr = self.adjacency_arrays()[0]
        return int(indptr[v + 1] - indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        u, v = whole("u", u), whole("v", v)
        if u == v:
            return u in self.self_loops
        return 0 <= u < self.n and v in self._rows()[u]

    def vertices(self) -> range:
        return range(self.n)

    def degree_sequence(self) -> List[int]:
        return sorted(np.diff(self.adjacency_arrays()[0]).tolist())

    # ------------------------------------------------------------ traversal

    def bfs_layers(self, root: int) -> Dict[int, int]:
        """Distance of every reachable vertex from ``root``."""
        root = self._vertex(root, "root")
        rows = self._rows()
        dist = {root: 0}
        frontier = [root]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in rows[u]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return dist

    def is_connected(self) -> bool:
        return len(self.bfs_layers(0)) == self.n

    def eccentricity(self, v: int) -> int:
        """Max distance from ``v``; raises if the graph is disconnected."""
        layers = self.bfs_layers(v)
        if len(layers) != self.n:
            raise ValueError("graph is disconnected")
        return max(layers.values())

    def diameter(self) -> int:
        """Exact diameter via all-sources BFS (fine at PolarFly test scales)."""
        return max(self.eccentricity(v) for v in range(self.n))

    def paths_of_length_two(self, u: int, v: int) -> List[int]:
        """Common neighbors of ``u`` and ``v`` — the 2-hop midpoints.

        Theorem 6.1: in ER_q there is at most one such midpoint for any
        pair of distinct vertices.
        """
        rows = self._rows()
        return sorted(rows[self._vertex(u, "u")] & rows[self._vertex(v)])

    # ---------------------------------------------------------------- misc

    def to_networkx(self, include_self_loops: bool = False):
        """Convert to :class:`networkx.Graph` (lazy import); edges are added
        in key order."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        lo, hi = np.divmod(self._keys, self.n)
        g.add_edges_from(zip(lo.tolist(), hi.tolist()))
        if include_self_loops:
            g.add_edges_from((v, v) for v in self._loops.tolist())
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.num_edges}, loops={len(self.self_loops)})"
