"""Lightweight undirected graph used as the network representation.

Section 4.1 models the interconnect as an undirected graph ``G = (V, E)``
with ``N`` nodes and at most ``d`` (the network radix) bidirectional links
per node. This class is deliberately small — adjacency sets plus the couple
of queries the tree constructions need — with a :meth:`to_networkx` escape
hatch for anything heavier (isomorphism checks, matchings).

Self-loops (the quadrics' self-orthogonality) are tracked separately:
PolarFly ignores them as physical links (Section 6.1) but the Singer
construction reasons about them (reflection points).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

Edge = Tuple[int, int]

__all__ = ["Graph", "canonical_edge"]


def canonical_edge(u: int, v: int) -> Edge:
    """Undirected edge key with endpoints sorted ascending."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """Undirected simple graph on vertices ``0..n-1`` with optional self-loop
    bookkeeping.

    Mutation is limited to :meth:`add_edge`/:meth:`add_self_loop`; the tree
    constructions treat instances as immutable once built.
    """

    __slots__ = ("n", "_adj", "_edges", "self_loops", "_csr", "_ekeys")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        self.n = n
        self._adj: List[Set[int]] = [set() for _ in range(n)]
        self._edges: Set[Edge] = set()
        self.self_loops: Set[int] = set()
        self._csr = None  # cached (indptr, indices) adjacency view
        self._ekeys = None  # cached sorted canonical edge keys (lo * n + hi)

    # ---------------------------------------------------------------- build

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def add_edge(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            self.self_loops.add(u)
            return
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._edges.add(canonical_edge(u, v))
        self._csr = self._ekeys = None

    def add_self_loop(self, v: int) -> None:
        self._check_vertex(v)
        self.self_loops.add(v)

    def add_edges_bulk(self, us, vs) -> None:
        """Vectorized bulk insertion of edges from two aligned index arrays.

        NumPy-grouped equivalent of calling :meth:`add_edge` pairwise —
        used by the topology builders (ER_q has N(q+1)/2 edges), where
        per-edge Python calls would dominate construction time.
        Self-loops are routed to ``self_loops`` as usual.
        """
        import numpy as np

        us = np.asarray(us, dtype=np.int64).ravel()
        vs = np.asarray(vs, dtype=np.int64).ravel()
        if us.shape != vs.shape:
            raise ValueError("us and vs must be aligned")
        if us.size == 0:
            return
        if us.min() < 0 or vs.min() < 0 or us.max() >= self.n or vs.max() >= self.n:
            raise ValueError("vertex index out of range")

        loop_mask = us == vs
        if loop_mask.any():
            self.self_loops.update(us[loop_mask].tolist())
            us, vs = us[~loop_mask], vs[~loop_mask]
        if us.size == 0:
            return
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        keys = np.unique(lo * np.int64(self.n) + hi)
        lo, hi = keys // self.n, keys % self.n
        self._edges.update(zip(lo.tolist(), hi.tolist()))
        # group neighbors by source for both directions
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        bounds = np.searchsorted(src, np.arange(self.n + 1))
        for v in np.unique(src).tolist():
            a, b = bounds[v], bounds[v + 1]
            self._adj[v].update(dst[a:b].tolist())
        self._csr = self._ekeys = None

    def without_edges(self, edges: Iterable[Edge]) -> "Graph":
        """A new graph with the canonical ``edges`` removed (self-loops
        kept); edges that are not links of this graph are ignored.

        The surviving links are inserted in :attr:`edges` order with bare
        set operations, the same insertion sequence as one
        :meth:`add_edge` per link without its checks, so the result
        pickles byte-identically to that build. (Copying the adjacency
        rows would be faster but keeps this graph's set layouts, and the
        layout is visible in the pickle of every tree validated against
        the result.)
        """
        bad = set(edges)
        out = Graph(self.n)
        adj, kept = out._adj, out._edges
        for e in self.edges:
            if e not in bad:
                u, v = e
                adj[u].add(v)
                adj[v].add(u)
                kept.add(e)
        for v in self.self_loops:
            out.self_loops.add(v)
        return out

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")

    # -------------------------------------------------------------- queries

    @property
    def num_edges(self) -> int:
        """Number of undirected edges, self-loops excluded."""
        return len(self._edges)

    @property
    def edges(self) -> FrozenSet[Edge]:
        """Frozen view of the edge set (canonical (min, max) tuples)."""
        return frozenset(self._edges)

    def neighbors(self, v: int) -> Set[int]:
        """Neighbor set of ``v`` (copy; self-loops excluded)."""
        self._check_vertex(v)
        return set(self._adj[v])

    def adjacency_arrays(self):
        """Cached CSR adjacency view ``(indptr, indices)`` with each
        vertex's neighbors sorted ascending — ``indices[indptr[v]:
        indptr[v+1]]`` is the sorted neighbor row of ``v``. The arrays are
        rebuilt lazily after mutation; treat them as read-only.
        """
        import numpy as np

        if self._csr is None:
            degs = np.fromiter(
                (len(a) for a in self._adj), dtype=np.int64, count=self.n
            )
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(degs, out=indptr[1:])
            indices = np.empty(int(indptr[-1]), dtype=np.int64)
            for v, adj in enumerate(self._adj):
                if adj:
                    indices[indptr[v]: indptr[v + 1]] = sorted(adj)
            self._csr = (indptr, indices)
        return self._csr

    def edge_keys(self):
        """Cached sorted int64 array of canonical edge keys ``lo * n + hi``
        — the membership index for vectorized "are these edges physical
        links?" checks (searchsorted against this array).
        """
        import numpy as np

        if self._ekeys is None:
            m = len(self._edges)
            keys = np.fromiter(
                (lo * self.n + hi for lo, hi in self._edges),
                dtype=np.int64,
                count=m,
            )
            keys.sort()
            self._ekeys = keys
        return self._ekeys

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return u in self.self_loops
        return canonical_edge(u, v) in self._edges

    def vertices(self) -> range:
        return range(self.n)

    def degree_sequence(self) -> List[int]:
        return sorted(len(a) for a in self._adj)

    # ------------------------------------------------------------ traversal

    def bfs_layers(self, root: int) -> Dict[int, int]:
        """Distance of every reachable vertex from ``root``."""
        self._check_vertex(root)
        dist = {root: 0}
        frontier = [root]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in self._adj[u]:
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
        return sorted(self._adj[u] & self._adj[v])

    # ---------------------------------------------------------------- misc

    def to_networkx(self, include_self_loops: bool = False):
        """Convert to :class:`networkx.Graph` (lazy import)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self._edges)
        if include_self_loops:
            g.add_edges_from((v, v) for v in self.self_loops)
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.num_edges}, loops={len(self.self_loops)})"
