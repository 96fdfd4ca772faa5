"""Spanning-tree representation for in-network Allreduce embeddings.

Section 4.3: Allreduce is computed by moving inputs up an embedded spanning
tree (reduction traffic, child -> parent), then broadcasting the result
down the same tree (broadcast traffic, parent -> child). The tree therefore
carries its *root* and parent pointers, and the per-vertex depth directly
gives the latency proxy the paper compares in Figure 5b.

Congestion (Section 5.1): with trees defined over the physical topology
there is no intra-tree congestion; inter-tree congestion on a link equals
the number of trees containing that link. :func:`edge_congestion` and
:func:`max_congestion` implement exactly that count.

Construction internals are vectorized: the parent map is decomposed once
into aligned numpy arrays (children, parents, per-vertex depth, canonical
edge endpoints) and every derived structure — children lists, the depth
map, the canonical edge set — is built from those arrays rather than by
per-node dict walks. The arrays are also the fast-path inputs Algorithm 1
consumes (:meth:`SpanningTree.edge_endpoints`), so the whole planner reads
tree structure without re-deriving it, and the cycle engines' shared
index layouts are keyed by them.

A tree is immutable once constructed: every derived array, the engines'
layout memo and a plan's bandwidth memo assume that ``root`` and
``parent`` never change, so build a new tree instead of editing one.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.topology.graph import Graph, canonical_edge
from repro.utils.errors import ConstructionError

Edge = Tuple[int, int]

__all__ = [
    "SpanningTree",
    "edge_congestion",
    "max_congestion",
    "are_edge_disjoint",
    "total_tree_edges",
]


class SpanningTree:
    """A rooted tree embedded in a network graph.

    Parameters
    ----------
    root:
        The tree root (the Allreduce reduction sink / broadcast source).
    parent:
        Mapping ``vertex -> parent vertex`` for every non-root vertex.
    tree_id:
        Optional identifier (e.g. cluster index for Algorithm 3 trees).

    Do not mutate ``root`` or ``parent`` after construction: the derived
    arrays are computed once, and engine layouts are shared by content.
    """

    __slots__ = (
        "root",
        "parent",
        "tree_id",
        "_depth_of",
        "_children",
        "_edges",
        "_verts",       # sorted vertex ids (int64)
        "_depths",      # depth aligned with _verts (int64)
        "_edge_lo",     # canonical edge endpoints, insertion order (int64)
        "_edge_hi",
        "_validated",   # the Graph this tree last validated cleanly against
    )

    def __init__(
        self, root: int, parent: Mapping[int, int], tree_id: Optional[int] = None
    ):
        if root in parent:
            raise ConstructionError(f"root {root} must not have a parent")
        self.root = root
        self.parent: Dict[int, int] = dict(parent)
        self.tree_id = tree_id
        self._validated = None
        self._depth_of: Optional[Dict[int, int]] = None
        self._children: Optional[Dict[int, List[int]]] = None

        k = len(self.parent)
        child = np.fromiter(self.parent.keys(), dtype=np.int64, count=k)
        par = np.fromiter(self.parent.values(), dtype=np.int64, count=k)
        n = k + 1
        verts = np.sort(np.append(child, np.int64(root)))

        # every parent must itself be a tree vertex (a parent key or the root)
        if int(verts[0]) == 0 and int(verts[-1]) == n - 1:
            # compact labels 0..n-1 (every spanning tree of a Graph): vertex
            # ids are their own sorted positions, no searchsorted needed
            ok = (par >= 0) & (par < n)
            pos, cidx, r = par, child, root
        else:
            pos = np.searchsorted(verts, par)
            ok = (pos < n) & (verts[np.minimum(pos, n - 1)] == par)
            cidx = None
            r = -1
        if not bool(ok.all()):
            bad = int(np.flatnonzero(~ok)[0])  # first offender, insertion order
            raise ConstructionError(
                f"parent {int(par[bad])} of {int(child[bad])} is not a tree vertex"
            )
        if cidx is None:
            cidx = np.searchsorted(verts, child)
            r = int(np.searchsorted(verts, root))

        # depth by pointer doubling: each round, every vertex's ancestor
        # pointer jumps twice as far (saturating at the root's self-loop), so
        # ceil(log2 n) numpy passes replace a depth-long BFS — path-shaped
        # trees (depth ~ n/2) would otherwise cost O(n) Python iterations.
        anc = np.empty(n, dtype=np.int64)
        anc[cidx] = pos
        anc[r] = r
        depths = np.ones(n, dtype=np.int64)
        depths[r] = 0
        span = 1
        while span < n:
            depths += depths[anc]
            anc = anc[anc]
            span <<= 1
        # a vertex whose chain never reaches the root sits on a cycle
        if bool((anc != r).any()):
            unreached = verts[anc != r].tolist()
            raise ConstructionError(
                f"parent map contains a cycle or unreachable vertices: {unreached[:5]}"
            )
        self._verts = verts
        self._depths = depths
        self._edge_lo = np.minimum(child, par)
        self._edge_hi = np.maximum(child, par)
        self._edges: Optional[FrozenSet[Edge]] = None  # built on first access

    def __getstate__(self) -> Dict[str, object]:
        """Pickle every slot but ``_validated``: that memo holds the whole
        graph the tree last validated against, which would make every tree
        pickle as large as its topology.  An unpickled tree validates
        afresh."""
        return {s: getattr(self, s) for s in self.__slots__ if s != "_validated"}

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._validated = None

    # ------------------------------------------------------------ structure

    @property
    def vertices(self) -> FrozenSet[int]:
        return frozenset(self._verts.tolist())

    @property
    def num_vertices(self) -> int:
        return int(self._verts.size)

    @property
    def edges(self) -> FrozenSet[Edge]:
        """Canonical undirected edge set (``num_vertices - 1`` edges)."""
        if self._edges is None:
            self._edges = frozenset(
                zip(self._edge_lo.tolist(), self._edge_hi.tolist())
            )
        return self._edges

    def edge_endpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """Canonical edge endpoints as aligned ``(lo, hi)`` int64 arrays, in
        the ``parent`` dict's insertion order.

        The zero-copy structural view Algorithm 1's scaled-integer core
        indexes; treat as read-only.  With the root they fix the tree's
        ``(child, parent)`` pairs and their order, so the engines' shared
        index layouts are keyed by them.
        """
        return self._edge_lo, self._edge_hi

    def _children_map(self) -> Dict[int, List[int]]:
        if self._children is None:
            children: Dict[int, List[int]] = {
                int(v): [] for v in self._verts.tolist()
            }
            if self.parent:
                for v, p in self.parent.items():
                    children[p].append(v)
                for c in children.values():
                    c.sort()
            self._children = children
        return self._children

    def children(self, v: int) -> Tuple[int, ...]:
        return tuple(self._children_map()[v])

    def _depth_map(self) -> Dict[int, int]:
        if self._depth_of is None:
            self._depth_of = dict(
                zip(self._verts.tolist(), self._depths.tolist())
            )
        return self._depth_of

    def depth_of(self, v: int) -> int:
        """Distance of ``v`` from the root (Delta_i(v) in the paper)."""
        return self._depth_map()[v]

    @property
    def depth(self) -> int:
        """Tree depth — the latency proxy of Figure 5b."""
        return int(self._depths.max())

    def leaves(self) -> Tuple[int, ...]:
        return tuple(sorted(v for v, c in self._children_map().items() if not c))

    def path_to_root(self, v: int) -> List[int]:
        out = [v]
        while out[-1] != self.root:
            out.append(self.parent[out[-1]])
        return out

    # ----------------------------------------------------------- directions

    def reduction_direction(self, u: int, v: int) -> Tuple[int, int]:
        """Orient the tree edge ``{u, v}`` in the reduction-flow direction
        (deeper -> shallower, i.e. child -> parent). Lemma 7.8 reasons about
        these directions on links shared by two trees."""
        if canonical_edge(u, v) not in self.edges:
            raise ValueError(f"({u}, {v}) is not an edge of this tree")
        depth = self._depth_map()
        return (u, v) if depth[u] > depth[v] else (v, u)

    # ----------------------------------------------------------- validation

    def is_spanning(self, g: Graph) -> bool:
        """True iff the tree covers every vertex of ``g``."""
        v = self._verts
        return (
            int(v.size) == g.n and int(v[0]) == 0 and int(v[-1]) == g.n - 1
        )

    def _edges_in_graph(self, g: Graph) -> np.ndarray:
        """Boolean mask: which tree edges are physical links of ``g``.

        Membership is a searchsorted against the graph's cached sorted
        edge-key array — no tuple sets on either side.
        """
        in_range = (self._edge_lo >= 0) & (self._edge_hi < g.n)
        keys = self._edge_lo * np.int64(g.n) + self._edge_hi
        gk = g.edge_keys()
        pos = np.minimum(np.searchsorted(gk, keys), max(gk.size - 1, 0))
        if gk.size == 0:
            return np.zeros_like(in_range) if keys.size else in_range
        return in_range & (gk[pos] == keys)

    def uses_only_graph_edges(self, g: Graph) -> bool:
        return bool(self._edges_in_graph(g).all())

    def validate(self, g: Graph) -> None:
        """Raise ``ConstructionError`` unless this is a spanning tree of ``g``.

        Acyclicity/connectivity of the parent map is already enforced by the
        constructor; this adds the graph-embedding checks of Section 4.4
        (trees are defined over the physical topology itself).

        A clean validation is memoized per graph: re-validating against the
        same ``Graph`` object is O(1), so constructions that validate their
        trees at build time cost nothing when ``build_plan``/Algorithm 1
        validate the same trees again.
        """
        if self._validated is g:
            return
        if not self.is_spanning(g):
            raise ConstructionError(
                f"tree covers {self.num_vertices} of {g.n} vertices"
            )
        ok = self._edges_in_graph(g)
        if not bool(ok.all()):
            bad = int(np.flatnonzero(~ok)[0])
            raise ConstructionError(
                f"tree edge ({int(self._edge_lo[bad])}, "
                f"{int(self._edge_hi[bad])}) is not a physical link"
            )
        self._validated = g

    # ----------------------------------------------------------------- misc

    @classmethod
    def from_path(cls, path: Sequence[int], root_index: Optional[int] = None,
                  tree_id: Optional[int] = None) -> "SpanningTree":
        """Build a tree from a simple path, rooted at ``path[root_index]``.

        Lemma 7.17: rooting a Hamiltonian path at its midpoint minimizes the
        depth at ``(N-1)/2``; ``root_index=None`` selects the midpoint
        ``(len(path) - 1) // 2``.
        """
        if len(set(path)) != len(path):
            raise ConstructionError("path repeats a vertex")
        if not path:
            raise ConstructionError("empty path")
        if root_index is None:
            root_index = (len(path) - 1) // 2
        root = path[root_index]
        p = list(path)
        # each vertex's parent is its path neighbor toward the root; the
        # two arms are C-speed slice zips instead of per-vertex loops
        parent: Dict[int, int] = dict(
            zip(p[root_index - 1:: -1], p[root_index: 0: -1])
        )
        parent.update(zip(p[root_index + 1:], p[root_index: -1]))
        return cls(root, parent, tree_id=tree_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tid = f", id={self.tree_id}" if self.tree_id is not None else ""
        return (
            f"SpanningTree(root={self.root}, n={self.num_vertices}, "
            f"depth={self.depth}{tid})"
        )


def edge_congestion(trees: Iterable[SpanningTree]) -> Dict[Edge, int]:
    """Per-link congestion ``C(e)`` = number of trees containing ``e``
    (Section 5.1)."""
    cong: Dict[Edge, int] = {}
    for t in trees:
        for e in t.edges:
            cong[e] = cong.get(e, 0) + 1
    return cong


def max_congestion(trees: Iterable[SpanningTree]) -> int:
    """Worst-case link congestion — the number of VCs / tree states an
    in-network router must provision (Section 5.1)."""
    cong = edge_congestion(trees)
    return max(cong.values()) if cong else 0


def are_edge_disjoint(trees: Iterable[SpanningTree]) -> bool:
    return max_congestion(trees) <= 1


def total_tree_edges(trees: Iterable[SpanningTree]) -> int:
    return sum(len(t.edges) for t in trees)
