"""Edge-disjoint spanning-tree packing for arbitrary graphs (Roskind–Tarjan).

The paper proves ER_q contains ``⌊(q+1)/2⌋`` edge-disjoint spanning trees
by *explicit construction* (Hamiltonian paths from Singer difference
sets). This module provides the generic counterpart: the matroid-union
augmenting algorithm of Roskind & Tarjan, which computes a maximum packing
of ``k`` edge-disjoint spanning forests in any graph.

Uses:

- independent cross-validation of the paper's existence result: the
  generic packer must find ``⌊(q+1)/2⌋`` disjoint spanning trees on ER_q
  (and does — bench E-A9);
- zero-congestion multi-tree Allreduce on topologies the paper does not
  treat (hypercubes pack ``⌊d/2⌋`` trees, k-ary D-tori pack ``D``);
- a quantitative contrast: packed trees are unstructured and can be very
  deep, while the Singer construction controls depth, roots and in-order
  streaming — the value of the algebraic solution beyond existence.

Algorithm (per edge ``e0``, labeling/BFS over swap chains):

1. try to insert ``e0`` into forest 1; an edge that closes a cycle ``C``
   in its target forest labels the unlabeled edges of ``C`` to try the
   *next* forest (cyclically) and records the parent pointer;
2. when some labeled edge fits its target forest without a cycle, unwind
   the parent chain: each edge moves up to its target forest, freeing the
   slot its parent needed;
3. if the BFS exhausts, ``e0`` cannot enlarge the packing (matroid-union
   optimality) and is discarded.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.topology.graph import Graph, canonical_edge
from repro.trees.single import bfs_spanning_tree
from repro.trees.tree import Edge, SpanningTree

__all__ = ["pack_spanning_trees", "spanning_tree_packing_number"]


class _Forest:
    """One forest: adjacency + incremental connectivity queries.

    Components are tracked with a simple union-find that supports the only
    destructive operation we need (edge removal during chain unwinding) by
    rebuilding — removals are rare (once per successful augmentation step)
    and graphs are small, so clarity wins over asymptotics here.
    """

    def __init__(self, n: int):
        self.n = n
        self.adj: List[Set[int]] = [set() for _ in range(n)]
        self.edges: Set[Edge] = set()
        self._comp: List[int] = list(range(n))

    def _rebuild_components(self) -> None:
        comp = [-1] * self.n
        c = 0
        for s in range(self.n):
            if comp[s] != -1:
                continue
            stack = [s]
            comp[s] = c
            while stack:
                u = stack.pop()
                for w in self.adj[u]:
                    if comp[w] == -1:
                        comp[w] = c
                        stack.append(w)
            c += 1
        self._comp = comp

    def connected(self, u: int, v: int) -> bool:
        return self._comp[u] == self._comp[v]

    def add(self, u: int, v: int) -> None:
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.edges.add(canonical_edge(u, v))
        # merge components cheaply
        cu, cv = self._comp[u], self._comp[v]
        if cu != cv:
            for x in range(self.n):
                if self._comp[x] == cv:
                    self._comp[x] = cu

    def remove(self, u: int, v: int) -> None:
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self.edges.discard(canonical_edge(u, v))
        self._rebuild_components()

    def path(self, u: int, v: int) -> Optional[List[int]]:
        """Tree path from u to v (vertices), or None if disconnected."""
        if not self.connected(u, v):
            return None
        parent = {u: None}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if x == v:
                break
            for w in self.adj[x]:
                if w not in parent:
                    parent[w] = x
                    queue.append(w)
        if v not in parent:
            return None
        out = [v]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return list(reversed(out))


def _try_insert(forests: List[_Forest], e0: Edge) -> bool:
    """One Roskind–Tarjan augmentation attempt for edge ``e0``."""
    k = len(forests)
    label_target: Dict[Edge, int] = {e0: 0}
    parent_edge: Dict[Edge, Optional[Edge]] = {e0: None}
    queue = deque([e0])
    placed: Optional[Edge] = None

    while queue:
        e = queue.popleft()
        u, v = e
        j = label_target[e]
        if not forests[j].connected(u, v):
            placed = e
            break
        # cycle in F_j: label the path edges to try the next forest
        path = forests[j].path(u, v)
        nxt = (j + 1) % k
        for a, b in zip(path, path[1:]):
            h = canonical_edge(a, b)
            if h not in label_target:
                label_target[h] = nxt
                parent_edge[h] = e
                queue.append(h)

    if placed is None:
        return False

    # unwind the swap chain
    e: Optional[Edge] = placed
    while e is not None:
        j = label_target[e]
        g = parent_edge[e]
        if g is not None:
            # e currently lives in g's target forest; free that slot
            forests[label_target[g]].remove(*e)
        forests[j].add(*e)
        e = g
    return True


def pack_spanning_trees(
    g: Graph, k: int, require_spanning: bool = True
) -> List[SpanningTree]:
    """Pack ``k`` edge-disjoint spanning trees into ``g``.

    Edges are offered in canonical sorted order (deterministic output).
    If ``require_spanning`` and fewer than ``k`` disjoint spanning trees
    exist, raises ``ValueError`` naming the deficient forest; with
    ``require_spanning=False``, returns the trees of the maximum packing's
    spanning forests only (possibly fewer than ``k``).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    forests = [_Forest(g.n) for _ in range(k)]
    for e in sorted(g.edges):
        _try_insert(forests, e)

    trees: List[SpanningTree] = []
    for i, f in enumerate(forests):
        if len(f.edges) == g.n - 1:
            sub = Graph.from_edges(g.n, f.edges)
            trees.append(
                SpanningTree(0, bfs_spanning_tree(sub, 0).parent, tree_id=i)
            )
        elif require_spanning:
            raise ValueError(
                f"graph packs only {i} edge-disjoint spanning trees "
                f"(forest {i} has {len(f.edges)} of {g.n - 1} edges)"
            )
    return trees


def spanning_tree_packing_number(g: Graph, k_max: Optional[int] = None) -> int:
    """The spanning-tree packing number (Nash-Williams/Tutte strength),
    computed constructively by packing with increasing ``k``."""
    if k_max is None:
        k_max = max(1, g.num_edges // max(1, g.n - 1))
    best = 0
    for k in range(1, k_max + 1):
        got = len(pack_spanning_trees(g, k, require_spanning=False))
        best = max(best, got)
        if got < k:
            break
    return best
