"""Greedy congestion-aware multi-tree embedding for arbitrary topologies.

The paper's constructions exploit PolarFly's algebraic structure; this
module is the library's *generic* fallback (and the natural baseline when
evaluating how much that structure buys): build ``k`` spanning trees
sequentially, each growing Prim-style and always attaching the next vertex
through the link least used by the trees embedded so far, subject to a
depth bound.

A structural note that falls out of Theorem 6.1: on ER_q, shortest-path
(depth-2) trees have **no embedding freedom at all** — every non-neighbor
of the root has exactly one 2-hop path to it, so its parent is forced.
Any congestion-aware embedder must therefore spend at least one extra
level, which is precisely the depth-3 slack Algorithm 3 uses. The default
``max_depth`` is accordingly ``eccentricity(root) + 1``. Even with that
slack, the greedy heuristic does not match Algorithm 3's provable
congestion-2 (quantified in the E-A5 benchmark) — the algebraic
construction is doing real work.

Growth runs as Prim's algorithm over a lazy-deletion heap of
``(usage, parent depth, u, v)`` candidate links. Each vertex covered at
depth ``< max_depth`` pushes its uncovered neighbours once, and stale
entries (whose ``v`` was covered since) are skipped on pop, so one tree
costs O(E log E) instead of a rescan of the covered set per attached
vertex. The heap picks the same link as that rescan (kept as
:func:`_greedy_tree_reference`, the differential oracle): a candidate's
key never changes while it is one, because ``usage`` grows only on the
chosen link, whose far end is then covered, and ``u``'s depth is fixed
once ``u`` is covered; and the key is a total order over the distinct
``(u, v)`` pairs.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.topology.graph import Graph, canonical_edge
from repro.trees.tree import SpanningTree

__all__ = ["greedy_tree", "greedy_trees"]


def _spread_roots(g: Graph, k: int) -> List[int]:
    """Pick ``k`` roots with minimal pairwise neighborhood overlap."""
    first = max(range(g.n), key=lambda v: (g.degree(v), -v))
    chosen = [first]
    covered = g.neighbors(first) | {first}
    while len(chosen) < k:
        pool = [v for v in range(g.n) if v not in chosen]
        v = min(
            pool,
            key=lambda u: (len((g.neighbors(u) | {u}) & covered), -g.degree(u), u),
        )
        chosen.append(v)
        covered |= g.neighbors(v) | {v}
    return chosen


def _bfs_layered_tree(
    g: Graph,
    root: int,
    usage: Dict[Tuple[int, int], int],
    tree_id: Optional[int],
) -> SpanningTree:
    """Minimum-depth tree: every vertex sits at its BFS depth and picks the
    least-used link to the previous layer. Always feasible; on a
    unique-shortest-path topology (Theorem 6.1) it is fully determined."""
    depth = g.bfs_layers(root)
    if len(depth) != g.n:
        raise ValueError("graph is disconnected")
    parent: Dict[int, int] = {}
    for v in sorted(depth, key=lambda x: (depth[x], x)):
        if v == root:
            continue
        d = depth[v]
        candidates = [u for u in g.neighbors(v) if depth[u] == d - 1]
        best = min(candidates, key=lambda u: (usage.get(canonical_edge(u, v), 0), u))
        parent[v] = best
        e = canonical_edge(best, v)
        usage[e] = usage.get(e, 0) + 1
    return SpanningTree(root, parent, tree_id=tree_id)


def _depth_bound(g: Graph, root: int, max_depth: Optional[int]) -> Tuple[int, int]:
    """``(max_depth, eccentricity of root)``, the bound defaulting to
    eccentricity + 1; raises if the graph is disconnected or the bound
    cannot span it."""
    ecc = g.eccentricity(root)  # raises if disconnected
    if max_depth is None:
        max_depth = ecc + 1
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if max_depth < ecc:
        raise ValueError(
            f"cannot span the graph from root {root} within depth {max_depth} "
            f"(eccentricity {ecc})"
        )
    return max_depth, ecc


def _stranded(
    g: Graph,
    root: int,
    usage: Dict[Tuple[int, int], int],
    parent: Dict[int, int],
    tree_id: Optional[int],
) -> SpanningTree:
    """Depth-slack growth stranded a vertex: un-charge the partial tree's
    links (usage for this tree has been partially charged) and rebuild
    with the always-feasible layered construction."""
    for e in (canonical_edge(v, p) for v, p in parent.items()):
        usage[e] -= 1
    return _bfs_layered_tree(g, root, usage, tree_id)


def greedy_tree(
    g: Graph,
    root: int,
    usage: Optional[Dict[Tuple[int, int], int]] = None,
    max_depth: Optional[int] = None,
    tree_id: Optional[int] = None,
) -> SpanningTree:
    """One spanning tree grown through least-used links.

    Prim-style growth: repeatedly attach an uncovered vertex through the
    eligible link with the smallest ``(usage, parent depth, ids)`` key. A
    link is eligible when its covered endpoint sits at depth
    ``< max_depth`` (default: the root's eccentricity + 1, the minimum
    slack that creates any choice on a unique-shortest-path topology).

    The eligible links sit in a heap: a vertex covered at depth
    ``< max_depth`` pushes one ``(usage, depth, u, v)`` entry per
    uncovered neighbour ``v``, and an entry whose ``v`` was covered since
    is dropped when it surfaces. An entry's key is static while ``v`` is
    uncovered and the keys are totally ordered, so the attach sequence
    (hence ``parent``'s insertion order and ``usage``) equals the
    covered-set rescan of :func:`_greedy_tree_reference`, in O(E log E)
    instead of O(n^2 d).

    When ``max_depth`` equals the root's eccentricity (no slack), greedy
    growth could strand vertices, so the construction switches to the
    always-feasible BFS-layered form (each vertex at its BFS depth, picking
    the least-used link to the previous layer). If growth strands a vertex
    anyway (the heap runs dry first), this tree's charges are rolled back
    and the same form is built.

    ``usage`` maps canonical edges to how many earlier trees used them; it
    is updated in place with this tree's edges.
    """
    if usage is None:
        usage = {}
    max_depth, ecc = _depth_bound(g, root, max_depth)
    if max_depth == ecc:
        return _bfs_layered_tree(g, root, usage, tree_id)

    get, push, pop = usage.get, heapq.heappush, heapq.heappop
    depth = {root: 0}
    parent: Dict[int, int] = {}
    heap: List[Tuple[int, int, int, int]] = []
    for v in g.neighbors(root):
        push(heap, (get((root, v) if root < v else (v, root), 0), 0, root, v))
    while len(depth) < g.n:
        while heap:
            _, d_u, u, v = pop(heap)
            if v not in depth:
                break
        else:
            return _stranded(g, root, usage, parent, tree_id)
        parent[v] = u
        depth[v] = d_v = d_u + 1
        e = (u, v) if u < v else (v, u)
        usage[e] = get(e, 0) + 1
        if d_v < max_depth:
            for w in g.neighbors(v):
                if w not in depth:
                    push(heap, (get((v, w) if v < w else (w, v), 0), d_v, v, w))
    return SpanningTree(root, parent, tree_id=tree_id)


def _greedy_tree_reference(
    g: Graph,
    root: int,
    usage: Optional[Dict[Tuple[int, int], int]] = None,
    max_depth: Optional[int] = None,
    tree_id: Optional[int] = None,
) -> SpanningTree:
    """:func:`greedy_tree` by a rescan of every covered vertex's
    neighbours per attach step, O(n^2 d) per tree. Kept as the
    differential oracle of the heap; no runtime caller."""
    if usage is None:
        usage = {}
    max_depth, ecc = _depth_bound(g, root, max_depth)
    if max_depth == ecc:
        return _bfs_layered_tree(g, root, usage, tree_id)

    depth = {root: 0}
    parent: Dict[int, int] = {}
    # candidate edges: (covered u, uncovered v)
    while len(depth) < g.n:
        best_key = None
        best = None
        for u, d_u in depth.items():
            if d_u >= max_depth:
                continue
            for v in g.neighbors(u):
                if v in depth:
                    continue
                e = canonical_edge(u, v)
                key = (usage.get(e, 0), d_u, u, v)
                if best_key is None or key < best_key:
                    best_key, best = key, (u, v)
        if best is None:
            return _stranded(g, root, usage, parent, tree_id)
        u, v = best
        parent[v] = u
        depth[v] = depth[u] + 1
        e = canonical_edge(u, v)
        usage[e] = usage.get(e, 0) + 1
    return SpanningTree(root, parent, tree_id=tree_id)


def greedy_trees(
    g: Graph,
    k: int,
    roots: Optional[Sequence[int]] = None,
    max_depth: Optional[int] = None,
) -> List[SpanningTree]:
    """``k`` congestion-spread greedy trees.

    Roots default to a neighborhood-spread selection (the first root is
    the highest-degree vertex; each subsequent root minimizes neighborhood
    overlap with those already chosen), which decorrelates the trees'
    level-1 fan-outs. ``max_depth`` applies per tree (default:
    per-root eccentricity + 1).
    """
    if k < 1:
        raise ValueError("need at least one tree")
    if roots is None:
        roots = _spread_roots(g, k)
    elif len(roots) != k:
        raise ValueError("roots must have length k")
    usage: Dict[Tuple[int, int], int] = {}
    return [
        greedy_tree(g, r, usage, max_depth=max_depth, tree_id=i)
        for i, r in enumerate(roots)
    ]
