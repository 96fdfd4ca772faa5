"""Link-failure handling for multi-tree Allreduce plans (extension).

The paper assumes a healthy network; a deployed in-network collective must
react when a link dies. Two recovery levels are provided:

- :func:`degraded_plan` — drop every tree that used a failed link and
  re-run Algorithm 1 on the survivors (zero recomputation of trees;
  bandwidth shrinks by the dropped trees' share). Edge-disjoint embeddings
  lose at most one tree per failed link; Algorithm 3 embeddings at most
  two (Theorem 7.6).
- :func:`repaired_plan` — additionally re-grow replacement trees with the
  generic greedy embedder on the surviving topology (usage pre-charged
  with the surviving trees' links), restoring the tree count whenever the
  residual graph is still connected.

A third surgery handles links that are *contended rather than dead*:

- :func:`demoted_plan` — keep the topology intact but migrate trees off
  a set of demoted links: every tree routing through one is re-grown (in
  place, keeping its root and index) on the topology minus those links,
  and the demoted links' bandwidth is scaled by a penalty in the
  Algorithm 1 re-fill so Equation 2 steers the sub-vector partition away
  from whatever still crosses them. This is the plan half of the
  congestion-aware controller (:mod:`repro.simulator.adaptive`).

All three return ordinary :class:`AllreducePlan` objects, so everything
downstream (partitioning, simulators, collectives) works unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from repro.core.bandwidth import tree_bandwidths
from repro.core.plan import AllreducePlan
from repro.topology.graph import Graph, canonical_edge
from repro.trees.tree import Edge, SpanningTree

__all__ = [
    "affected_trees",
    "remove_links",
    "degraded_plan",
    "demoted_plan",
    "repaired_plan",
]


def affected_trees(trees: Sequence[SpanningTree], failed: Iterable[Edge]) -> List[int]:
    """Indices of trees that route through any failed link."""
    bad = {canonical_edge(*e) for e in failed}
    return [i for i, t in enumerate(trees) if t.edges & bad]


def remove_links(g: Graph, failed: Iterable[Edge]) -> Graph:
    """The surviving topology (failed links removed; self-loops kept).

    Each failed link must be named exactly once: a duplicate entry (even
    spelled with the endpoints swapped) is almost always a caller bug —
    e.g. double-counting a failure when sizing the Theorem 7.6 bound — so
    it raises ``ValueError`` rather than being silently deduplicated.
    """
    bad = set()
    for raw in failed:
        e = canonical_edge(*raw)
        if e in bad:
            raise ValueError(
                f"duplicate failed-link entry {e}; list each failed link once"
            )
        bad.add(e)
    for e in bad:
        if e[0] == e[1] or not g.has_edge(*e):
            raise ValueError(f"{e} is not a physical link of this topology")
    return g.without_edges(bad)


def _rebuild(plan: AllreducePlan, g: Graph, trees: Sequence[SpanningTree]) -> AllreducePlan:
    bws = tree_bandwidths(g, trees, plan.link_bandwidth)
    return AllreducePlan(
        q=plan.q,
        scheme=plan.scheme + "+degraded",
        topology=g,
        trees=tuple(trees),
        bandwidths=tuple(bws),
        link_bandwidth=plan.link_bandwidth,
    )


def degraded_plan(plan: AllreducePlan, failed: Iterable[Edge]) -> AllreducePlan:
    """Drop affected trees; keep the rest running on the surviving links.

    Raises ``ValueError`` if no tree survives (callers should then fall
    back to :func:`repaired_plan` or a full re-plan).
    """
    failed = list(failed)
    g = remove_links(plan.topology, failed)
    dead = set(affected_trees(plan.trees, failed))
    survivors = [t for i, t in enumerate(plan.trees) if i not in dead]
    if not survivors:
        raise ValueError("every tree used a failed link; use repaired_plan")
    return _rebuild(plan, g, survivors)


def repaired_plan(plan: AllreducePlan, failed: Iterable[Edge]) -> AllreducePlan:
    """Replace each dropped tree with a greedy tree on the surviving graph.

    Replacement trees keep the dead trees' roots (so the reduce-scatter
    root placement is stable) and are grown congestion-aware against the
    surviving trees' links. Requires the surviving topology to remain
    connected.
    """
    from repro.trees.greedy import greedy_tree

    failed = list(failed)
    g = remove_links(plan.topology, failed)
    if not g.is_connected():
        raise ValueError("surviving topology is disconnected; cannot repair")
    dead = set(affected_trees(plan.trees, failed))
    usage = {}
    trees: List[SpanningTree] = []
    for i, t in enumerate(plan.trees):
        if i in dead:
            continue
        for e in t.edges:
            usage[e] = usage.get(e, 0) + 1
        trees.append(t)
    for i in sorted(dead):
        old = plan.trees[i]
        trees.append(greedy_tree(g, old.root, usage, tree_id=old.tree_id))
    bws = tree_bandwidths(g, trees, plan.link_bandwidth)
    return AllreducePlan(
        q=plan.q,
        scheme=plan.scheme + "+repaired",
        topology=g,
        trees=tuple(trees),
        bandwidths=tuple(bws),
        link_bandwidth=plan.link_bandwidth,
    )


def demoted_plan(
    plan: AllreducePlan,
    demoted: Iterable[Edge],
    penalty: Fraction = Fraction(1, 2),
) -> AllreducePlan:
    """Migrate trees off contended — demoted, not dead — links.

    The topology is unchanged (the links still carry flits), but:

    - every tree routing through a demoted link is re-grown greedily on
      the topology *minus* the demoted links, usage pre-charged with the
      untouched trees' links, keeping its root, index and tree id — so
      per-tree leftover accounting survives the swap one-to-one;
    - the demoted links' bandwidth is scaled by ``penalty`` (a fraction in
      ``(0, 1]``) for the Algorithm 1 re-fill, so Equation 2 shifts the
      sub-vector partition away from any tree still crossing them.

    When removing the demoted links disconnects the topology the affected
    trees are kept as they are — the bandwidth penalty alone de-emphasizes
    them. Demoted links are validated like failures (physical, listed
    once); ``penalty`` outside ``(0, 1]`` raises ``ValueError``.
    """
    from repro.core.bandwidth import _as_fraction
    from repro.trees.greedy import greedy_tree

    penalty = _as_fraction(penalty)
    if not 0 < penalty <= 1:
        raise ValueError(f"penalty must be in (0, 1], got {penalty}")
    demoted = list(demoted)
    residual = remove_links(plan.topology, demoted)  # validates the links
    hot = {canonical_edge(*e) for e in demoted}
    affected = set(affected_trees(plan.trees, demoted))
    trees = list(plan.trees)
    if affected and residual.is_connected():
        usage = {}
        for i, t in enumerate(plan.trees):
            if i not in affected:
                for e in t.edges:
                    usage[e] = usage.get(e, 0) + 1
        for i in sorted(affected):  # greedy_tree charges usage as it grows
            old = plan.trees[i]
            trees[i] = greedy_tree(residual, old.root, usage, tree_id=old.tree_id)
    bws = tree_bandwidths(
        plan.topology,
        trees,
        plan.link_bandwidth,
        link_bandwidths={e: plan.link_bandwidth * penalty for e in hot},
    )
    return AllreducePlan(
        q=plan.q,
        scheme=plan.scheme + "+demoted",
        topology=plan.topology,
        trees=tuple(trees),
        bandwidths=tuple(bws),
        link_bandwidth=plan.link_bandwidth,
    )
