"""Admission and placement: pack per-tenant tree embeddings onto one
shared PolarFly.

Placement reuses the plan cache (:func:`repro.core.plancache.get_plan`)
for the base embedding, then assigns each admitted job a subset of the
base plan's trees, whose Algorithm 1 fill is computed once per base plan
(:meth:`~repro.core.plan.AllreducePlan.subset_bandwidths`):

``mode="shared"``
    every tenant gets the *first* ``tree_count`` trees — maximum link
    overlap, the congestion end of the ablation;
``mode="partitioned"``
    consecutive *disjoint* tree blocks — with an edge-disjoint scheme
    the tenants are link-disjoint, the isolation end of the ablation
    (and the basis of the link-disjoint differential).

Admission is checked against two physical budgets, in the spirit of
Flare's limited switch reduction resources:

- a per-switch reduction-slot limit (``switch_slots``): each tree in
  which a switch aggregates (i.e. has children) consumes one slot;
- a per-link ledger (``link_budget``): each directed channel carries at
  most ``link_budget`` tenant-tree flows per direction.

Violations raise :class:`AdmissionError` naming the saturated resource.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bandwidth import optimal_partition
from repro.core.plancache import get_plan, plan_key
from repro.tenancy.jobs import TenantJob
from repro.topology.graph import Edge, Graph, canonical_edge
from repro.trees.tree import SpanningTree

__all__ = [
    "AdmissionError",
    "FabricPlan",
    "Placement",
    "place_jobs",
    "PLACEMENT_MODES",
]

PLACEMENT_MODES = ("shared", "partitioned")


class AdmissionError(RuntimeError):
    """A job mix cannot be placed within the fabric's resource budgets."""


@dataclass(frozen=True)
class Placement:
    """One admitted job bound to concrete trees and flit counts.

    ``tree_ids`` index the base plan's tree list; ``flits`` is the
    Equation 2 partition of ``job.m`` over those trees' Algorithm 1
    bandwidths (computed on the subset and memoized on the base plan, so
    a full-plan placement matches ``AllreducePlan.partition`` exactly —
    the K=1 differential relies on this).
    """

    job: TenantJob
    tree_ids: Tuple[int, ...]
    flits: Tuple[int, ...]


@dataclass(frozen=True)
class FabricPlan:
    """A placed job mix: the shared topology, the base trees, and one
    :class:`Placement` per tenant (sorted by ``(arrival, tenant)``)."""

    q: int
    scheme: str
    mode: str
    topology: Graph
    trees: Tuple[SpanningTree, ...]
    plan_key: str
    placements: Tuple[Placement, ...]
    link_load: Dict[Edge, int] = field(compare=False)
    switch_load: Dict[int, int] = field(compare=False)

    @property
    def num_tenants(self) -> int:
        return len(self.placements)

    def tenant_trees(self, placement: Placement) -> Tuple[SpanningTree, ...]:
        """The concrete tree objects a placement runs over."""
        return tuple(self.trees[i] for i in placement.tree_ids)


def _internal_nodes(tree: SpanningTree) -> List[int]:
    """Switches that aggregate in this tree — every node with children."""
    return [v for v in tree.vertices if tree.children(v)]


def place_jobs(
    q: int,
    jobs: Sequence[TenantJob],
    scheme: str = "low-depth",
    *,
    mode: str = "shared",
    switch_slots: Optional[int] = None,
    link_budget: Optional[int] = None,
    starter: Optional[int] = None,
) -> FabricPlan:
    """Admit and place ``jobs`` on PolarFly of parameter ``q``.

    Raises :class:`AdmissionError` when a job wants more trees than the
    base plan offers (or than remain, in partitioned mode), or when the
    placed mix exceeds ``switch_slots`` reduction slots on any switch or
    ``link_budget`` tenant-tree flows on any link.
    """
    if mode not in PLACEMENT_MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {PLACEMENT_MODES}")
    if not jobs:
        raise ValueError("need at least one job")
    tenants = [j.tenant for j in jobs]
    if len(set(tenants)) != len(tenants):
        raise ValueError("tenant ids must be unique")
    base = get_plan(q, scheme, starter=starter)
    key = plan_key(q, scheme, starter=starter)
    ordered = sorted(jobs, key=lambda j: (j.arrival, j.tenant))

    placements: List[Placement] = []
    cursor = 0  # next free tree in partitioned mode
    for job in ordered:
        if mode == "shared":
            if job.tree_count > base.num_trees:
                raise AdmissionError(
                    f"tenant {job.tenant} wants {job.tree_count} trees; "
                    f"plan has {base.num_trees}"
                )
            ids = tuple(range(job.tree_count))
        else:
            if cursor + job.tree_count > base.num_trees:
                raise AdmissionError(
                    f"tenant {job.tenant} wants {job.tree_count} trees; "
                    f"only {base.num_trees - cursor} remain unpartitioned"
                )
            ids = tuple(range(cursor, cursor + job.tree_count))
            cursor += job.tree_count
        if ids == tuple(range(base.num_trees)):
            flits = base.partition(job.m)
        else:
            flits = optimal_partition(job.m, base.subset_bandwidths(ids))
        placements.append(Placement(job=job, tree_ids=ids, flits=tuple(flits)))

    link_load: Dict[Edge, int] = {}
    switch_load: Dict[int, int] = {}
    for p in placements:
        for i in p.tree_ids:
            tree = base.trees[i]
            for e in tree.edges:
                ce = canonical_edge(*e)
                link_load[ce] = link_load.get(ce, 0) + 1
            for v in _internal_nodes(tree):
                switch_load[v] = switch_load.get(v, 0) + 1
    if link_budget is not None:
        worst = max(link_load.items(), key=lambda kv: kv[1], default=(None, 0))
        if worst[1] > link_budget:
            raise AdmissionError(
                f"link {worst[0]} carries {worst[1]} tenant-tree flows "
                f"(budget {link_budget})"
            )
    if switch_slots is not None:
        worst_sw = max(switch_load.items(), key=lambda kv: kv[1], default=(None, 0))
        if worst_sw[1] > switch_slots:
            raise AdmissionError(
                f"switch {worst_sw[0]} needs {worst_sw[1]} reduction slots "
                f"(limit {switch_slots})"
            )

    return FabricPlan(
        q=q,
        scheme=scheme,
        mode=mode,
        topology=base.topology,
        trees=base.trees,
        plan_key=key,
        placements=tuple(placements),
        link_load=link_load,
        switch_load=switch_load,
    )
