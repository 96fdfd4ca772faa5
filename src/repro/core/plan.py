"""End-to-end multi-tree Allreduce plans — the library's main entry point.

A plan bundles a PolarFly radix, one of the paper's embedding schemes, the
constructed spanning trees, and the Algorithm 1 bandwidth assignment, and
exposes the derived quantities the paper evaluates: aggregate and
normalized bandwidth (Figure 5a), tree depth (Figure 5b), worst-case link
congestion (= virtual channels required, Section 5.1), and the Equation 2
sub-vector partition.

Schemes
-------
``"low-depth"``
    Algorithm 3 on the ER_q cluster layout: ``q`` trees, depth <= 3,
    congestion 2, aggregate ``q B / 2`` (odd prime powers only).
``"low-depth-even"``
    Our even-q extension (nucleus layout): ``q - 1`` trees, depth <= 3,
    congestion 2, aggregate ``(q-1) B / 2`` (even prime powers only; the
    paper states an even-q solution exists but does not publish it).
``"edge-disjoint"``
    Hamiltonian paths on S_q: ``floor((q+1)/2)`` trees, zero congestion,
    aggregate ``floor((q+1)/2) B`` (optimal for odd ``q``), depth
    ``(N-1)/2``.
``"single"``
    One BFS tree — the single-link-bandwidth baseline of current systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.utils.profiling import StageTimer

from repro.core.bandwidth import (
    Number,
    optimal_bandwidth,
    optimal_partition,
    tree_bandwidths,
)
from repro.topology.graph import Graph
from repro.topology.polarfly import polarfly_graph
from repro.topology.singer import singer_graph
from repro.trees.disjoint import edge_disjoint_hamiltonian_trees
from repro.trees.lowdepth import low_depth_trees
from repro.trees.single import single_tree
from repro.trees.tree import SpanningTree, max_congestion
from repro.utils.errors import whole

__all__ = ["AllreducePlan", "build_plan", "SCHEMES"]

SCHEMES = ("low-depth", "low-depth-even", "edge-disjoint", "single")

#: instance-dict key of :meth:`AllreducePlan.subset_bandwidths`' memo
_SUBSET_MEMO = "_subset_bandwidths"


@dataclass(frozen=True)
class AllreducePlan:
    """An executable multi-tree Allreduce embedding on PolarFly.

    Attributes
    ----------
    q:
        Prime-power PolarFly parameter; ``N = q^2 + q + 1`` nodes.
    scheme:
        One of :data:`SCHEMES`.
    topology:
        The physical network graph the trees are embedded in. Note the
        vertex labelling differs between schemes — ``low-depth`` uses the
        projective-geometry labels of ER_q, ``edge-disjoint`` the Singer
        labels of S_q; the graphs are isomorphic (Theorem 6.6).
    trees:
        The embedded spanning trees.
    bandwidths:
        Per-tree bandwidth ``B_i`` from Algorithm 1 (exact rationals).
    link_bandwidth:
        The uniform link bandwidth ``B``.
    """

    q: int
    scheme: str
    topology: Graph
    trees: Tuple[SpanningTree, ...]
    bandwidths: Tuple[Fraction, ...]
    link_bandwidth: Fraction

    # ------------------------------------------------------------- metrics

    @property
    def num_nodes(self) -> int:
        return self.topology.n

    @property
    def num_trees(self) -> int:
        return len(self.trees)

    @property
    def aggregate_bandwidth(self) -> Fraction:
        """Theorem 5.1 aggregate Allreduce bandwidth ``sum B_i``."""
        return sum(self.bandwidths, Fraction(0))

    @property
    def normalized_bandwidth(self) -> Fraction:
        """Aggregate bandwidth / the Corollary 7.1 optimum — the y-axis of
        Figure 5a."""
        return self.aggregate_bandwidth / optimal_bandwidth(self.q, self.link_bandwidth)

    @property
    def max_depth(self) -> int:
        """Worst tree depth — the latency proxy of Figure 5b."""
        return max(t.depth for t in self.trees)

    @property
    def max_congestion(self) -> int:
        """Worst-case link congestion across the embedding."""
        return max_congestion(self.trees)

    @property
    def vcs_required(self) -> int:
        """Virtual channels (or per-link tree states) a router must hold —
        equal to the worst-case link congestion (Section 5.1)."""
        return self.max_congestion

    # ------------------------------------------------------------ planning

    def partition(self, m: int) -> List[int]:
        """Equation 2: optimal sub-vector sizes for an ``m``-element input
        (``m`` an integer, else a named ``TypeError``)."""
        return optimal_partition(m, self.bandwidths)

    def subset_bandwidths(self, ids: Sequence[int]) -> Tuple[Fraction, ...]:
        """Algorithm 1 bandwidths of the trees ``ids`` (indices into
        ``trees``) embedded alone, as a tenant placed on them runs
        (:func:`repro.tenancy.place_jobs`).

        The fill depends only on the plan and the subset, so it is
        computed once per subset and memoized on the plan; the memo is
        left out of the plan's pickle."""
        key = tuple(ids)
        memo = self.__dict__.setdefault(_SUBSET_MEMO, {})
        bws = memo.get(key)
        if bws is None:
            trees = [self.trees[i] for i in key]
            bws = memo[key] = tuple(
                tree_bandwidths(self.topology, trees, self.link_bandwidth)
            )
        return bws

    def __getstate__(self) -> Dict[str, object]:
        """The plan's fields, without the subset-bandwidth memo."""
        return {k: v for k, v in self.__dict__.items() if k != _SUBSET_MEMO}

    def estimated_time(self, m: int, hop_latency: Number = 0) -> Fraction:
        """Pipelined execution-time estimate for an ``m``-element Allreduce:

        ``max_i ( 2 * depth(T_i) * hop_latency + m_i / B_i )``

        — each tree pays its reduce+broadcast pipeline fill (depth-
        proportional latency ``L``, Section 4.3) plus its streaming time
        (Theorem 5.1)."""
        hop = Fraction(hop_latency) if not isinstance(hop_latency, float) else Fraction(
            hop_latency
        ).limit_denominator(10**9)
        parts = self.partition(m)
        times = []
        for t, mi, bi in zip(self.trees, parts, self.bandwidths):
            lat = 2 * t.depth * hop
            times.append(lat + (Fraction(mi) / bi if mi else Fraction(0)))
        return max(times)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AllreducePlan(q={self.q}, scheme={self.scheme!r}, "
            f"trees={self.num_trees}, "
            f"agg_bw={self.aggregate_bandwidth}, depth={self.max_depth}, "
            f"congestion={self.max_congestion})"
        )


def check_plan_args(
    q, starter=None, max_trees=None
) -> Tuple[int, Optional[int], Optional[int]]:
    """``build_plan``'s integer arguments as exact ints — NumPy integers
    pass, anything else raises a ``TypeError`` naming the argument — with
    ``max_trees >= 1``."""
    q = whole("q", q)
    if starter is not None:
        starter = whole("starter", starter)
    if max_trees is not None:
        max_trees = whole("max_trees", max_trees)
        if max_trees < 1:
            raise ValueError("max_trees must be >= 1")
    return q, starter, max_trees


def build_plan(
    q: int,
    scheme: str = "low-depth",
    link_bandwidth: Number = 1,
    starter: Optional[int] = None,
    max_trees: Optional[int] = None,
    timer: Optional["StageTimer"] = None,
) -> AllreducePlan:
    """Construct trees for ``scheme`` on PolarFly of parameter ``q`` and run
    the Algorithm 1 performance model.

    ``starter`` selects the layout's starter quadric (``low-depth`` only).

    ``max_trees`` caps the number of concurrent trees — modeling devices
    like Mellanox SHARP that support only a limited number (up to two,
    Section 1.1). The first ``max_trees`` trees of the construction are
    kept; Algorithm 1 then redistributes the freed link bandwidth.

    ``timer`` (a :class:`~repro.utils.profiling.StageTimer`) records the
    "graph build" / "tree construction" / "bandwidth fill" stage timings
    — what ``repro plan`` and the telemetry ``perf`` record report.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    q, starter, max_trees = check_plan_args(q, starter, max_trees)
    if timer is None:
        from repro.utils.profiling import StageTimer

        timer = StageTimer()  # unobserved sink; keeps the stages unconditional
    if scheme == "low-depth":
        with timer.stage("graph build"):
            g = polarfly_graph(q).graph
        with timer.stage("tree construction"):
            trees = low_depth_trees(q, starter)
    elif scheme == "low-depth-even":
        from repro.trees.lowdepth_even import low_depth_trees_even

        with timer.stage("graph build"):
            g = polarfly_graph(q).graph
        with timer.stage("tree construction"):
            trees = low_depth_trees_even(q, starter)
    elif scheme == "edge-disjoint":
        with timer.stage("graph build"):
            g = singer_graph(q).graph
        with timer.stage("tree construction"):
            trees = edge_disjoint_hamiltonian_trees(q)
    else:
        with timer.stage("graph build"):
            g = polarfly_graph(q).graph
        with timer.stage("tree construction"):
            trees = [single_tree(g)]
    if max_trees is not None:
        trees = trees[:max_trees]
    with timer.stage("bandwidth fill"):
        bws = tree_bandwidths(g, trees, link_bandwidth)
    big_b = bws[0] * 0 + (
        Fraction(link_bandwidth)
        if not isinstance(link_bandwidth, float)
        else Fraction(link_bandwidth).limit_denominator(10**9)
    )
    return AllreducePlan(
        q=q,
        scheme=scheme,
        topology=g,
        trees=tuple(trees),
        bandwidths=tuple(bws),
        link_bandwidth=big_b,
    )
