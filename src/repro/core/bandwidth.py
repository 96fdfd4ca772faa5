"""Performance under congestion — Algorithm 1 and Theorem 5.1 (Section 5).

Given a set of Allreduce trees embedded in the network, Algorithm 1
computes the steady-state bandwidth each tree achieves when links are
fairly shared: repeatedly find the bottleneck link (smallest remaining
bandwidth / congestion ratio), freeze the bandwidth of every tree through
it, subtract that bandwidth from all links those trees use, and continue.
This is exactly progressive-filling / max-min fairness on the trees.

Theorem 5.1: with each tree ``T_i`` running at ``B_i`` and the input vector
split proportionally (``m_i = m * B_i / sum B_j``, Equation 2), the
aggregate Allreduce bandwidth is ``sum B_i``.

Results are exact rationals (:class:`fractions.Fraction`) — the quantities
the paper reasons about (``B/2``, ``(q+1)B/2``) are exact, and the
iteration involves repeated subtraction where floats would drift. The hot
loops, however, run on **common-denominator scaled integers**: remaining
link bandwidths live in a numpy int64 vector ``R`` with one shared
denominator ``D`` (so the true value of link ``e`` is ``R[e] / D``), the
bottleneck ratio ``R[e] / C(e)`` is compared exactly as the integer
``R[e] * (lcm / C(e))``, and an event whose share does not divide evenly
rescales ``R`` and ``D`` together. ``Fraction`` objects are materialized
only at bottleneck events (one per frozen share), so outputs are
bit-for-bit identical to the retained exact-rational reference
(:func:`_progressive_fill_reference`, kept for the differential suite and
as the fallback when the int64 headroom guard trips).
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.topology.graph import Graph
from repro.trees.tree import Edge, SpanningTree, edge_congestion
from repro.utils.errors import whole

Number = Union[int, float, Fraction]

__all__ = [
    "tree_bandwidths",
    "aggregate_bandwidth",
    "optimal_bandwidth",
    "optimal_partition",
    "latency_aware_partition",
    "allreduce_time",
    "bottleneck_trace",
]

# scaled-integer state must keep this much headroom below 2**63 before the
# int64 fast path hands the computation to the exact-Fraction reference
_INT64_GUARD = 1 << 62


class _PrecisionOverflow(Exception):
    """The scaled-integer state would overflow int64; use the reference."""


def _as_fraction(b: Number) -> Fraction:
    if isinstance(b, float):
        return Fraction(b).limit_denominator(10**9)
    return Fraction(b)


def _progressive_fill_reference(
    g: Graph,
    trees: Sequence[SpanningTree],
    link_bandwidth: Number,
    link_bandwidths: Optional[Mapping[Edge, Number]],
) -> Tuple[List[Fraction], List[Tuple[Edge, Fraction, Tuple[int, ...]]]]:
    """Exact-rational reference for Algorithm 1 (retained implementation).

    Returns ``(bandwidths, trace)`` where ``trace`` records each
    bottleneck event as ``(edge, share, frozen tree ids)``.

    The bottleneck edge (line 5 of Algorithm 1) is found with a
    lazy-deletion min-heap of ``(remaining/congestion, edge)`` entries
    instead of an O(E) scan per iteration: every time an edge's state
    changes a fresh entry is pushed, and popped entries whose ratio no
    longer matches the edge's current state are discarded. Each tree
    freeze touches only that tree's edges, so the whole run costs
    O(sum_i |T_i| log E) rather than O(iterations * E). Tie-breaking is
    unchanged — the heap orders by ``(ratio, edge)``, exactly the old
    scan's "smallest ratio, then smallest edge" rule — so results are
    identical, not merely equivalent.
    """
    big_b = _as_fraction(link_bandwidth)
    if big_b <= 0:
        raise ValueError("link bandwidth must be positive")
    for t in trees:
        t.validate(g)

    congestion: Dict[Edge, int] = edge_congestion(trees)
    remaining: Dict[Edge, Fraction] = {}
    for e in congestion:
        if link_bandwidths is not None and e in link_bandwidths:
            b_e = _as_fraction(link_bandwidths[e])
            if b_e <= 0:
                raise ValueError(f"link bandwidth for {e} must be positive")
            remaining[e] = b_e
        else:
            remaining[e] = big_b

    users: Dict[Edge, List[int]] = {}
    for i, t in enumerate(trees):
        for e in t.edges:
            users.setdefault(e, []).append(i)

    alive = set(range(len(trees)))
    bandwidth: List[Fraction] = [Fraction(0)] * len(trees)
    trace: List[Tuple[Edge, Fraction, Tuple[int, ...]]] = []

    heap: List[Tuple[Fraction, Edge]] = [
        (remaining[e] / c, e) for e, c in congestion.items() if c > 0
    ]
    heapq.heapify(heap)
    while alive and heap:
        ratio, e_min = heapq.heappop(heap)
        c = congestion[e_min]
        if c <= 0 or remaining[e_min] / c != ratio:
            continue  # stale entry — the edge changed since this push
        share = ratio  # == remaining[e_min] / congestion[e_min]
        frozen = tuple(i for i in users[e_min] if i in alive)
        touched = set()
        for i in frozen:
            bandwidth[i] = share  # line 7
            for e in trees[i].edges:  # lines 8-10
                remaining[e] -= share
                congestion[e] -= 1
                touched.add(e)
            alive.discard(i)  # line 11
        congestion[e_min] = 0  # line 12: edge removed
        for e in touched:
            if congestion[e] > 0:
                heapq.heappush(heap, (remaining[e] / congestion[e], e))
        trace.append((e_min, share, frozen))

    return bandwidth, trace


def _progressive_fill_scaled(
    g: Graph,
    trees: Sequence[SpanningTree],
    link_bandwidth: Number,
    link_bandwidths: Optional[Mapping[Edge, Number]],
) -> Tuple[List[Fraction], List[Tuple[Edge, Fraction, Tuple[int, ...]]]]:
    """Algorithm 1 on common-denominator scaled integers.

    State: ``R[j] / D`` is the remaining bandwidth of edge ``j`` (edges
    sorted ascending, so ``np.argmin``'s first-minimum rule reproduces the
    reference's "smallest ratio, then smallest edge" tie-break), ``C[j]``
    its congestion, and the bottleneck ratio ``R[j] / C[j]`` is compared
    via the exact integer key ``R[j] * (L // C[j])`` with ``L =
    lcm(1..max C)``. A bottleneck whose share does not divide evenly
    multiplies ``R`` and ``D`` by the missing factor, keeping every
    subtraction integral. Raises :class:`_PrecisionOverflow` (and the
    caller falls back to the exact reference) if any of that would
    approach int64 range.
    """
    big_b = _as_fraction(link_bandwidth)
    if big_b <= 0:
        raise ValueError("link bandwidth must be positive")
    for t in trees:
        t.validate(g)

    num_trees = len(trees)
    bandwidth: List[Fraction] = [Fraction(0)] * num_trees
    trace: List[Tuple[Edge, Fraction, Tuple[int, ...]]] = []
    if num_trees == 0:
        return bandwidth, trace

    counts = np.fromiter(
        (t.edge_endpoints()[0].size for t in trees), dtype=np.int64, count=num_trees
    )
    total_uses = int(counts.sum())
    if total_uses == 0:
        return bandwidth, trace
    lo_all = np.concatenate([t.edge_endpoints()[0] for t in trees])
    hi_all = np.concatenate([t.edge_endpoints()[1] for t in trees])
    enc = np.int64(g.n)  # vertices are < g.n, so lo * enc + hi is injective
    ekeys, inv = np.unique(lo_all * enc + hi_all, return_inverse=True)
    num_edges = int(ekeys.size)

    cong = np.bincount(inv, minlength=num_edges).astype(np.int64)
    # users of each edge, grouped per edge in ascending tree order
    tree_of = np.repeat(np.arange(num_trees, dtype=np.int64), counts)
    by_edge = np.argsort(inv, kind="stable")
    users_flat = tree_of[by_edge]
    # group boundaries: sorted-inv run lengths are exactly the congestions
    ubounds = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(cong, out=ubounds[1:])
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    tree_eidx = [inv[offsets[i]: offsets[i + 1]] for i in range(num_trees)]

    if link_bandwidths:
        fracs: List[Fraction] = []
        for lo, hi in zip((ekeys // enc).tolist(), (ekeys % enc).tolist()):
            e = (lo, hi)
            if e in link_bandwidths:
                b_e = _as_fraction(link_bandwidths[e])
                if b_e <= 0:
                    raise ValueError(f"link bandwidth for {e} must be positive")
                fracs.append(b_e)
            else:
                fracs.append(big_b)
        denom = 1
        for f in fracs:
            denom = denom * f.denominator // math.gcd(denom, f.denominator)
        nums = [f.numerator * (denom // f.denominator) for f in fracs]
        max_r = max(nums)
        if max_r >= _INT64_GUARD:
            raise _PrecisionOverflow
        remaining = np.array(nums, dtype=np.int64)
    else:
        denom = big_b.denominator
        max_r = big_b.numerator
        if max_r >= _INT64_GUARD:
            raise _PrecisionOverflow
        remaining = np.full(num_edges, max_r, dtype=np.int64)

    max_c = int(cong.max())
    ratio_lcm = math.lcm(*range(1, max_c + 1))
    if max_r * ratio_lcm >= _INT64_GUARD:
        raise _PrecisionOverflow
    mult = np.zeros(max_c + 1, dtype=np.int64)
    mult[1:] = [ratio_lcm // c for c in range(1, max_c + 1)]

    alive = np.ones(num_trees, dtype=bool)
    n_alive = int(np.count_nonzero(counts))  # edgeless trees never freeze
    int64_max = np.iinfo(np.int64).max
    while n_alive:
        keys = np.where(cong > 0, remaining * mult[cong], int64_max)
        j = int(np.argmin(keys))  # first minimum == smallest canonical edge
        if keys[j] == int64_max:  # pragma: no cover - alive trees keep edges
            break
        c = int(cong[j])
        r_j = int(remaining[j])
        if r_j % c:
            factor = c // math.gcd(r_j, c)
            if int(remaining.max()) * factor * ratio_lcm >= _INT64_GUARD:
                raise _PrecisionOverflow
            remaining *= factor
            denom *= factor
            r_j *= factor
        sub = r_j // c
        share = Fraction(r_j, c * denom)
        frozen = tuple(
            int(i) for i in users_flat[ubounds[j]: ubounds[j + 1]] if alive[i]
        )
        for i in frozen:
            bandwidth[i] = share  # line 7
            idx = tree_eidx[i]
            remaining[idx] -= sub  # lines 8-10
            cong[idx] -= 1
            alive[i] = False  # line 11
            n_alive -= 1
        cong[j] = 0  # line 12: edge removed
        key = int(ekeys[j])
        trace.append(((key // int(enc), key % int(enc)), share, frozen))

    return bandwidth, trace


def _progressive_fill(
    g: Graph,
    trees: Sequence[SpanningTree],
    link_bandwidth: Number,
    link_bandwidths: Optional[Mapping[Edge, Number]],
) -> Tuple[List[Fraction], List[Tuple[Edge, Fraction, Tuple[int, ...]]]]:
    """The shared core of Algorithm 1: progressive filling over the trees.

    Dispatches to the scaled-integer fast path, falling back to the exact
    ``Fraction`` reference when the integer state would leave int64 range
    (adversarial bandwidth denominators or very deep congestion chains);
    both produce bit-for-bit identical results.
    """
    try:
        return _progressive_fill_scaled(g, trees, link_bandwidth, link_bandwidths)
    except _PrecisionOverflow:
        return _progressive_fill_reference(g, trees, link_bandwidth, link_bandwidths)


def tree_bandwidths(
    g: Graph,
    trees: Sequence[SpanningTree],
    link_bandwidth: Number = 1,
    link_bandwidths: Optional[Mapping[Edge, Number]] = None,
) -> List[Fraction]:
    """Algorithm 1: the bandwidth ``B_i`` of each embedded tree.

    Parameters
    ----------
    g:
        The physical topology; every tree edge must be one of its links.
    trees:
        The embedded Allreduce trees (checked against ``g``).
    link_bandwidth:
        ``B``, identical for all links (Section 4.1). Exact rationals in,
        exact rationals out.
    link_bandwidths:
        Optional per-link override (canonical ``(min, max)`` edge keys) —
        a generalization beyond the paper's uniform-``B`` model for
        heterogeneous networks; links absent from the mapping use
        ``link_bandwidth``.

    Returns the list ``[B_0, ..., B_r]`` aligned with ``trees``. The result
    is independent of tie-breaking among bottleneck edges (noted under
    Algorithm 1); we break ties by edge order for determinism.
    """
    bandwidth, _ = _progressive_fill(g, trees, link_bandwidth, link_bandwidths)
    return bandwidth


def aggregate_bandwidth(
    g: Graph, trees: Sequence[SpanningTree], link_bandwidth: Number = 1
) -> Fraction:
    """Theorem 5.1: maximum achievable Allreduce bandwidth ``sum B_i``."""
    return sum(tree_bandwidths(g, trees, link_bandwidth), Fraction(0))


def optimal_bandwidth(q: int, link_bandwidth: Number = 1) -> Fraction:
    """Corollary 7.1: the optimal bidirectional in-network Allreduce
    bandwidth on ER_q is ``(q+1) B / 2``.

    Derivation: ER_q has ``q (q+1)^2 / 2`` links; any spanning tree uses
    ``q^2 + q`` of them; each link supplies ``B`` to the trees through it.
    """
    return Fraction(q + 1) * _as_fraction(link_bandwidth) / 2


def _scaled_numerators(fracs: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Common-denominator integer view: ``fracs[i] == nums[i] / denom``."""
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // math.gcd(denom, f.denominator)
    return [f.numerator * (denom // f.denominator) for f in fracs], denom


def _optimal_partition_reference(m: int, bandwidths: Sequence[Number]) -> List[int]:
    """Exact-``Fraction`` Equation 2 (retained reference implementation)."""
    if m < 0:
        raise ValueError("vector size must be non-negative")
    fracs = [_as_fraction(b) for b in bandwidths]
    if any(b < 0 for b in fracs):
        raise ValueError("bandwidths must be non-negative")
    total = sum(fracs, Fraction(0))
    if total == 0:
        raise ValueError("at least one tree must have positive bandwidth")
    exact = [m * b / total for b in fracs]
    parts = [int(x) for x in exact]  # floor
    deficit = m - sum(parts)
    # hand out the remaining elements to the largest fractional remainders
    order = sorted(
        range(len(exact)), key=lambda i: (exact[i] - parts[i], fracs[i]), reverse=True
    )
    for i in order[:deficit]:
        parts[i] += 1
    return parts


def optimal_partition(m: int, bandwidths: Sequence[Number]) -> List[int]:
    """Equation 2: split an ``m``-element vector across trees proportionally
    to their bandwidths, in whole elements (largest-remainder rounding so
    the parts sum exactly to ``m``). Zero-bandwidth trees get no elements.

    Runs on common-denominator scaled integers: with ``b_i = n_i / D`` the
    exact share is ``m * n_i / N`` (``N = sum n_i``), its floor and
    remainder are single integer divmods, and the largest-remainder order
    ``(exact - floor, b_i)`` is the integer order ``(m*n_i mod N, n_i)``
    because ``N`` and ``D`` are shared positive constants — so the result
    is identical to the retained ``Fraction`` reference, without any
    rational arithmetic.

    ``m`` must be an integer (``operator.index``: a NumPy integer becomes
    an exact Python ``int``; a float or string raises a named
    ``TypeError``).
    """
    m = whole("m", m)
    if m < 0:
        raise ValueError("vector size must be non-negative")
    fracs = [_as_fraction(b) for b in bandwidths]
    if any(b < 0 for b in fracs):
        raise ValueError("bandwidths must be non-negative")
    nums, _ = _scaled_numerators(fracs)
    total = sum(nums)
    if total == 0:
        raise ValueError("at least one tree must have positive bandwidth")
    quots = [divmod(m * n, total) for n in nums]
    parts = [q for q, _ in quots]
    deficit = m - sum(parts)
    order = sorted(
        range(len(nums)), key=lambda i: (quots[i][1], nums[i]), reverse=True
    )
    for i in order[:deficit]:
        parts[i] += 1
    return parts


def _latency_aware_partition_reference(
    m: int,
    bandwidths: Sequence[Number],
    latencies: Sequence[Number],
) -> List[int]:
    """Exact-``Fraction`` waterfilling (retained reference implementation)."""
    if m < 0:
        raise ValueError("vector size must be non-negative")
    bws = [_as_fraction(b) for b in bandwidths]
    lats = [_as_fraction(x) for x in latencies]
    if len(bws) != len(lats):
        raise ValueError("bandwidths and latencies length mismatch")
    if any(b < 0 for b in bws) or any(l < 0 for l in lats):
        raise ValueError("bandwidths and latencies must be non-negative")
    if sum(bws, Fraction(0)) == 0:
        raise ValueError("at least one tree must have positive bandwidth")
    if m == 0:
        return [0] * len(bws)

    # waterfill: raise T through the sorted latencies until the active
    # trees absorb m elements
    order = sorted(range(len(bws)), key=lambda i: lats[i])
    active: List[int] = []
    b_sum = Fraction(0)
    lb_sum = Fraction(0)  # sum of L_i * B_i over active trees
    t_final = None
    for pos, i in enumerate(order):
        if bws[i] == 0:
            continue
        # tentatively activate tree i at level L_i
        active.append(i)
        b_sum += bws[i]
        lb_sum += lats[i] * bws[i]
        nxt = None
        for j in order[pos + 1 :]:
            if bws[j] > 0:
                nxt = lats[j]
                break
        # T with current active set: (m + sum L B) / sum B
        t_candidate = (Fraction(m) + lb_sum) / b_sum
        if nxt is None or t_candidate <= nxt:
            t_final = t_candidate
            break
    assert t_final is not None
    active_set = set(active)
    exact = [
        max(Fraction(0), (t_final - lats[i]) * bws[i])
        if i in active_set
        else Fraction(0)
        for i in range(len(bws))
    ]
    parts = [int(x) for x in exact]
    deficit = m - sum(parts)
    rema = sorted(
        range(len(exact)),
        key=lambda i: (exact[i] - parts[i], bws[i]),
        reverse=True,
    )
    for i in rema[:deficit]:
        parts[i] += 1
    return parts


def latency_aware_partition(
    m: int,
    bandwidths: Sequence[Number],
    latencies: Sequence[Number],
) -> List[int]:
    """Sub-vector split minimizing ``max_i (L_i + m_i / B_i)`` exactly.

    Theorem 5.1's Equation 2 assumes equal per-tree latency; when trees
    have different depths (the edge-disjoint family mixed with greedy
    repairs, or capped plans), the optimal split waterfills instead: find
    the finish time ``T`` with ``sum_i max(0, (T - L_i) B_i) = m`` and give
    each tree ``(T - L_i) B_i`` elements (trees whose latency exceeds
    ``T`` carry nothing). Exact computation on common-denominator scaled
    integers (``L_i = a_i / D``, ``B_i = b_i / D``): the waterfill level
    with active set ``A`` is ``T = P / (D * S)`` with ``P = m D^2 +
    sum_A a_j b_j`` and ``S = sum_A b_j``, the activation test ``T <=
    L_j`` cross-multiplies to ``P <= a_j S``, and each exact share
    ``(T - L_i) B_i`` is the integer ``(P - a_i S) b_i`` over the shared
    denominator ``D^2 S`` — identical output to the retained ``Fraction``
    reference, largest-remainder integer rounding included. ``m`` is
    checked as in :func:`optimal_partition`.
    """
    m = whole("m", m)
    if m < 0:
        raise ValueError("vector size must be non-negative")
    bws = [_as_fraction(b) for b in bandwidths]
    lats = [_as_fraction(x) for x in latencies]
    if len(bws) != len(lats):
        raise ValueError("bandwidths and latencies length mismatch")
    if any(b < 0 for b in bws) or any(l < 0 for l in lats):
        raise ValueError("bandwidths and latencies must be non-negative")
    nums, _ = _scaled_numerators(list(bws) + list(lats))
    b_int = nums[: len(bws)]
    a_int = nums[len(bws):]
    if sum(b_int) == 0:
        raise ValueError("at least one tree must have positive bandwidth")
    if m == 0:
        return [0] * len(bws)
    denom = 1
    for f in bws:
        denom = denom * f.denominator // math.gcd(denom, f.denominator)
    for f in lats:
        denom = denom * f.denominator // math.gcd(denom, f.denominator)

    order = sorted(range(len(b_int)), key=lambda i: a_int[i])
    active: List[int] = []
    b_sum = 0  # S: sum of active b_j
    ab_sum = 0  # sum of active a_j * b_j
    p_final = None
    for pos, i in enumerate(order):
        if b_int[i] == 0:
            continue
        active.append(i)
        b_sum += b_int[i]
        ab_sum += a_int[i] * b_int[i]
        nxt = None
        for j in order[pos + 1 :]:
            if b_int[j] > 0:
                nxt = a_int[j]
                break
        p_candidate = m * denom * denom + ab_sum  # T = P / (D * S)
        if nxt is None or p_candidate <= nxt * b_sum:
            p_final = p_candidate
            break
    assert p_final is not None
    active_set = set(active)
    # exact share of tree i is shares[i] / share_den
    shares = [
        max(0, (p_final - a_int[i] * b_sum) * b_int[i]) if i in active_set else 0
        for i in range(len(b_int))
    ]
    share_den = denom * denom * b_sum
    quots = [divmod(s, share_den) for s in shares]
    parts = [q for q, _ in quots]
    deficit = m - sum(parts)
    rema = sorted(
        range(len(shares)),
        key=lambda i: (quots[i][1], b_int[i]),
        reverse=True,
    )
    for i in rema[:deficit]:
        parts[i] += 1
    return parts


def allreduce_time(
    m: int,
    bandwidths: Sequence[Number],
    latency: Number = 0,
    partition: Sequence[int] = None,
) -> Fraction:
    """Overall Allreduce time ``max_i (L + m_i / B_i)`` for a sub-vector
    partition (Theorem 5.1 proof). With the optimal partition this equals
    ``L + m / sum B_i`` (Equation 3)."""
    fracs = [_as_fraction(b) for b in bandwidths]
    lat = _as_fraction(latency)
    if partition is None:
        partition = optimal_partition(m, fracs)
    if len(partition) != len(fracs):
        raise ValueError("partition and bandwidths length mismatch")
    times = []
    for mi, bi in zip(partition, fracs):
        if mi == 0:
            times.append(lat)
            continue
        if bi == 0:
            raise ValueError("nonzero sub-vector assigned to a zero-bandwidth tree")
        times.append(lat + Fraction(mi) / bi)
    return max(times)


def bottleneck_trace(
    g: Graph,
    trees: Sequence[SpanningTree],
    link_bandwidth: Number = 1,
    link_bandwidths: Optional[Mapping[Edge, Number]] = None,
) -> List[Tuple[Edge, Fraction, Tuple[int, ...]]]:
    """Diagnostic version of Algorithm 1: the sequence of bottleneck edges,
    the bandwidth share each froze, and the tree ids it froze. Useful for
    understanding *where* an embedding loses bandwidth.

    Shares the progressive-filling core with :func:`tree_bandwidths`,
    including the per-link ``link_bandwidths`` override for heterogeneous
    networks.
    """
    _, trace = _progressive_fill(g, trees, link_bandwidth, link_bandwidths)
    return trace
