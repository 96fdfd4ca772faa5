"""Index layout of the vectorized cycle engines, built with array operations.

The fast, leap and batched engines keep one counter per flow, ``sent``
(plus the flits granted last cycle, still in flight), and derive every
other frontier from it through flow-space gathers: a flow's availability
is ``concat(sent, agg, m)[avail_src]`` with ``agg`` the streaming
aggregation mins, and its receiver's consumed counter is
``concat(sent, bcm)[cons_idx]`` with ``bcm`` the broadcast mins.
:class:`EngineLayout` holds every one of those index maps for one
``(graph, trees)`` embedding; :meth:`EngineLayout.derive` derives them
from the trees' parent arrays with one argsort, scatters and gathers — no
per-flow Python loop and no sort over channels.

**Shared and read-only.**  The layout depends only on ``n`` and each
tree's root and insertion-order ``(child, parent)`` pairs, so
:meth:`EngineLayout.build` returns one layout per such content from
:data:`shared_layouts`, a byte-bounded LRU memo that holds no tree or
graph: the fast, leap and batched engines and every fabric tenant over
equal trees read the same object.  Its arrays are not writeable, and a
:class:`~repro.trees.tree.SpanningTree` must not be mutated after
construction.

**Flow-order contract.**  Flows are numbered tree-major, and within a
tree in the insertion order of its ``parent`` dict: the ``e``-th
``(child, parent)`` pair of the embedding is reduce flow ``2e``
(child -> parent) followed by broadcast flow ``2e + 1`` (parent ->
child).  This is the order :class:`~repro.simulator.cycle.CycleSimulator`
creates its flows in, and it fixes everything the round robin observes:

- channels are numbered in order of first appearance along the flow ids,
  so :meth:`EngineLayout.channels` equals the reference's
  ``channel_flows`` key order;
- a channel's flows occupy its arbitration slots in ascending flow id,
  so slot ``j`` of channel ``c`` (``slot_fid[j, c]``) holds the
  reference's ``channel_flows[ch][j]`` and the rotating pointer visits
  flows in the same sequence.

``tests/test_engine_layout.py`` pins both against the reference engine on
shuffled parent dicts and repeated trees.  Every tree spans the graph, so
each owns ``2(n - 1)`` consecutive flow ids, ``n - 1`` of them broadcasts
(the odd ones).

The streaming-aggregation groups are the internal ``(tree, node)`` pairs,
tree-major and node-ascending, each listing its children in ascending
order (the order of :meth:`SpanningTree.children`).  A group's
aggregation frontier is the min of its children's reduce ``sent``
(:attr:`EngineLayout.child_up`), its broadcast min the same over their
broadcasts (:attr:`EngineLayout.child_bc`).  A one-child group's min is
that child's counter: about half the groups of a low-depth plan have one
child, and nearly every group of an edge-disjoint plan (q=13: 1 260 of
1 267).  So :meth:`EngineLayout.group_mins` gathers every group's first
member (``first``) and overwrites only the multi-child groups
(``multi_grp``) with one ``np.minimum.reduceat`` over their members
alone (``multi`` at ``multi_off``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import AbstractSet, Hashable, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.topology.graph import Graph
from repro.trees.tree import SpanningTree

__all__ = ["EngineLayout", "GroupMembers", "LayoutMemoInfo", "shared_layouts"]


class GroupMembers(NamedTuple):
    """One member map of the aggregation groups (the children's reduce
    flows, or their broadcast flows), as flow ids."""

    #: every group's members, concatenated in group order (each group's
    #: run starts at ``EngineLayout.grp_off``)
    fid: np.ndarray
    #: each group's first member, shape (G,)
    first: np.ndarray
    #: the members of the multi-child groups only, concatenated (each
    #: group's run starts at ``EngineLayout.multi_off``)
    multi: np.ndarray


@lru_cache(maxsize=4)
def _channel_tuples(src: bytes, dst: bytes) -> List[Tuple[int, int]]:
    """The ``(src, dst)`` tuples of a layout's int64 channel arrays,
    memoized by content: engines are built per run, and each run over one
    embedding that records a telemetry leg, joins a fabric or writes a
    trace would otherwise build the same list again."""
    us = np.frombuffer(src, np.int64).tolist()
    return list(zip(us, np.frombuffer(dst, np.int64).tolist()))


@dataclass(frozen=True, eq=False)
class EngineLayout:
    """Every index map the vectorized engines read, for one embedding.

    Indices address flow-space vectors: ``sent`` ((F,) or (F, L)) and its
    concatenation with one entry per aggregation group and per tree.  All
    arrays are int64 (bool for masks); in a layout from :meth:`build`
    they are shared and not writeable.

    Two groups of maps exist only to make the per-cycle step cheaper,
    and :meth:`derive` derives both with array operations: each group's
    first member (``GroupMembers.first``) plus the multi-child groups
    (``multi_grp``, ``multi_off`` and ``GroupMembers.multi``), which let
    :meth:`group_mins` gather one-child groups instead of reducing them;
    and ``flow_shared``, which gives the two-flow round robin of
    :func:`~repro.simulator.fastcycle.round_robin` its pointer update.
    """

    n: int
    #: per-tree roots, shape (T,)
    roots: np.ndarray
    # ---- flows, in the contract's fid order, shape (F,)
    flow_tree: np.ndarray
    flow_src: np.ndarray
    flow_dst: np.ndarray
    flow_is_reduce: np.ndarray
    #: undirected link of each flow as ``lo * n + hi``
    flow_edge_key: np.ndarray
    #: availability of the flow's next flit at its source, as an index
    #: into ``concat(sent, agg, m)`` (see :meth:`available`)
    avail_src: np.ndarray
    #: credit consumption: the receiver's consumed counter of each flow
    #: as an index into ``concat(sent, bcm)`` (see :meth:`consumed`)
    cons_idx: np.ndarray
    #: broadcast flows into a leaf, consumed as they land
    bc_into_leaf: np.ndarray
    # ---- streaming-aggregation groups: each one's first child, shape (G,)
    grp_off: np.ndarray
    #: children per group, shape (G,)
    grp_size: np.ndarray
    # ... and their children's reduce and broadcast flows
    child_up: GroupMembers
    child_bc: GroupMembers
    #: the groups with two or more children, ascending
    multi_grp: np.ndarray
    #: each multi-child group's first member in ``GroupMembers.multi``
    multi_off: np.ndarray
    #: group of each tree's root, shape (T,) (-1 on a one-node graph)
    root_grp: np.ndarray
    # ---- channels, in order of first appearance, shape (C,)
    ch_src: np.ndarray
    ch_dst: np.ndarray
    #: flows per channel
    ch_k: np.ndarray
    #: channel of each flow, shape (F,)
    flow_ch: np.ndarray
    #: padded (K, C) slot x channel matrix of flow ids, ``K = max(ch_k)``,
    #: with ``F`` (one past the last flow) in empty slots
    slot_fid: np.ndarray
    # ---- round-robin arbitration in flow space, shape (F,)
    #: arbitration slot of each flow on its channel
    flow_slot: np.ndarray
    #: the flow in the cyclically preceding slot of the same channel
    #: (the flow itself on a one-flow channel)
    flow_prev: np.ndarray
    #: the flow's channel carries two flows (read when ``rr_hops == 1``)
    flow_shared: np.ndarray
    #: predecessor hops a pointer scan needs: ``max(ch_k) - 1``
    rr_hops: int

    @property
    def num_trees(self) -> int:
        return len(self.roots)

    @property
    def num_flows(self) -> int:
        return len(self.flow_tree)

    @property
    def num_channels(self) -> int:
        return len(self.ch_k)

    def channels(self) -> List[Tuple[int, int]]:
        """Directed channels ``(src, dst)`` in index order (a fresh copy
        of a list shared by equal layouts)."""
        return list(_channel_tuples(self.ch_src.tobytes(), self.ch_dst.tobytes()))

    def by_slot(self, per_flow: np.ndarray) -> np.ndarray:
        """A per-flow array ((F,) or (F, L)) laid out by arbitration slot
        and channel, (K, C) or (K, C, L): one gather, with empty slots
        reading an appended zero."""
        zero = np.zeros((1,) + per_flow.shape[1:], dtype=per_flow.dtype)
        return np.concatenate((per_flow, zero))[self.slot_fid]

    def channel_totals(self, per_flow: np.ndarray) -> np.ndarray:
        """Sum a per-flow array ((F,) or (F, L)) over each channel's
        flows: (C,) or (C, L) int64, the slot axis of :meth:`by_slot`
        summed.  Cumulative channel flit counts are
        ``channel_totals(sent)``."""
        return self.by_slot(per_flow).sum(axis=0, dtype=np.int64)

    def group_mins(self, per_flow: np.ndarray, members: GroupMembers) -> np.ndarray:
        """Min of ``per_flow`` over each aggregation group's ``members``
        (``child_up`` or ``child_bc``): (G,) or (G, L), always equal to
        ``np.minimum.reduceat(per_flow[members.fid], grp_off)``: a
        gather of every group's first member, with the multi-child
        groups overwritten by a reduction over their members alone."""
        out = per_flow[members.first]
        if len(self.multi_off):
            out[self.multi_grp] = np.minimum.reduceat(
                per_flow[members.multi], self.multi_off
            )
        return out

    def available(
        self, sent: np.ndarray, agg: np.ndarray, m: np.ndarray
    ) -> np.ndarray:
        """Each flow's availability at its source (or its rate, given
        rates): the aggregation min ``agg`` ((G,)) of its source's group
        for a reduce flow out of an internal node and a broadcast out of
        the root, ``m`` ((T,), the tree's flit count) for a reduce flow
        out of a leaf, and the ``sent`` of the broadcast into its source
        for any other broadcast.  A trailing lane axis carries through."""
        return np.concatenate((sent, agg, m))[self.avail_src]

    def consumed(self, sent: np.ndarray, bcm: np.ndarray) -> np.ndarray:
        """Each flow's consumed counter (or its rate, given rates): the
        ``sent`` of the flow its receiver forwards, the broadcast-min
        ``bcm`` ((G,), one per aggregation group) of its receiver's group,
        or, for a broadcast into a leaf, its own ``sent``.  A trailing
        lane axis carries through."""
        return np.concatenate((sent, bcm))[self.cons_idx]

    def pointers(self, ptr: np.ndarray) -> np.ndarray:
        """Round-robin pointer (a slot) of every channel, (C,) or (C, L),
        from the pointer bits ``ptr`` ((F,) or (F, L) bool, exactly one
        set per channel and lane)."""
        fid, *lane = np.nonzero(ptr)
        rr = np.zeros((self.num_channels,) + ptr.shape[1:], dtype=np.int64)
        rr[(self.flow_ch[fid], *lane)] = self.flow_slot[fid]
        return rr

    def flows_on(self, edges: AbstractSet[Tuple[int, int]]) -> np.ndarray:
        """Boolean flow mask: which flows cross one of the canonical
        undirected ``edges`` (in either direction).

        One key comparison per edge — the loop ``np.isin`` itself runs for
        key sets this small, without its per-call overhead; a fault
        segment downs a handful of links, and the batched engine rebuilds
        one lane's mask per schedule event."""
        mask = np.zeros(len(self.flow_edge_key), dtype=bool)
        for lo, hi in edges:
            mask |= self.flow_edge_key == lo * self.n + hi
        return mask

    @classmethod
    def build(cls, g: Graph, trees: Sequence[SpanningTree]) -> "EngineLayout":
        """The shared, read-only layout of ``trees`` embedded in ``g``.

        Memoized by content in :data:`shared_layouts`: equal trees give
        the same layout object, whatever the graph or tree objects, so
        do not modify its arrays (they are not writeable)."""
        return shared_layouts(g, trees)

    @classmethod
    def derive(cls, g: Graph, trees: Sequence[SpanningTree]) -> "EngineLayout":
        """Derive the layout of ``trees`` embedded in ``g`` (uncached, with
        writeable arrays).  Each tree must be a spanning tree of ``g``
        (:meth:`SpanningTree.validate`, memoized per graph)."""
        for t in trees:
            t.validate(g)
        n = g.n
        T = len(trees)
        roots = np.asarray([t.root for t in trees], dtype=np.int64)
        counts = [len(t.parent) for t in trees]
        E = sum(counts)
        # one (child, parent) pair per tree edge, tree-major, parent-dict order
        child = np.empty(E, dtype=np.int64)
        par = np.empty(E, dtype=np.int64)
        at = 0
        for t, k in zip(trees, counts):
            child[at : at + k] = np.fromiter(t.parent.keys(), np.int64, count=k)
            par[at : at + k] = np.fromiter(t.parent.values(), np.int64, count=k)
            at += k
        etree = np.repeat(np.arange(T, dtype=np.int64), counts)

        # ---- flows: 2e reduces child -> parent, 2e+1 broadcasts back
        F = 2 * E
        flow_tree = np.repeat(etree, 2)
        flow_src = np.empty(F, dtype=np.int64)
        flow_dst = np.empty(F, dtype=np.int64)
        flow_src[0::2] = flow_dst[1::2] = child
        flow_src[1::2] = flow_dst[0::2] = par
        flow_is_reduce = np.zeros(F, dtype=bool)
        flow_is_reduce[0::2] = True
        edge_key = np.minimum(child, par) * n + np.maximum(child, par)
        flow_edge_key = np.repeat(edge_key, 2)

        # ---- aggregation groups: edges sorted by the unique key
        # (tree, parent, child); each run of one (tree, parent) is a group
        at_child = etree * n + child  # (tree, node) cells, flat over (T, n)
        at_par = etree * n + par
        order = np.argsort(at_par * n + child)
        s_node = at_par[order]
        first = np.ones(E, dtype=bool)
        first[1:] = s_node[1:] != s_node[:-1]
        grp_off = np.flatnonzero(first)
        G = len(grp_off)
        sizes = np.diff(np.append(grp_off, E))
        is_multi = sizes > 1
        multi_grp = np.flatnonzero(is_multi)
        multi_off = np.cumsum(sizes[is_multi]) - sizes[is_multi]
        # sorted-edge positions of the multi-child groups' members
        multi_pos = np.flatnonzero(np.repeat(is_multi, sizes))
        # per-(tree, node) maps: group id (-1 for leaves), reduce fid
        grp_of = np.full(T * n, -1, dtype=np.int64)
        grp_of[s_node[grp_off]] = np.arange(G, dtype=np.int64)
        up_fid = np.zeros(T * n, dtype=np.int64)
        up_fid[at_child] = np.arange(0, F, 2, dtype=np.int64)
        grp_c = grp_of[at_child]  # the child's group: -1 at a leaf
        grp_p = grp_of[at_par]  # the parent's group (it has this child)
        par_fid = up_fid[at_par]  # the parent's own reduce flow
        par_is_root = par == roots[etree]

        # ---- availability of a flow's next flit at its source, in
        # concat(sent, agg, m):
        #   reduce out of a leaf    -> the tree's m_i
        #   reduce out of interior  -> aggregation min at src
        #   broadcast out of root   -> aggregation min at the root
        #   broadcast out of inner  -> 'sent' of the broadcast into src
        avail_src = np.empty(F, dtype=np.int64)
        avail_src[0::2] = np.where(grp_c >= 0, F + grp_c, F + G + etree)
        avail_src[1::2] = np.where(par_is_root, F + grp_p, par_fid + 1)

        # ---- consumption counter per flow (credit bookkeeping), in
        # concat(sent, bcm):
        #   reduce into the root    -> min over the root's broadcast 'sent'
        #   reduce into an interior -> that node's own up-flow 'sent'
        #   broadcast into a leaf   -> its own 'sent' (landed on arrival)
        #   broadcast into interior -> min over its broadcast 'sent'
        cons_idx = np.empty(F, dtype=np.int64)
        cons_idx[0::2] = np.where(par_is_root, F + grp_p, par_fid)
        cons_idx[1::2] = np.where(
            grp_c >= 0, F + grp_c, np.arange(1, F, 2, dtype=np.int64)
        )
        bc_into_leaf = 2 * np.flatnonzero(grp_c < 0) + 1

        # ---- channels: a dense id per directed link of g (its edge's
        # rank, doubled, plus the direction).  A tree uses a directed
        # channel at most once, so counting per tree hands each flow its
        # slot in fid order, and the slot-0 flows are the channels' first
        # appearances: no sort.
        gk = g.edge_keys()
        rank = np.searchsorted(gk, edge_key)
        dense = np.empty(F, dtype=np.int64)
        dense[0::2] = 2 * rank + (child > par)
        dense[1::2] = 2 * rank + (par > child)
        taken = np.zeros(2 * len(gk), dtype=np.int64)
        flow_slot = np.empty(F, dtype=np.int64)
        at = 0
        for k in counts:
            ids = dense[at : at + 2 * k]
            flow_slot[at : at + 2 * k] = taken[ids]
            taken[ids] += 1
            at += 2 * k
        heads = np.flatnonzero(flow_slot == 0)
        C = len(heads)
        ch_of = taken  # reused: dense id -> channel (every flow's id is a head's)
        ch_k = taken[dense[heads]]
        ch_of[dense[heads]] = np.arange(C, dtype=np.int64)
        flow_ch = ch_of[dense]
        K = int(ch_k.max()) if C else 1
        slot_fid = np.full((K, C), F, dtype=np.int64)
        slot_fid[flow_slot, flow_ch] = np.arange(F, dtype=np.int64)
        prev_slot = np.where(flow_slot > 0, flow_slot, ch_k[flow_ch]) - 1
        flow_prev = slot_fid.reshape(-1)[prev_slot * C + flow_ch]

        return cls(
            n=n,
            roots=roots,
            flow_tree=flow_tree,
            flow_src=flow_src,
            flow_dst=flow_dst,
            flow_is_reduce=flow_is_reduce,
            flow_edge_key=flow_edge_key,
            avail_src=avail_src,
            cons_idx=cons_idx,
            bc_into_leaf=bc_into_leaf,
            grp_off=grp_off,
            grp_size=sizes,
            child_up=GroupMembers(
                2 * order, 2 * order[grp_off], 2 * order[multi_pos]
            ),
            child_bc=GroupMembers(
                2 * order + 1, 2 * order[grp_off] + 1, 2 * order[multi_pos] + 1
            ),
            multi_grp=multi_grp,
            multi_off=multi_off,
            root_grp=grp_of[np.arange(T, dtype=np.int64) * n + roots],
            ch_src=flow_src[heads],
            ch_dst=flow_dst[heads],
            ch_k=ch_k,
            flow_ch=flow_ch,
            slot_fid=slot_fid,
            flow_slot=flow_slot,
            flow_prev=flow_prev,
            flow_shared=ch_k[flow_ch] == 2,
            rr_hops=K - 1,
        )

    def arrays(self) -> List[np.ndarray]:
        """Every array of the layout, in field order (the two
        :class:`GroupMembers` maps flattened)."""
        out: List[np.ndarray] = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, np.ndarray):
                out.append(v)
            elif isinstance(v, GroupMembers):
                out.extend(v)
        return out


class LayoutMemoInfo(NamedTuple):
    """Counters of :data:`shared_layouts`."""

    hits: int
    misses: int
    #: layouts held
    currsize: int
    #: bytes held: layout arrays plus their keys
    nbytes: int
    max_bytes: int


class _LayoutMemo:
    """Content-keyed LRU memo of read-only :class:`EngineLayout` objects,
    bounded in bytes.

    The key is ``n`` plus each tree's root and its canonical edge arrays in
    ``parent``-dict order (:meth:`SpanningTree.edge_endpoints`).  A tree is
    fixed by its root and its edges, so these fix every ``(child,
    parent)`` pair and their order: equal tree sets share one layout
    whatever the tree, plan or graph objects.  The memo holds no tree or
    graph.  Layouts stay until the
    bytes held (arrays plus keys) pass ``max_bytes``, least recently used
    first; one larger than ``max_bytes`` is returned but never held.

    ``cache_info()`` and ``cache_clear()`` take no arguments, as on a
    ``functools.lru_cache`` function; they are bound per instance, so a
    cache reset that calls them on every module attribute having both
    finds the memo and not this class.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self._held: OrderedDict[Hashable, Tuple[EngineLayout, int]] = OrderedDict()
        self._hits = self._misses = self._nbytes = 0
        self.cache_info = self._info
        self.cache_clear = self._clear

    def __call__(self, g: Graph, trees: Sequence[SpanningTree]) -> EngineLayout:
        key: Tuple[object, ...] = (g.n,)
        key_bytes = 0
        for t in trees:
            lo, hi = t.edge_endpoints()
            key += (t.root, lo.tobytes(), hi.tobytes())
            key_bytes += lo.nbytes + hi.nbytes
        held = self._held.get(key)
        if held is not None:
            self._hits += 1
            self._held.move_to_end(key)
            return held[0]
        self._misses += 1
        lay = EngineLayout.derive(g, trees)
        size = key_bytes
        for a in lay.arrays():
            a.flags.writeable = False
            size += a.nbytes
        if size <= self.max_bytes:
            self._held[key] = (lay, size)
            self._nbytes += size
            while self._nbytes > self.max_bytes:
                _, (_, dropped) = self._held.popitem(last=False)
                self._nbytes -= dropped
        return lay

    def _info(self) -> LayoutMemoInfo:
        return LayoutMemoInfo(
            self._hits, self._misses, len(self._held), self._nbytes, self.max_bytes
        )

    def _clear(self) -> None:
        self._held.clear()
        self._hits = self._misses = self._nbytes = 0


#: the process-wide layout memo behind :meth:`EngineLayout.build`, shared
#: by the fast, leap and batched engines and every fabric tenant.  768 KiB
#: holds every tree subset a q = 7 and q = 11 tenant mix places (the 21
#: distinct sets of perfbench's ``tenant-mix`` seed 1 take 742 KiB with
#: their keys) and several small plans (a whole low-depth q = 11 plan is
#: 330 KiB); a low-depth q = 19 layout alone is 1.6 MiB, so it is rebuilt
#: on each use and never held.  Each held byte stays resident: at 1 MiB the
#: six ``solo-stream`` plans, which do not fit together, kept 1.7 MB more
#: peak RSS than no memo, at 768 KiB 1.1 MB.
shared_layouts = _LayoutMemo(max_bytes=768 << 10)
