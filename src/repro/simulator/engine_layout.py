"""Index layout of the vectorized cycle engines, built with array operations.

The fast, leap and batched engines keep one counter per flow, ``sent``
(plus the flits granted last cycle, still in flight), and derive every
other frontier from it through flow-space gathers: a flow's availability
is ``concat(sent, agg, m)[avail_src]`` with ``agg`` the streaming
aggregation mins, and its receiver's consumed counter is
``concat(sent, bcm)[cons_idx]`` with ``bcm`` the broadcast mins.
:class:`EngineLayout` holds every one of those index maps for one
``(graph, trees)`` embedding; :meth:`EngineLayout.build` derives them from
the trees' parent arrays with sorts, scatters and gathers — no per-flow
Python loop.

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

from dataclasses import dataclass
from functools import lru_cache
from typing import AbstractSet, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.trees.tree import SpanningTree

__all__ = ["EngineLayout", "GroupMembers"]


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
    arrays are int64 (bool for masks) and treated as read-only by the
    engines.

    Two groups of maps exist only to make the per-cycle step cheaper,
    and :meth:`build` derives both with array operations: each group's
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
    def build(cls, n: int, trees: Sequence[SpanningTree]) -> "EngineLayout":
        """Derive the layout of ``trees`` embedded in an ``n``-node graph."""
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
        flow_edge_key = np.minimum(flow_src, flow_dst) * n + np.maximum(
            flow_src, flow_dst
        )

        # ---- aggregation groups: edges sorted by (tree, parent, child);
        # each run of one (tree, parent) is a group
        order = np.lexsort((child, par, etree))
        s_tree, s_par = etree[order], par[order]
        first = np.ones(E, dtype=bool)
        first[1:] = (s_tree[1:] != s_tree[:-1]) | (s_par[1:] != s_par[:-1])
        grp_off = np.flatnonzero(first)
        G = len(grp_off)
        sizes = np.diff(np.append(grp_off, E))
        is_multi = sizes > 1
        multi_grp = np.flatnonzero(is_multi)
        multi_off = np.cumsum(sizes[is_multi]) - sizes[is_multi]
        # sorted-edge positions of the multi-child groups' members
        multi_pos = np.flatnonzero(np.repeat(is_multi, sizes))
        # per-(tree, node) maps: group id (-1 for leaves), reduce fid
        grp_of = np.full((T, n), -1, dtype=np.int64)
        grp_of[s_tree[first], s_par[first]] = np.arange(G, dtype=np.int64)
        up_fid = np.zeros((T, n), dtype=np.int64)
        up_fid[etree, child] = np.arange(0, F, 2, dtype=np.int64)

        # ---- availability of a flow's next flit at its source, in
        # concat(sent, agg, m):
        #   reduce out of a leaf    -> the tree's m_i
        #   reduce out of interior  -> aggregation min at src
        #   broadcast out of root   -> aggregation min at the root
        #   broadcast out of inner  -> 'sent' of the broadcast into src
        src_grp = grp_of[flow_tree, flow_src]
        src_is_agg = flow_is_reduce | (flow_src == roots[flow_tree])
        avail_src = np.where(
            src_is_agg,
            np.where(src_grp >= 0, F + src_grp, F + G + flow_tree),
            up_fid[flow_tree, flow_src] + 1,
        )

        # ---- consumption counter per flow (credit bookkeeping), in
        # concat(sent, bcm):
        #   reduce into the root    -> min over the root's broadcast 'sent'
        #   reduce into an interior -> that node's own up-flow 'sent'
        #   broadcast into a leaf   -> its own 'sent' (landed on arrival)
        #   broadcast into interior -> min over its broadcast 'sent'
        dst_grp = grp_of[flow_tree, flow_dst]
        cons_from_sent = flow_is_reduce & (flow_dst != roots[flow_tree])
        cons_idx = np.where(
            cons_from_sent,
            up_fid[flow_tree, flow_dst],
            np.where(dst_grp >= 0, F + dst_grp, np.arange(F, dtype=np.int64)),
        )
        bc_into_leaf = np.flatnonzero(~flow_is_reduce & (dst_grp < 0))

        # ---- channels ranked by first appearance along the fids; slots
        # by a stable sort, so each channel lists its flows in fid order
        ch_key = flow_src * n + flow_dst
        uniq, first_fid, inverse = np.unique(
            ch_key, return_index=True, return_inverse=True
        )
        rank = np.argsort(first_fid)
        C = len(uniq)
        ch_of_uniq = np.empty(C, dtype=np.int64)
        ch_of_uniq[rank] = np.arange(C, dtype=np.int64)
        flow_ch = ch_of_uniq[inverse.reshape(-1)]
        ch_key = uniq[rank]
        ch_k = np.bincount(flow_ch, minlength=C).astype(np.int64)
        gr_fid = np.argsort(flow_ch, kind="stable").astype(np.int64)
        gr_ch = flow_ch[gr_fid]
        gr_slot = np.arange(F, dtype=np.int64) - (np.cumsum(ch_k) - ch_k)[gr_ch]
        K = int(ch_k.max()) if C else 1
        slot_fid = np.full((K, C), F, dtype=np.int64)
        slot_fid[gr_slot, gr_ch] = gr_fid
        flow_slot = np.empty(F, dtype=np.int64)
        flow_slot[gr_fid] = gr_slot
        flow_prev = slot_fid[(flow_slot - 1) % ch_k[flow_ch], flow_ch]

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
            root_grp=grp_of[np.arange(T), roots],
            ch_src=ch_key // n,
            ch_dst=ch_key % n,
            ch_k=ch_k,
            flow_ch=flow_ch,
            slot_fid=slot_fid,
            flow_slot=flow_slot,
            flow_prev=flow_prev,
            flow_shared=ch_k[flow_ch] == 2,
            rr_hops=K - 1,
        )
