"""NumPy-vectorized cycle engine — cycle-exact vs :class:`CycleSimulator`.

The reference simulator (:mod:`repro.simulator.cycle`) walks per-flit
Python dicts every cycle; this engine advances *all* directed channels per
cycle with array operations and produces bit-identical results:

- per-(tree, phase) flit frontiers (delivered reduction / broadcast
  counters, the streaming-aggregation frontier, and the consumption
  counters that back credits) live in one flat integer state tensor that
  every per-cycle gather/scatter addresses through precomputed flat
  indices;
- streaming aggregation is a single ``np.minimum.reduceat`` over the
  concatenated children lists; credit counters are per-flow vectors
  computed from the same start-of-cycle snapshot the reference uses, so
  the two-cycle credit loop is reproduced exactly;
- round-robin arbitration is replaced by its closed form.  For
  ``link_capacity == 1`` (the common case) the winner of each channel is
  the backlogged flow with the smallest cyclic offset from the rotating
  pointer.  Keys are *unwrapped* — ``(slot + k*(slot < rr))*F + fid`` is
  strictly increasing in that offset, so no per-cycle modulo is needed —
  scattered into a transposed ``(K, C)`` padded matrix whose ``K``
  contiguous row-minima decide every channel at once.  For larger
  capacities, ``T`` complete round-robin passes hand flow ``i`` exactly
  ``min(b_i, T)`` flits and the remaining ``R`` flits go to the first
  ``R`` flows with ``b_i > T`` in cyclic order (water-filling), computed
  with vectorized offsets.  In both paths the pointer advances to one
  past the last grant, exactly like the reference loop.

Cycle-exactness (same per-channel per-cycle flit counts, same completion
cycles, same round-robin pointer trajectory, same :class:`CycleStats`) is
enforced by ``tests/test_fastcycle_equivalence.py``; the speedup is
recorded by ``benchmarks/test_bench_fastcycle.py``.

Every cycle is the same two phases — :meth:`begin_cycle` (land, budgets)
and :meth:`finish_cycle` (arbitrate, send) — whether the engine runs
solo, under telemetry, or gated by the multi-tenant fabric.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.cycle import CycleStats, EngineRun, gate_mask
from repro.simulator.faultsched import FaultSchedule
from repro.topology.graph import Graph, canonical_edge
from repro.trees.tree import SpanningTree

__all__ = ["FastCycleSimulator"]

_INF = 1 << 30
_BIG = 1 << 62  # padded-slot sentinel (empty arbitration slots)
_DEAD = 1 << 40  # ineligible-flow key offset (still < _BIG, > any real key)

# planes of the flat state tensor (each of shape (num_trees, n))
_AGG = 0  # flits fully aggregated at a node (leaves pinned at m_i)
_BCD = 1  # broadcast flits fully arrived at a node (roots pinned at _INF)
_BCM = 2  # min over a node's outgoing broadcast 'sent' counters
_UPD = 3  # flits from a node fully arrived at its parent


class FastCycleSimulator:
    """Vectorized drop-in replacement for :class:`CycleSimulator`.

    Implements the :class:`~repro.simulator.engine.CycleEngine` surface
    (``step`` / ``tree_done`` / ``done`` / ``channels`` /
    ``channel_flit_counts`` / ``run``) and is cycle-exact: every
    observable — per-channel per-cycle activity, per-tree completion
    cycles, the final :class:`CycleStats` — is identical to the reference
    engine's.
    """

    engine_name = "fast"
    #: the per-cycle step implementation (one fused NumPy path)
    kernel_impl = "numpy"

    def __init__(
        self,
        g: Graph,
        trees: Sequence[SpanningTree],
        flits_per_tree: Sequence[int],
        link_capacity: int = 1,
        buffer_size: Optional[int] = None,
        faults: Optional[FaultSchedule] = None,
        telemetry=None,
    ):
        if len(trees) != len(flits_per_tree):
            raise ValueError("flits_per_tree must align with trees")
        if link_capacity < 1:
            raise ValueError("link capacity must be >= 1 flit/cycle")
        if buffer_size is not None and buffer_size < 1:
            raise ValueError("buffer size must be >= 1 slot (or None for infinite)")
        for t in trees:
            t.validate(g)
        if faults is not None:
            faults.validate_against(g)
        self.g = g
        self.trees = list(trees)
        self.m = [int(x) for x in flits_per_tree]
        if any(x < 0 for x in self.m):
            raise ValueError("flit counts must be non-negative")
        self.capacity = link_capacity
        self.buffer_size = buffer_size
        self.faults = faults if faults else None
        self.telemetry = telemetry
        self.cycle = 0  # cycles stepped so far (the c-th step is cycle c)

        n = g.n
        self.n = n
        T = len(self.trees)
        self._T = T
        self._m_arr = np.asarray(self.m, dtype=np.int64).reshape(T)

        # ---- flows, in the exact fid order of the reference simulator
        # (the order fixes the round-robin visit sequence per channel)
        f_tree: List[int] = []
        f_src: List[int] = []
        f_dst: List[int] = []
        f_is_reduce: List[bool] = []
        channel_flows: Dict[Tuple[int, int], List[int]] = {}
        up_fid_of: Dict[Tuple[int, int], int] = {}  # (tree, child) -> reduce fid
        bc_fid_of: Dict[Tuple[int, int], int] = {}  # (tree, child) -> broadcast fid
        for ti, t in enumerate(self.trees):
            for v, p in t.parent.items():
                fid = len(f_tree)
                f_tree.append(ti); f_src.append(v); f_dst.append(p); f_is_reduce.append(True)
                channel_flows.setdefault((v, p), []).append(fid)
                up_fid_of[(ti, v)] = fid
                fid = len(f_tree)
                f_tree.append(ti); f_src.append(p); f_dst.append(v); f_is_reduce.append(False)
                channel_flows.setdefault((p, v), []).append(fid)
                bc_fid_of[(ti, v)] = fid
        self.channel_flows = channel_flows
        F = len(f_tree)
        self._F = F
        tree_arr = np.asarray(f_tree, dtype=np.int64).reshape(F)
        src_arr = np.asarray(f_src, dtype=np.int64).reshape(F)
        dst_arr = np.asarray(f_dst, dtype=np.int64).reshape(F)
        is_reduce = np.asarray(f_is_reduce, dtype=bool).reshape(F)
        roots = np.asarray([t.root for t in self.trees], dtype=np.int64)
        self._roots = roots
        # per-flow metadata kept for telemetry (queue/phase aggregation)
        self._flow_tree = tree_arr
        self._flow_dst = dst_arr
        self._flow_is_reduce = is_reduce

        self.sent = np.zeros(F, dtype=np.int64)

        # ---- flat state tensor and per-flow flat indices
        self._state = np.zeros((4, T, n), dtype=np.int64)
        self._flat = self._state.reshape(-1)
        plane = T * n

        def fidx(p: int, ti: np.ndarray, v: np.ndarray) -> np.ndarray:
            return p * plane + ti * n + v

        if T:
            # leaves of the aggregation frontier pin at m_i forever
            self._state[_AGG] = self._m_arr[:, None]
            # roots never receive broadcast traffic; pinning them at _INF
            # keeps them out of the delivered-floor row-min
            self._state[_BCD][np.arange(T), roots] = _INF

        # availability of the flow's next flit at its source:
        #   reduce flow        -> aggregation frontier at src
        #   broadcast from root-> aggregation frontier at the root
        #   broadcast interior -> broadcast-delivered frontier at src
        avail_plane = np.where(is_reduce | (src_arr == roots[tree_arr]), _AGG, _BCD)
        self._avail_idx = fidx(avail_plane, tree_arr, src_arr)
        # where a landed flit is recorded (one-cycle hop latency):
        #   reduce flow    -> up-delivered at src
        #   broadcast flow -> broadcast-delivered at dst
        self._land_idx = np.where(
            is_reduce, fidx(_UPD, tree_arr, src_arr), fidx(_BCD, tree_arr, dst_arr)
        )

        # consumption counter per flow (credit bookkeeping):
        #   reduce into the root    -> min over the root's broadcast 'sent'
        #   reduce into an interior -> that node's own up-flow 'sent'
        #   broadcast into a leaf   -> broadcast-delivered at the leaf
        #   broadcast into interior -> min over its broadcast 'sent'
        has_kids = {(ti, v) for ti, t in enumerate(self.trees) for v in t.parent.values()}
        cons_state = np.empty(F, dtype=np.int64)
        cons_from_sent = np.zeros(F, dtype=bool)
        cons_sent_fid = np.zeros(F, dtype=np.int64)
        for fid in range(F):
            ti, d = f_tree[fid], f_dst[fid]
            if f_is_reduce[fid]:
                if d == self.trees[ti].root:
                    cons_state[fid] = fidx(_BCM, np.int64(ti), np.int64(d))
                else:
                    cons_from_sent[fid] = True
                    cons_sent_fid[fid] = up_fid_of[(ti, d)]
                    cons_state[fid] = 0
            else:
                cons_state[fid] = fidx(
                    _BCD if (ti, d) not in has_kids else _BCM, np.int64(ti), np.int64(d)
                )
        self._cons_state_idx = cons_state
        self._cons_from_sent = cons_from_sent
        self._cons_sent_fid = cons_sent_fid

        # ---- streaming-aggregation structure: children grouped per
        # internal (tree, node), one minimum.reduceat per cycle
        grp_idx: List[int] = []
        offsets: List[int] = []
        child_up_idx: List[int] = []
        child_bcfid: List[int] = []
        for ti, t in enumerate(self.trees):
            for v in range(n):
                kids = t.children(v)
                if not kids:
                    continue
                grp_idx.append(_AGG * plane + ti * n + v)
                offsets.append(len(child_up_idx))
                for c in kids:
                    child_up_idx.append(_UPD * plane + ti * n + c)
                    child_bcfid.append(bc_fid_of[(ti, c)])
        self._grp_agg_idx = np.asarray(grp_idx, dtype=np.int64)
        self._grp_bcm_idx = self._grp_agg_idx + (_BCM - _AGG) * plane
        self._grp_off = np.asarray(offsets, dtype=np.int64)
        self._child_up_idx = np.asarray(child_up_idx, dtype=np.int64)
        self._child_bcfid = np.asarray(child_bcfid, dtype=np.int64)
        self._agg_root_idx = fidx(
            np.full(T, _AGG, dtype=np.int64), np.arange(T, dtype=np.int64), roots
        ) if T else np.zeros(0, dtype=np.int64)
        # consumption-group map: flow -> the minimum.reduceat group whose
        # min is the flow's consumed counter (-1 for flows whose consumed
        # counter is a raw 'sent'/BCD value). Shared by the telemetry
        # queue probe here and the leap verifier's credit extrapolation.
        bcm_pos = {int(ix): gi for gi, ix in enumerate(self._grp_bcm_idx)}
        self._cons_grp = np.asarray(
            [
                -1 if cons_from_sent[f] else bcm_pos.get(int(ix), -1)
                for f, ix in enumerate(cons_state)
            ],
            dtype=np.int64,
        ) if F else np.zeros(0, dtype=np.int64)

        # ---- per-channel arbitration structures
        self._chs: List[Tuple[int, int]] = list(channel_flows)
        C = len(self._chs)
        self._C = C
        self._ch_k = np.ones(C, dtype=np.int64)
        # flows grouped by channel (for the capacity-1 row-minima path)
        gr_fid: List[int] = []
        gr_slot: List[int] = []
        gr_ch: List[int] = []
        for ci, ch in enumerate(self._chs):
            fids = channel_flows[ch]
            self._ch_k[ci] = len(fids)
            for slot, fid in enumerate(fids):
                gr_fid.append(fid)
                gr_slot.append(slot)
                gr_ch.append(ci)
        self._gr_fid = np.asarray(gr_fid, dtype=np.int64)
        self._gr_slot = np.asarray(gr_slot, dtype=np.int64)
        self._gr_ch = np.asarray(gr_ch, dtype=np.int64)
        # flow -> channel index (each flow lives on exactly one channel);
        # the two-phase stepping API gates whole channels through this map
        self._flow_ch = np.zeros(F, dtype=np.int64)
        if F:
            self._flow_ch[self._gr_fid] = self._gr_ch
        K = int(self._ch_k.max()) if C else 1
        # capacity-1 arbitration: unwrapped round-robin keys
        # key = (slot + k*(slot < rr))*F + fid, scattered into a transposed
        # padded (K, C) matrix (row j holds every channel's slot-j key)
        self._key0 = self._gr_slot * F + self._gr_fid
        self._key_wrap = self._ch_k[self._gr_ch] * F
        self._padT = np.full((K, C), _BIG, dtype=np.int64)
        self._pad_idx = self._gr_slot * C + self._gr_ch
        # padded (channel x slot) matrix for the general-capacity path
        self._ch_fid = np.zeros((C, K), dtype=np.int64)
        self._ch_valid = np.zeros((C, K), dtype=bool)
        for ci, ch in enumerate(self._chs):
            fids = channel_flows[ch]
            self._ch_fid[ci, : len(fids)] = fids
            self._ch_valid[ci, : len(fids)] = True
        self._pos = np.arange(K, dtype=np.int64)[None, :]
        self._flat_fids = self._ch_fid[self._ch_valid]
        self._rr = np.zeros(C, dtype=np.int64)
        self._ch_cum = np.zeros(C, dtype=np.int64)

        # fault bookkeeping: per-flow undirected link keys, plus the dead
        # set / budget mask of the current fault segment (updated lazily —
        # the set of down links only changes at schedule event cycles)
        self._flow_edges = [
            canonical_edge(s, d) for s, d in zip(f_src, f_dst)
        ]
        self._dead_now = frozenset()
        self._dead_mask: Optional[np.ndarray] = None

        # in-flight flits: (flow ids, counts) landing at the next boundary
        self._pending_fids = np.zeros(0, dtype=np.int64)
        self._pending_cnt = np.zeros(0, dtype=np.int64)
        self.flits_moved = 0
        self._refresh_agg()

        # per-tree landed-flit totals: a tree is done exactly when every
        # one of its flows has delivered m_i flits (each is bounded by
        # m_i, so the landed total hits m_i * #flows iff all are
        # complete) — the done check is one O(T) compare
        flow_counts = np.bincount(tree_arr, minlength=T).astype(np.int64)
        self._done_target = self._m_arr * flow_counts
        self._done_cnt = np.zeros(T, dtype=np.int64)

    # ------------------------------------------------------------ frontiers

    def _refresh_agg(self) -> None:
        if len(self._grp_off):
            self._flat[self._grp_agg_idx] = np.minimum.reduceat(
                self._flat[self._child_up_idx], self._grp_off
            )

    def _done_mask(self) -> np.ndarray:
        return self._done_cnt >= self._done_target

    def _sync_done(self) -> None:
        """Rebuild the per-tree landed totals from the state tensor (after
        a leap moved the state without landing events).  Every flow has a
        unique landing cell, so this is one weighted bincount."""
        self._done_cnt = np.zeros(self._T, dtype=np.int64)
        np.add.at(self._done_cnt, self._flow_tree, self._flat[self._land_idx])

    # ------------------------------------------------------------- dynamics

    def _refresh_fault_mask(self) -> None:
        """Recompute the dead-flow budget mask when the schedule's active
        segment changed (links died or revived at this cycle)."""
        dead = self.faults.down_edges_at(self.cycle)
        if dead != self._dead_now:
            self._dead_now = dead
            self._dead_mask = (
                np.asarray([e in dead for e in self._flow_edges], dtype=bool)
                if dead
                else None
            )

    def step(self) -> int:
        """Advance one cycle; returns the number of flits transferred."""
        return self.finish_cycle(self.begin_cycle())

    # ------------------------------------------------- two-phase stepping

    def begin_cycle(self) -> Optional[np.ndarray]:
        """Phases 1–2 of one cycle: advance the clock, land last cycle's
        in-flight flits, and compute the per-flow budget vector from the
        start-of-cycle snapshot.

        Together with :meth:`finish_cycle` this is the two-phase stepping
        API the multi-tenant fabric (:mod:`repro.tenancy.fabric`) drives:
        an external arbiter inspects the budgets of *every* tenant engine
        mid-cycle, decides which shared channels each may use, and then
        completes each engine's cycle with the losers gated.  ``step()``
        is exactly ``finish_cycle(begin_cycle())``, so ungated two-phase
        stepping is bit-identical to the plain path by construction.
        Returns ``None`` when the engine has no flows (the fabric treats
        that as an all-zero budget).
        """
        self.cycle += 1
        if self.faults is not None:
            self._refresh_fault_mask()
        # 1. land last cycle's in-flight flits (one-cycle hop latency)
        pend = self._pending_fids
        if len(pend):
            self._flat[self._land_idx[pend]] += self._pending_cnt
            np.add.at(self._done_cnt, self._flow_tree[pend], self._pending_cnt)
            self._pending_fids = np.zeros(0, dtype=np.int64)
        if self._F == 0:
            return None
        self._refresh_agg()

        # 2. per-flow budgets from the start-of-cycle snapshot
        budget = self._flat[self._avail_idx] - self.sent
        if self.buffer_size is not None:
            snap = self.sent
            self._flat[self._grp_bcm_idx] = np.minimum.reduceat(
                snap[self._child_bcfid], self._grp_off
            )
            cons = np.where(
                self._cons_from_sent,
                snap[self._cons_sent_fid],
                self._flat[self._cons_state_idx],
            )
            np.minimum(budget, self.buffer_size - (snap - cons), out=budget)
        if self._dead_mask is not None:
            # flows on down links arbitrate with zero budget; availability
            # and credit state keep evolving underneath
            budget[self._dead_mask] = 0
        return budget

    def finish_cycle(
        self,
        budget: Optional[np.ndarray],
        blocked: Optional[np.ndarray] = None,
    ) -> int:
        """Phase 3 of one cycle: arbitrate and send against ``budget`` (a
        :meth:`begin_cycle` result).  ``blocked`` is ``None`` or a boolean
        mask over :meth:`channels` (length C); the flows of a masked
        channel arbitrate with zero budget this cycle — identical
        semantics to a down link: the channel grants nothing and its
        round-robin pointer holds still.  Returns the number of flits
        transferred."""
        if budget is None:
            return 0
        mask = gate_mask(blocked, self._C)
        if mask is not None:
            budget = np.where(mask[self._flow_ch], 0, budget)
        if self.capacity != 1:
            return self._arbitrate_general(budget)

        # 3. capacity-1 round robin: unwrapped key per backlogged flow,
        # transposed padded scatter, K row-minima, arithmetic rr update
        F = self._F
        key = self._key0 + self._key_wrap * (self._gr_slot < self._rr[self._gr_ch])
        key += _DEAD * (budget[self._gr_fid] <= 0)
        padT = self._padT
        padT.fill(_BIG)
        padT.reshape(-1)[self._pad_idx] = key
        best = padT[0]
        if len(padT) > 1:
            best = np.minimum(padT[0], padT[1])
            for j in range(2, len(padT)):
                np.minimum(best, padT[j], out=best)
        active = best < _DEAD
        moved = int(active.sum())
        if not moved:
            return 0
        bw = best[active]
        win = bw % F
        newrr = bw // F + 1
        k_act = self._ch_k[active]
        newrr -= k_act * (newrr >= k_act)
        self._rr[active] = newrr
        self.sent[win] += 1
        self._ch_cum += active
        self._pending_fids = win
        self._pending_cnt = np.ones(moved, dtype=np.int64)
        self.flits_moved += moved
        return moved

    def channel_demand(self, budget: Optional[np.ndarray]) -> np.ndarray:
        """Per-channel count of flows with a positive budget (aligned with
        :meth:`channels`) — what the fabric's arbitration policies read to
        stay work-conserving."""
        out = np.zeros(self._C, dtype=np.int64)
        if budget is not None and self._F:
            np.add.at(out, self._gr_ch, (budget[self._gr_fid] > 0).astype(np.int64))
        return out

    def _arbitrate_general(self, budget: np.ndarray) -> int:
        """Water-filling closed form of the one-flit-per-visit round robin
        for arbitrary capacity."""
        B = np.where(self._ch_valid, budget[self._ch_fid], 0)
        np.maximum(B, 0, out=B)
        tot = B.sum(axis=1)
        S = np.minimum(tot, self.capacity)

        T_arr = np.zeros(self._C, dtype=np.int64)
        base = np.zeros(self._C, dtype=np.int64)
        for t in range(1, self.capacity + 1):
            s = np.minimum(B, t).sum(axis=1)
            ok = s <= S
            T_arr[ok] = t
            base[ok] = s[ok]
        R = S - base

        grants = np.minimum(B, T_arr[:, None])
        jpos = (self._pos - self._rr[:, None]) % self._ch_k[:, None]
        want_extra = (B > T_arr[:, None]) & self._ch_valid
        if want_extra.any():
            # rank of each candidate among candidates, in cyclic order
            rank = (want_extra[:, None, :] & (jpos[:, None, :] < jpos[:, :, None])).sum(axis=2)
            extra = want_extra & (rank < R[:, None])
            grants += extra
        else:
            extra = want_extra

        # rotating pointer: one past the last grant of the cycle
        has_extra = extra.any(axis=1)
        j_extra = np.where(extra, jpos, -1).max(axis=1, initial=-1)
        last_pass = grants.max(axis=1, initial=0)
        j_pass = np.where(
            (B >= last_pass[:, None]) & self._ch_valid & (last_pass[:, None] > 0),
            jpos,
            -1,
        ).max(axis=1, initial=-1)
        j_last = np.where(has_extra, j_extra, j_pass)
        self._rr = np.where(S > 0, (self._rr + j_last + 1) % self._ch_k, self._rr)

        moved = int(S.sum())
        if moved:
            flat = grants[self._ch_valid]
            nz = flat > 0
            self._pending_fids = self._flat_fids[nz]
            self._pending_cnt = flat[nz]
            self.sent[self._pending_fids] += self._pending_cnt
            self._ch_cum += grants.sum(axis=1)
            self.flits_moved += moved
        return moved

    # ----------------------------------------------------- engine protocol

    def tree_done(self, i: int) -> bool:
        return bool(self._done_mask()[i])

    def done(self) -> bool:
        return bool(self._done_mask().all())

    def channels(self) -> List[Tuple[int, int]]:
        return list(self._chs)

    def channel_flit_counts(self) -> List[int]:
        return [int(x) for x in self._ch_cum]

    def has_in_flight(self) -> bool:
        """Any flits granted last cycle but not yet landed?"""
        return bool(len(self._pending_fids))

    def delivered_floor(self) -> List[int]:
        """Per-tree fully-delivered (landed broadcast) flit floor — the
        complete prefix a recovery need not redo (reference semantics)."""
        if not self._T:
            return []
        floor = self._state[_BCD].min(axis=1)  # roots pinned at _INF
        return [int(min(f, mi)) for f, mi in zip(floor, self._m_arr)]

    def reduced_at_root(self) -> List[int]:
        """Per-tree flits fully aggregated at the root (landed only)."""
        if not self._T:
            return []
        agg = self._flat[self._agg_root_idx]
        return [int(min(a, mi)) for a, mi in zip(agg, self._m_arr)]

    def _queues(self, flat: np.ndarray, sent: np.ndarray) -> np.ndarray:
        """Per-router receiver-side queue occupancy of the state
        ``(flat, sent)``: flits sent toward each router minus the
        consumed counters of the post-step receiver-side view (reference
        ``_consumed_now`` semantics, vectorized).  Broadcast-min groups
        are computed into a local — never into the BCM plane, whose
        step-time update pattern the leap licensing depends on."""
        if len(self._grp_off):
            bcm = np.minimum.reduceat(sent[self._child_bcfid], self._grp_off)
        else:
            bcm = np.zeros(0, dtype=np.int64)
        consumed = np.where(
            self._cons_from_sent,
            sent[self._cons_sent_fid],
            np.where(
                self._cons_grp >= 0,
                bcm[np.maximum(self._cons_grp, 0)] if bcm.size else np.int64(0),
                flat[self._cons_state_idx],
            ),
        )
        out = np.zeros(self.n, dtype=np.int64)
        np.add.at(out, self._flow_dst, sent - consumed)
        return out

    def queue_occupancy(self) -> List[int]:
        """Per-router receiver-side queue occupancy (reference semantics,
        one bincount)."""
        return [int(x) for x in self._queues(self._flat, self.sent)]

    def phase_flit_totals(self) -> Tuple[List[int], List[int]]:
        """Cumulative (reduce, broadcast) flit-hops per tree."""
        red = np.zeros(self._T, dtype=np.int64)
        bc = np.zeros(self._T, dtype=np.int64)
        if self._F:
            up = self._flow_is_reduce
            np.add.at(red, self._flow_tree[up], self.sent[up])
            np.add.at(bc, self._flow_tree[~up], self.sent[~up])
        return [int(x) for x in red], [int(x) for x in bc]

    def run(self, max_cycles: Optional[int] = None) -> CycleStats:
        """Run to completion of all trees under the :class:`EngineRun`
        contract (reference stall, guard and stats semantics)."""
        run = EngineRun(self, max_cycles)
        while not run.finished:
            run.tick(self.step())
        return run.stats()
