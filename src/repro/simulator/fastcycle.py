"""NumPy-vectorized cycle engine — cycle-exact vs :class:`CycleSimulator`.

The reference simulator (:mod:`repro.simulator.cycle`) walks per-flit
Python dicts every cycle; this engine advances *all* directed channels per
cycle with array operations and produces bit-identical results:

- per-(tree, phase) flit frontiers (delivered reduction / broadcast
  counters, the streaming-aggregation frontier, and the consumption
  counters that back credits) live in one flat integer state tensor that
  every per-cycle gather/scatter addresses through the flat indices of an
  :class:`~repro.simulator.engine_layout.EngineLayout` (whose docstring
  states the flow-order contract the round robin depends on);
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
  ``R`` flows with ``b_i > T`` in cyclic order (water-filling):
  :func:`water_fill`, written once over a trailing lane axis and shared
  with the batched lane evaluator.  In both paths the pointer advances
  to one past the last grant, exactly like the reference loop.

Cycle-exactness (same per-channel per-cycle flit counts, same completion
cycles, same round-robin pointer trajectory, same :class:`CycleStats`) is
enforced by ``tests/test_fastcycle_equivalence.py``; the speedup is
recorded by ``benchmarks/test_bench_fastcycle.py``.

Every cycle is the same two phases — :meth:`begin_cycle` (land, budgets)
and :meth:`finish_cycle` (arbitrate, send) — whether the engine runs
solo, under telemetry, or gated by the multi-tenant fabric.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.cycle import CycleStats, EngineRun, check_engine_args, gate_mask
from repro.simulator.engine_layout import AGG as _AGG
from repro.simulator.engine_layout import BCD as _BCD
from repro.simulator.engine_layout import EngineLayout
from repro.simulator.faultsched import FaultSchedule
from repro.topology.graph import Graph
from repro.trees.tree import SpanningTree

__all__ = ["FastCycleSimulator", "water_fill"]

_INF = 1 << 62  # root pin: above any flit count the int64 headroom check admits
_BIG = 1 << 62  # padded-slot sentinel (empty arbitration slots)
_DEAD = 1 << 40  # ineligible-flow key offset (still < _BIG, > any real key)


def water_fill(
    lay: EngineLayout, budget: np.ndarray, capacity: np.ndarray, rr: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Closed form of the one-flit-per-visit round robin at any capacity.

    Arrays carry a trailing lane axis of length L: ``budget`` is (F, L)
    per-flow budgets, ``capacity`` (L,) link capacities and ``rr`` (C, L)
    round-robin pointers.  On each channel, ``T`` complete passes hand
    flow ``i`` exactly ``min(b_i, T)`` flits and the remaining ``R`` go to
    the first ``R`` flows with ``b_i > T`` in cyclic order from the
    pointer; the pointer moves one past the cycle's last grant.  Returns
    the (C, K, L) grants in :attr:`EngineLayout.ch_fid` slots and the new
    pointers (``rr``'s dtype).
    """
    valid = lay.ch_valid[:, :, None]
    B = np.where(valid, budget[lay.ch_fid], 0).astype(np.int64, copy=False)
    np.maximum(B, 0, out=B)
    cap = capacity.astype(np.int64, copy=False)
    S = np.minimum(B.sum(axis=1), cap)  # (C, L) flits sent this cycle

    # T = the most complete passes that fit in S.  Pass p costs at least
    # p flits unless every budget is below p, and passes past the largest
    # budget grant nothing more, so the search can stop at max(S)
    T_arr = np.zeros_like(S)
    base = np.zeros_like(S)
    for p in range(1, int(S.max(initial=0)) + 1):
        s = np.minimum(B, p).sum(axis=1)
        ok = (s <= S) & (p <= cap)
        T_arr[ok] = p
        base[ok] = s[ok]
    R = S - base

    grants = np.minimum(B, T_arr[:, None, :])
    pos = np.arange(B.shape[1]).reshape(1, -1, 1)
    jpos = (pos - rr[:, None, :]) % lay.ch_k[:, None, None]
    want_extra = (B > T_arr[:, None, :]) & valid
    if want_extra.any():
        # rank of each candidate among candidates, in cyclic order
        rank = (
            want_extra[:, None] & (jpos[:, None] < jpos[:, :, None])
        ).sum(axis=2)
        extra = want_extra & (rank < R[:, None, :])
        grants += extra
    else:
        extra = want_extra

    # rotating pointer: one past the last grant of the cycle
    has_extra = extra.any(axis=1)
    j_extra = np.where(extra, jpos, -1).max(axis=1, initial=-1)
    last_pass = grants.max(axis=1, initial=0)[:, None, :]
    j_pass = np.where(
        (B >= last_pass) & valid & (last_pass > 0), jpos, -1
    ).max(axis=1, initial=-1)
    j_last = np.where(has_extra, j_extra, j_pass)
    new_rr = np.where(S > 0, (rr + j_last + 1) % lay.ch_k[:, None], rr)
    return grants, new_rr.astype(rr.dtype, copy=False)


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
        self.m, self.capacity, self.buffer_size = check_engine_args(
            g, trees, flits_per_tree, link_capacity, buffer_size, faults
        )
        self.g = g
        self.trees = list(trees)
        self.faults = faults if faults else None
        self.telemetry = telemetry
        self.cycle = 0  # cycles stepped so far (the c-th step is cycle c)

        n = g.n
        self.n = n
        lay = EngineLayout.build(n, self.trees)
        self._lay = lay
        T = self._T = lay.num_trees
        F = self._F = lay.num_flows
        C = self._C = lay.num_channels
        self._m_arr = np.asarray(self.m, dtype=np.int64).reshape(T)
        self.sent = np.zeros(F, dtype=np.int64)

        # ---- flat state tensor, addressed through the layout's indices
        self._state = np.zeros((4, T, n), dtype=np.int64)
        self._flat = self._state.reshape(-1)
        if T:
            # leaves of the aggregation frontier pin at m_i forever
            self._state[_AGG] = self._m_arr[:, None]
            # roots never receive broadcast traffic; pinning them at _INF
            # keeps them out of the delivered-floor row-min
            self._state[_BCD][np.arange(T), lay.roots] = _INF

        # ---- per-channel arbitration state
        K = int(lay.ch_k.max()) if C else 1
        # capacity-1 arbitration: unwrapped round-robin keys
        # key = (slot + k*(slot < rr))*F + fid, scattered into a transposed
        # padded (K, C) matrix (row j holds every channel's slot-j key)
        self._key0 = lay.gr_slot * F + lay.gr_fid
        self._key_wrap = lay.ch_k[lay.gr_ch] * F
        self._padT = np.full((K, C), _BIG, dtype=np.int64)
        self._pad_idx = lay.gr_slot * C + lay.gr_ch
        self._rr = np.zeros(C, dtype=np.int64)
        self._ch_cum = np.zeros(C, dtype=np.int64)

        # dead-link set / budget mask of the current fault segment
        # (updated lazily: the set of down links only changes at schedule
        # event cycles)
        self._dead_now: FrozenSet[Tuple[int, int]] = frozenset()
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
        flow_counts = np.bincount(lay.flow_tree, minlength=T).astype(np.int64)
        self._done_target = self._m_arr * flow_counts
        self._done_cnt = np.zeros(T, dtype=np.int64)

    # ------------------------------------------------------------ frontiers

    def _refresh_agg(self) -> None:
        lay = self._lay
        if len(lay.grp_off):
            self._flat[lay.grp_agg_idx] = np.minimum.reduceat(
                self._flat[lay.child_up_idx], lay.grp_off
            )

    def _done_mask(self) -> np.ndarray:
        return self._done_cnt >= self._done_target

    def _sync_done(self) -> None:
        """Rebuild the per-tree landed totals from the state tensor (after
        a leap moved the state without landing events).  Every flow has a
        unique landing cell, so this is one weighted bincount."""
        lay = self._lay
        self._done_cnt = np.zeros(self._T, dtype=np.int64)
        np.add.at(self._done_cnt, lay.flow_tree, self._flat[lay.land_idx])

    # ------------------------------------------------------------- dynamics

    def _refresh_fault_mask(self) -> None:
        """Recompute the dead-flow budget mask when the schedule's active
        segment changed (links died or revived at this cycle)."""
        dead = self.faults.down_edges_at(self.cycle)
        if dead != self._dead_now:
            self._dead_now = dead
            self._dead_mask = self._lay.flows_on(dead) if dead else None

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
        lay = self._lay
        # 1. land last cycle's in-flight flits (one-cycle hop latency)
        pend = self._pending_fids
        if len(pend):
            self._flat[lay.land_idx[pend]] += self._pending_cnt
            np.add.at(self._done_cnt, lay.flow_tree[pend], self._pending_cnt)
            self._pending_fids = np.zeros(0, dtype=np.int64)
        if self._F == 0:
            return None
        self._refresh_agg()

        # 2. per-flow budgets from the start-of-cycle snapshot
        budget = self._flat[lay.avail_idx] - self.sent
        if self.buffer_size is not None:
            snap = self.sent
            self._flat[lay.grp_bcm_idx] = np.minimum.reduceat(
                snap[lay.child_bcfid], lay.grp_off
            )
            cons = np.where(
                lay.cons_from_sent,
                snap[lay.cons_sent_fid],
                self._flat[lay.cons_state_idx],
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
            budget = np.where(mask[self._lay.flow_ch], 0, budget)
        if self.capacity != 1:
            return self._arbitrate_general(budget)

        # 3. capacity-1 round robin: unwrapped key per backlogged flow,
        # transposed padded scatter, K row-minima, arithmetic rr update
        F = self._F
        lay = self._lay
        key = self._key0 + self._key_wrap * (lay.gr_slot < self._rr[lay.gr_ch])
        key += _DEAD * (budget[lay.gr_fid] <= 0)
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
        k_act = lay.ch_k[active]
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
        lay = self._lay
        if budget is not None and self._F:
            np.add.at(out, lay.gr_ch, (budget[lay.gr_fid] > 0).astype(np.int64))
        return out

    def _arbitrate_general(self, budget: np.ndarray) -> int:
        """Capacity > 1: :func:`water_fill` with one lane."""
        lay = self._lay
        grants, rr = water_fill(
            lay, budget[:, None], np.asarray([self.capacity]), self._rr[:, None]
        )
        self._rr = rr[:, 0]
        flat = grants[lay.ch_valid][:, 0]  # (F,) in gr_fid order
        moved = int(flat.sum())
        if moved:
            nz = flat > 0
            self._pending_fids = lay.gr_fid[nz]
            self._pending_cnt = flat[nz]
            self.sent[self._pending_fids] += self._pending_cnt
            self._ch_cum += grants[:, :, 0].sum(axis=1)
            self.flits_moved += moved
        return moved

    # ----------------------------------------------------- engine protocol

    def tree_done(self, i: int) -> bool:
        return bool(self._done_mask()[i])

    def done(self) -> bool:
        return bool(self._done_mask().all())

    def channels(self) -> List[Tuple[int, int]]:
        return self._lay.channels()

    def channel_flit_counts(self) -> List[int]:
        return self._ch_cum.tolist()

    def channel_flit_array(self) -> np.ndarray:
        """:meth:`channel_flit_counts` as a fresh int64 array, for
        observers that do arithmetic on it."""
        return self._ch_cum.copy()

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
        agg = self._flat[self._lay.agg_root_idx]
        return [int(min(a, mi)) for a, mi in zip(agg, self._m_arr)]

    def _queues(self, flat: np.ndarray, sent: np.ndarray) -> np.ndarray:
        """Per-router receiver-side queue occupancy of the state
        ``(flat, sent)``: flits sent toward each router minus the
        consumed counters of the post-step receiver-side view (reference
        ``_consumed_now`` semantics, vectorized).  Broadcast-min groups
        are computed into a local — never into the BCM plane, whose
        step-time update pattern the leap licensing depends on."""
        lay = self._lay
        if len(lay.grp_off):
            bcm = np.minimum.reduceat(sent[lay.child_bcfid], lay.grp_off)
        else:
            bcm = np.zeros(0, dtype=np.int64)
        consumed = np.where(
            lay.cons_from_sent,
            sent[lay.cons_sent_fid],
            np.where(
                lay.cons_grp >= 0,
                bcm[np.maximum(lay.cons_grp, 0)] if bcm.size else np.int64(0),
                flat[lay.cons_state_idx],
            ),
        )
        out = np.zeros(self.n, dtype=np.int64)
        np.add.at(out, lay.flow_dst, sent - consumed)
        return out

    def queue_occupancy(self) -> List[int]:
        """Per-router receiver-side queue occupancy (reference semantics,
        one bincount)."""
        return self._queues(self._flat, self.sent).tolist()

    def phase_flit_totals(self) -> Tuple[List[int], List[int]]:
        """Cumulative (reduce, broadcast) flit-hops per tree."""
        red = np.zeros(self._T, dtype=np.int64)
        bc = np.zeros(self._T, dtype=np.int64)
        if self._F:
            up = self._lay.flow_is_reduce
            tree = self._lay.flow_tree
            np.add.at(red, tree[up], self.sent[up])
            np.add.at(bc, tree[~up], self.sent[~up])
        return [int(x) for x in red], [int(x) for x in bc]

    def run(self, max_cycles: Optional[int] = None) -> CycleStats:
        """Run to completion of all trees under the :class:`EngineRun`
        contract (reference stall, guard and stats semantics)."""
        run = EngineRun(self, max_cycles)
        while not run.finished:
            run.tick(self.step())
        return run.stats()
