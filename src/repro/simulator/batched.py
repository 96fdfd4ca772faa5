"""Batched tensor engine — B independent runs in one ``(B, 4, T, n)`` state.

Sweep grids and fault Monte Carlo simulate the *same* topology and tree
plan thousands of times, varying only the scalar knobs (message split,
buffer size, link capacity) and the fault schedule.  Running those lanes
one :class:`~repro.simulator.fastcycle.FastCycleSimulator` at a time pays
the full per-cycle Python/NumPy dispatch overhead B times; this engine
stacks the lanes along a batch axis and advances *all* of them per cycle:

- the fast engine's flat ``(4, T, n)`` state tensor grows a lane axis;
  every per-flow gather/scatter reuses the fast engine's precomputed
  flat indices (borrowed from a zero-flit template
  :class:`FastCycleSimulator`, so flow order — and therefore the
  round-robin visit sequence — is identical by construction).  The lane
  axis is stored **last** (``(4*T*n, B)``, flow-major), so those
  gathers/scatters move whole contiguous lane-rows instead of strided
  elements — the step is memory-bound and this is worth ~5x;
- budgets (availability minus credit debt) are computed from the same
  start-of-cycle snapshot the serial engines use; lanes without credit
  flow control ride along with an effectively-infinite buffer sentinel;
- arbitration is the fast engine's closed forms with a lane axis.  For
  the all-capacities-1 case the cyclic offset is *unwrapped* instead of
  reduced: ``slot + k*(slot < rr)`` orders a channel's slots identically
  to ``(slot - rr) % k`` (it is that offset plus the per-channel
  constant ``rr``), so the packed per-flow keys are two precomputed
  constants selected by one comparison — no per-cycle modulo — and the
  segmented min is a scatter into a ``(C, K, B)`` padded buffer plus one
  vectorized axis-min (several times faster than ``reduceat``).  The
  general-capacity path is the fast engine's water-filling transposed;
- per-lane :class:`~repro.simulator.faultsched.FaultSchedule` masks are
  rebuilt lazily, only at lanes whose schedule changes at this cycle;
- per-lane completion / stall / max-cycles detection freezes finished
  lanes, and :meth:`run_batch` periodically *compacts* the batch down to
  the still-live columns, so total work tracks the sum of per-lane run
  lengths instead of ``B x max(run length)``.

The per-cycle state is deliberately ``int32``: every quantity the step
touches is bounded far below ``2**31`` (flit counters by the per-tree
message size, unwrapped arbitration keys by ``2*K*#flows``, credit debts
by the buffer sentinel), the constructor enforces the headroom
explicitly, and integer arithmetic is exact in any width it fits — so
halving the memory traffic changes nothing observable.

Every lane is **bit-identical** to a serial ``engine="fast"`` run with
the same knobs — same :class:`~repro.simulator.cycle.CycleStats` (down to
float utilization), same :class:`~repro.simulator.cycle.SimulationStalled`
cycle and pending set, same
:class:`~repro.simulator.cycle.CycleLimitExceeded` guard cycle — enforced
by ``tests/test_batched_equivalence.py`` and the differential suite.

Telemetry is **not supported** in v1: collectors observe one engine's
per-cycle state and the batch axis has no serial equivalent to hook;
passing ``telemetry`` raises ``ValueError`` up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.cycle import (
    CycleLimitExceeded,
    CycleStats,
    SimulationStalled,
    default_max_cycles,
)
from repro.simulator.fastcycle import _AGG, _BCD, _INF, FastCycleSimulator
from repro.simulator.faultsched import FaultSchedule
from repro.topology.graph import Graph
from repro.trees.tree import SpanningTree

__all__ = ["LaneSpec", "LaneOutcome", "BatchedCycleSimulator"]

_BUF_INF = 1 << 30  # per-lane buffer sentinel: credit can never bind
_NO_EVENT = 1 << 62  # per-lane fault sentinel: no schedule change ahead
_BIG32 = np.int32(np.iinfo(np.int32).max)  # idle-slot arbitration key
_M_MAX = 1 << 27  # int32 headroom guard on per-tree flit counts


@dataclass(frozen=True)
class LaneSpec:
    """One lane of a batched run: the per-run knobs that may vary.

    The topology and tree plan are shared by the whole batch (that is
    what makes batching sound); everything the serial engines accept per
    run — the per-tree flit split, link capacity, credit buffer size and
    an optional dynamic fault schedule — varies per lane.
    """

    flits_per_tree: Tuple[int, ...]
    link_capacity: int = 1
    buffer_size: Optional[int] = None
    faults: Optional[FaultSchedule] = None

    def __post_init__(self):
        object.__setattr__(
            self, "flits_per_tree", tuple(int(x) for x in self.flits_per_tree)
        )


@dataclass(frozen=True)
class LaneOutcome:
    """Terminal outcome of one lane, whatever it was.

    Exactly one of the serial outcomes happened: the lane completed
    (``stats`` holds the :class:`CycleStats` the fast engine would have
    returned), it stalled (``stall_cycle``/``stall_pending`` hold what
    :class:`SimulationStalled` would have carried), or it exceeded the
    cycle guard (``error`` holds the :class:`CycleLimitExceeded` message).
    :meth:`result` replays the serial contract: return the stats or
    raise the identical exception.
    """

    index: int
    stats: Optional[CycleStats] = None
    stall_cycle: Optional[int] = None
    stall_pending: Tuple[int, ...] = ()
    error: Optional[str] = None

    @property
    def status(self) -> str:
        if self.stats is not None:
            return "done"
        if self.error is not None:
            return "exceeded"
        return "stalled"

    def result(self) -> CycleStats:
        """Return the lane's stats, or raise exactly what a serial run
        with the same knobs would have raised."""
        if self.stats is not None:
            return self.stats
        if self.error is not None:
            raise CycleLimitExceeded(self.error)
        raise SimulationStalled(self.stall_cycle, self.stall_pending)


class BatchedCycleSimulator:
    """B independent Allreduce runs advanced together, cycle-exact per lane.

    Construct either like the other engines (one lane from the scalar
    arguments, making it a drop-in :class:`CycleEngine` for
    ``make_engine`` / ``simulate_allreduce`` / ``trace_allreduce``) or
    with ``lanes=[LaneSpec(...), ...]`` for a real batch, then call
    :meth:`run_batch` for the per-lane :class:`LaneOutcome` list.

    The single-run :class:`CycleEngine` protocol surface (``step`` /
    ``done`` / ``channels`` / ... / ``run``) observes **lane 0**; ``run``
    refuses multi-lane batches and points at :meth:`run_batch`.
    """

    engine_name = "batched"

    def __init__(
        self,
        g: Graph,
        trees: Sequence[SpanningTree],
        flits_per_tree: Optional[Sequence[int]] = None,
        link_capacity: int = 1,
        buffer_size: Optional[int] = None,
        faults: Optional[FaultSchedule] = None,
        telemetry=None,
        lanes: Optional[Sequence[LaneSpec]] = None,
    ):
        if telemetry is not None:
            raise ValueError(
                "the batched engine does not support telemetry (v1): "
                "collectors observe one run's per-cycle state, which has "
                "no batch equivalent; use engine='fast' (or 'reference'/"
                "'leap') for telemetry runs"
            )
        if lanes is not None and flits_per_tree is not None:
            raise ValueError("pass flits_per_tree (one lane) or lanes, not both")
        if lanes is None:
            if flits_per_tree is None:
                raise ValueError("pass flits_per_tree (one lane) or lanes")
            lanes = [
                LaneSpec(
                    tuple(int(x) for x in flits_per_tree),
                    link_capacity,
                    buffer_size,
                    faults if faults else None,
                )
            ]
        self.lanes: List[LaneSpec] = list(lanes)
        if not self.lanes:
            raise ValueError("a batched run needs at least one lane")

        # the zero-flit template builds (and validates) every
        # lane-independent index array exactly as the fast engine would:
        # flow order, flat state indices, reduceat groups, channel slots
        tmpl = FastCycleSimulator(g, trees, [0] * len(trees))
        self._tmpl = tmpl
        self.g = g
        self.n = g.n
        self.trees = tmpl.trees
        T = tmpl._T
        self._T = T
        F = tmpl._F
        self._F = F
        C = tmpl._C
        self._C = C
        self.channel_flows = tmpl.channel_flows

        B = len(self.lanes)
        self._B = B
        k_max = int(tmpl._ch_k.max()) if C else 1
        self._K = k_max
        m_cap = min(_M_MAX, (1 << 30) // k_max)
        for lane in self.lanes:
            if len(lane.flits_per_tree) != T:
                raise ValueError("flits_per_tree must align with trees")
            if any(x < 0 for x in lane.flits_per_tree):
                raise ValueError("flit counts must be non-negative")
            if any(x >= m_cap for x in lane.flits_per_tree):
                raise ValueError(
                    f"batched engine int32 headroom: per-tree flit counts "
                    f"must stay below {m_cap}; use a serial engine for "
                    f"larger messages"
                )
            if lane.link_capacity < 1:
                raise ValueError("link capacity must be >= 1 flit/cycle")
            if lane.link_capacity >= (1 << 15):
                raise ValueError("batched engine int32 headroom: link "
                                 "capacity must stay below 2**15")
            if lane.buffer_size is not None and lane.buffer_size < 1:
                raise ValueError(
                    "buffer size must be >= 1 slot (or None for infinite)"
                )
            if lane.faults is not None:
                lane.faults.validate_against(g)
        if F * (2 * k_max + 1) >= (1 << 31):  # pragma: no cover - giant graphs
            raise ValueError(
                "batched engine int32 headroom: too many flows for packed "
                "arbitration keys; use a serial engine"
            )

        # lane-0 view of the scalar engine attributes (CycleEngine surface)
        self.m = list(self.lanes[0].flits_per_tree)
        self.capacity = self.lanes[0].link_capacity
        self.buffer_size = self.lanes[0].buffer_size
        self.faults = self.lanes[0].faults
        self.telemetry = None
        self.cycle = 0

        # unwrapped-key constants for the capacity-1 closed form:
        # lo = slot*F + fid (pointer at/behind the slot), hi = lo + k*F
        # (pointer ahead: the slot wraps).  min(packed) picks the fast
        # engine's winner because slot + k*(slot < rr) is the cyclic
        # offset plus the per-channel constant rr — order-preserving.
        self._gr_slot32 = tmpl._gr_slot.astype(np.int32)
        self._packed_lo = (tmpl._gr_slot * F + tmpl._gr_fid).astype(np.int32)
        self._packed_hi = (
            self._packed_lo + (tmpl._ch_k[tmpl._gr_ch] * F).astype(np.int32)
        )
        self._F32 = np.int32(F)
        self._ch_k_col = tmpl._ch_k.astype(np.int32).reshape(C, 1)
        # padded (C*K) scatter targets: row c*K + slot holds that slot's
        # packed key; rows with no flow keep _BIG32 forever
        self._pad_rows = (tmpl._gr_ch * k_max + tmpl._gr_slot).astype(np.int64)
        self._pad = np.full((C * k_max, B), _BIG32, dtype=np.int32)

        # row -> original lane index (compaction permutes live lanes down)
        self._orig = np.arange(B, dtype=np.int64)

        self._m_arr = np.asarray(
            [lane.flits_per_tree for lane in self.lanes], dtype=np.int32
        ).reshape(B, T).T.copy()  # (T, B)
        self._cap = np.asarray(
            [lane.link_capacity for lane in self.lanes], dtype=np.int32
        )
        self._cap1 = bool((self._cap == 1).all())
        self._buf = np.asarray(
            [
                _BUF_INF if lane.buffer_size is None else lane.buffer_size
                for lane in self.lanes
            ],
            dtype=np.int32,
        )
        self._any_buffered = any(
            lane.buffer_size is not None for lane in self.lanes
        )

        # ---- batched state, flow-major: (4, T, n, B) with a (4*T*n, B)
        # flat view addressed by the fast engine's flat indices on axis 0
        self._state = np.zeros((4, T, self.n, B), dtype=np.int32)
        self._flat2 = self._state.reshape(-1, B)
        if T:
            self._state[_AGG] = self._m_arr[:, None, :]
            self._state[_BCD, np.arange(T), tmpl._roots, :] = _INF
        self._sent = np.zeros((F, B), dtype=np.int32)
        self._pending = np.zeros((F, B), dtype=np.int32)
        self._rr = np.zeros((C, B), dtype=np.int32)
        self._ch_cum = np.zeros((C, B), dtype=np.int32)
        self._flits_moved = np.zeros(B, dtype=np.int64)
        self._last_moved = np.zeros(B, dtype=np.int64)
        self._alive = np.ones(B, dtype=bool)

        # ---- per-lane fault masks, rebuilt lazily at schedule events
        self._lane_faults = [lane.faults for lane in self.lanes]
        self._have_faults = any(f is not None for f in self._lane_faults)
        self._dead_mask: Optional[np.ndarray] = None
        self._next_change = np.full(B, _NO_EVENT, dtype=np.int64)
        if self._have_faults:
            self._dead_mask = np.zeros((F, B), dtype=bool)
            self._edge_flows: Dict[Tuple[int, int], np.ndarray] = {}
            edges = np.asarray(
                [e for e in tmpl._flow_edges], dtype=np.int64
            ).reshape(F, 2) if F else np.zeros((0, 2), dtype=np.int64)
            for b, sched in enumerate(self._lane_faults):
                if sched is None:
                    continue
                cycles = sched.event_cycles()
                self._next_change[b] = cycles[0] if cycles else _NO_EVENT
                for e in sched.edges():
                    if e not in self._edge_flows:
                        self._edge_flows[e] = np.nonzero(
                            (edges[:, 0] == e[0]) & (edges[:, 1] == e[1])
                        )[0]

        self._refresh_agg()

    # ------------------------------------------------------------ frontiers

    def _refresh_agg(self) -> None:
        if len(self._tmpl._grp_off):
            self._flat2[self._tmpl._grp_agg_idx] = np.minimum.reduceat(
                self._flat2[self._tmpl._child_up_idx],
                self._tmpl._grp_off,
                axis=0,
            )

    def _done_mask_batch(self) -> np.ndarray:
        """(T, B) — which trees of which lanes are complete (landed flits
        only), exactly the fast engine's row check per lane."""
        if not self._T:
            return np.ones((0, self._B), dtype=bool)
        agg_root = self._flat2[self._tmpl._agg_root_idx]
        bc_floor = self._state[_BCD].min(axis=1)
        return (agg_root >= self._m_arr) & (bc_floor >= self._m_arr)

    # ------------------------------------------------------------- dynamics

    def _refresh_fault_masks(self) -> None:
        """Rebuild the dead-flow columns of lanes whose schedule changes
        at this cycle (the down-link set is constant between events)."""
        due = np.nonzero(self._next_change <= self.cycle)[0]
        for b in due:
            sched = self._lane_faults[b]
            dead = sched.down_edges_at(self.cycle)
            self._dead_mask[:, b] = False
            for e in dead:
                self._dead_mask[self._edge_flows[e], b] = True
            nxt = sched.next_event_after(self.cycle)
            self._next_change[b] = _NO_EVENT if nxt is None else nxt

    def step(self) -> int:
        """Advance every live lane one cycle; returns total flits moved
        across the batch."""
        self.cycle += 1
        if self._have_faults:
            self._refresh_fault_masks()
        # 1. land last cycle's in-flight flits (one-cycle hop latency);
        # _land_idx is unique per flow, so the fancy += never collides
        if self._F == 0:
            return 0
        self._flat2[self._tmpl._land_idx] += self._pending
        self._pending[:] = 0
        self._refresh_agg()

        # 2. per-flow budgets from the start-of-cycle snapshot
        avail = self._flat2[self._tmpl._avail_idx] - self._sent
        if self._any_buffered:
            snap = self._sent.copy()
            self._flat2[self._tmpl._grp_bcm_idx] = np.minimum.reduceat(
                snap[self._tmpl._child_bcfid], self._tmpl._grp_off, axis=0
            )
            cons = np.where(
                self._tmpl._cons_from_sent[:, None],
                snap[self._tmpl._cons_sent_fid],
                self._flat2[self._tmpl._cons_state_idx],
            )
            credit = self._buf[None, :] - (snap - cons)
            budget = np.minimum(avail, credit)
        else:
            budget = avail
        if self._dead_mask is not None:
            budget[self._dead_mask] = 0  # dead flows arbitrate with 0 budget
        if not self._alive.all():
            # frozen lanes arbitrate with zero budget: pointers, sent
            # counters and channel totals hold still
            budget[:, ~self._alive] = 0

        # 3. arbitration
        if self._cap1:
            self._arbitrate_single(budget)
        else:
            self._arbitrate_general(budget)
        return int(self._last_moved.sum())

    def _arbitrate_single(self, budget: np.ndarray) -> None:
        """All-lanes-capacity-1 round robin: per (lane, channel), grant
        the backlogged flow with the smallest cyclic pointer offset —
        computed as a padded-axis min over unwrapped packed keys."""
        t = self._tmpl
        B = self._B
        F32 = self._F32
        rr_g = self._rr[t._gr_ch]  # (G, B)
        wrapped = self._gr_slot32[:, None] < rr_g
        packed = np.where(
            budget[t._gr_fid] > 0,
            np.where(wrapped, self._packed_hi[:, None], self._packed_lo[:, None]),
            _BIG32,
        )
        self._pad[self._pad_rows] = packed
        best = self._pad.reshape(self._C, self._K, B).min(axis=1)  # (C, B)
        active = best < _BIG32
        self._last_moved = active.sum(axis=0)
        if not active.any():
            return
        j_unw = best // F32  # cyclic offset of the winner, plus rr
        nrr = j_unw + np.int32(1)
        nrr = np.where(nrr >= self._ch_k_col, nrr - self._ch_k_col, nrr)
        self._rr = np.where(active, nrr, self._rr)
        ci, bi = np.nonzero(active)
        win = (best[ci, bi] - j_unw[ci, bi] * F32).astype(np.int64)
        lin = win * B + bi
        # winners are distinct per lane (one flow belongs to one channel)
        self._sent.reshape(-1)[lin] += 1
        self._pending.reshape(-1)[lin] = 1
        self._ch_cum += active
        self._flits_moved += self._last_moved

    def _arbitrate_general(self, budget: np.ndarray) -> None:
        """Per-lane-capacity water filling: T complete round-robin passes
        plus R extras by cyclic rank, batched over lanes (lane axis last)."""
        t = self._tmpl
        Bm = np.where(t._ch_valid[:, :, None], budget[t._ch_fid], 0)
        Bm = Bm.astype(np.int64)
        np.maximum(Bm, 0, out=Bm)
        tot = Bm.sum(axis=1)  # (C, B)
        cap = self._cap.astype(np.int64)
        S = np.minimum(tot, cap[None, :])

        T_arr = np.zeros_like(S)
        base = np.zeros_like(S)
        for p in range(1, int(self._cap.max()) + 1):
            s = np.minimum(Bm, p).sum(axis=1)
            ok = (s <= S) & (p <= cap[None, :])
            T_arr[ok] = p
            base[ok] = s[ok]
        R = S - base

        grants = np.minimum(Bm, T_arr[:, None, :])
        jpos = (
            t._pos.reshape(1, -1, 1) - self._rr[:, None, :]
        ) % t._ch_k[:, None, None]
        want_extra = (Bm > T_arr[:, None, :]) & t._ch_valid[:, :, None]
        if want_extra.any():
            # rank of each candidate among candidates, in cyclic order
            rank = (
                want_extra[:, None, :, :]
                & (jpos[:, None, :, :] < jpos[:, :, None, :])
            ).sum(axis=2)
            extra = want_extra & (rank < R[:, None, :])
            grants += extra
        else:
            extra = want_extra

        # rotating pointer: one past the last grant of the cycle
        has_extra = extra.any(axis=1)
        j_extra = np.where(extra, jpos, -1).max(axis=1, initial=-1)
        last_pass = grants.max(axis=1, initial=0)
        j_pass = np.where(
            (Bm >= last_pass[:, None, :])
            & t._ch_valid[:, :, None]
            & (last_pass[:, None, :] > 0),
            jpos,
            -1,
        ).max(axis=1, initial=-1)
        j_last = np.where(has_extra, j_extra, j_pass)
        self._rr = np.where(
            S > 0, (self._rr + j_last + 1) % t._ch_k[:, None], self._rr
        ).astype(np.int32)

        self._last_moved = S.sum(axis=0)
        if self._last_moved.any():
            flat = grants[t._ch_valid]  # (F, B) in _flat_fids order
            self._pending[t._flat_fids] = flat
            self._sent[t._flat_fids] += flat.astype(np.int32)
            self._ch_cum += grants.sum(axis=1).astype(np.int32)
            self._flits_moved += self._last_moved

    # ----------------------------------------------------------- batch runs

    def _freeze(self, b: int) -> None:
        self._alive[b] = False
        self._pending[:, b] = 0

    def _compact(self, keep: np.ndarray) -> None:
        """Drop frozen lanes: live lanes move to columns
        ``0..len(keep)-1`` (``_orig`` keeps the map back to original lane
        indices), so the per-cycle cost tracks the *live* lane count."""
        self._orig = self._orig[keep]
        B = self._B = len(keep)
        self._state = np.ascontiguousarray(self._state[..., keep])
        self._flat2 = self._state.reshape(-1, B)
        self._sent = np.ascontiguousarray(self._sent[:, keep])
        self._pending = np.ascontiguousarray(self._pending[:, keep])
        self._rr = np.ascontiguousarray(self._rr[:, keep])
        self._ch_cum = np.ascontiguousarray(self._ch_cum[:, keep])
        self._pad = np.full((self._C * self._K, B), _BIG32, dtype=np.int32)
        self._flits_moved = self._flits_moved[keep].copy()
        self._last_moved = self._last_moved[keep].copy()
        self._alive = self._alive[keep].copy()
        self._m_arr = np.ascontiguousarray(self._m_arr[:, keep])
        self._cap = self._cap[keep].copy()
        self._buf = self._buf[keep].copy()
        self._cap1 = bool((self._cap == 1).all())
        self._any_buffered = bool((self._buf != _BUF_INF).any())
        self._lane_faults = [self._lane_faults[i] for i in keep]
        self._next_change = self._next_change[keep].copy()
        self._have_faults = any(f is not None for f in self._lane_faults)
        if self._dead_mask is not None:
            self._dead_mask = (
                np.ascontiguousarray(self._dead_mask[:, keep])
                if self._have_faults
                else None
            )

    def _finish_lane(self, b: int, completion_col: np.ndarray) -> LaneOutcome:
        """Fold lane ``b`` into the CycleStats the fast engine would have
        returned."""
        lane = self.lanes[int(self._orig[b])]
        stats = CycleStats.fold(
            completion_col,
            lane.flits_per_tree,
            lane.link_capacity,
            self._flits_moved[b],
            lane.buffer_size,
            self._ch_cum[:, b],
        )
        return LaneOutcome(index=int(self._orig[b]), stats=stats)

    def run_batch(self, max_cycles: Optional[int] = None) -> List[LaneOutcome]:
        """Run every lane to its terminal outcome; never raises for a
        lane's sake.  Per-lane guard budgets come from the same
        :func:`default_max_cycles` formula the serial engines use (or the
        explicit ``max_cycles``, uniformly), and the guard / stall /
        completion checks fire in the serial engines' exact order, so
        each :class:`LaneOutcome` is what ``engine="fast"`` would have
        produced for that lane alone."""
        if self.cycle:
            raise RuntimeError("run_batch must start from a fresh engine")
        B, T = self._B, self._T
        if max_cycles is None:
            maxc = np.asarray(
                [
                    default_max_cycles(
                        self.trees,
                        lane.flits_per_tree,
                        lane.link_capacity,
                        lane.buffer_size,
                        lane.faults,
                    )
                    for lane in self.lanes
                ],
                dtype=np.int64,
            )
        else:
            maxc = np.full(B, int(max_cycles), dtype=np.int64)
        outcomes: List[Optional[LaneOutcome]] = [None] * B
        completion = np.zeros((T, B), dtype=np.int64)
        done = self._done_mask_batch()
        for b in np.nonzero(done.all(axis=0))[0]:
            outcomes[b] = self._finish_lane(b, completion[:, b])
            self._freeze(b)
        cycle = 0
        while self._alive.any():
            live = int(self._alive.sum())
            if live * 2 <= self._B and self._B >= 16:
                keep = np.nonzero(self._alive)[0]
                self._compact(keep)
                maxc = maxc[keep]
                completion = np.ascontiguousarray(completion[:, keep])
                done = np.ascontiguousarray(done[:, keep])
            self.step()
            cycle += 1
            moved = self._last_moved
            # guard first: the serial run raises before it would have
            # noticed this very cycle's completion or stall
            exceeded = self._alive & (cycle > maxc)
            for b in np.nonzero(exceeded)[0]:
                outcomes[int(self._orig[b])] = LaneOutcome(
                    index=int(self._orig[b]),
                    error=f"simulation exceeded {int(maxc[b])} cycles",
                )
                self._freeze(b)
            now = self._done_mask_batch()
            col_done = now.all(axis=0)
            stall_cand = self._alive & (moved == 0) & ~col_done
            for b in np.nonzero(stall_cand)[0]:
                sched = self._lane_faults[b]
                if sched is not None and sched.next_revival_after(cycle) is not None:
                    continue  # a revival can still restore progress: idle
                outcomes[int(self._orig[b])] = LaneOutcome(
                    index=int(self._orig[b]),
                    stall_cycle=cycle,
                    stall_pending=tuple(
                        int(i) for i in np.nonzero(~now[:, b])[0]
                    ),
                )
                self._freeze(b)
            newly = now & ~done & self._alive[None, :]
            completion[newly] = cycle
            done |= now & self._alive[None, :]
            for b in np.nonzero(self._alive & col_done)[0]:
                outcomes[int(self._orig[b])] = self._finish_lane(b, completion[:, b])
                self._freeze(b)
        return outcomes  # type: ignore[return-value]

    def run(self, max_cycles: Optional[int] = None) -> CycleStats:
        """Serial-contract run of a single-lane batch: returns the lane's
        :class:`CycleStats`, raising :class:`SimulationStalled` or
        :class:`CycleLimitExceeded` exactly as the fast engine would.
        Multi-lane batches must use :meth:`run_batch`."""
        if len(self.lanes) != 1:
            raise ValueError(
                f"run() is the single-run protocol; this batch has "
                f"{len(self.lanes)} lanes — use run_batch() for per-lane "
                f"outcomes"
            )
        return self.run_batch(max_cycles)[0].result()

    # ---------------------------------------------- engine protocol (lane 0)

    @property
    def flits_moved(self) -> int:
        return int(self._flits_moved[0])

    def tree_done(self, i: int) -> bool:
        return bool(self._done_mask()[i])

    def _done_mask(self) -> np.ndarray:
        return self._done_mask_batch()[:, 0]

    def done(self) -> bool:
        return bool(self._done_mask().all())

    def channels(self) -> List[Tuple[int, int]]:
        return list(self._tmpl._chs)

    def channel_flit_counts(self) -> List[int]:
        return [int(x) for x in self._ch_cum[:, 0]]

    def has_in_flight(self) -> bool:
        return bool(self._pending[:, 0].any())

    def delivered_floor(self) -> List[int]:
        if not self._T:
            return []
        floor = self._state[_BCD, :, :, 0].min(axis=1)  # roots pinned at _INF
        return [int(min(f, mi)) for f, mi in zip(floor, self._m_arr[:, 0])]

    def reduced_at_root(self) -> List[int]:
        if not self._T:
            return []
        agg = self._flat2[self._tmpl._agg_root_idx, 0]
        return [int(min(a, mi)) for a, mi in zip(agg, self._m_arr[:, 0])]

    def _consumed_now(self) -> np.ndarray:
        """Lane-0 per-flow consumed counters against the current state
        (reference ``_consumed_now`` semantics, fast-engine layout)."""
        t = self._tmpl
        sent = np.ascontiguousarray(self._sent[:, 0])
        if len(t._grp_off):
            bcm = np.minimum.reduceat(sent[t._child_bcfid], t._grp_off)
        else:
            bcm = np.zeros(0, dtype=np.int32)
        return np.where(
            t._cons_from_sent,
            sent[t._cons_sent_fid],
            np.where(
                t._cons_grp >= 0,
                bcm[np.maximum(t._cons_grp, 0)] if bcm.size else np.int32(0),
                self._flat2[t._cons_state_idx, 0],
            ),
        )

    def queue_occupancy(self) -> List[int]:
        if self._F == 0:
            return [0] * self.n
        outstanding = self._sent[:, 0] - self._consumed_now()
        out = np.zeros(self.n, dtype=np.int64)
        np.add.at(out, self._tmpl._flow_dst, outstanding)
        return [int(x) for x in out]

    def phase_flit_totals(self) -> Tuple[List[int], List[int]]:
        red = np.zeros(self._T, dtype=np.int64)
        bc = np.zeros(self._T, dtype=np.int64)
        if self._F:
            up = self._tmpl._flow_is_reduce
            sent = self._sent[:, 0]
            np.add.at(red, self._tmpl._flow_tree[up], sent[up])
            np.add.at(bc, self._tmpl._flow_tree[~up], sent[~up])
        return [int(x) for x in red], [int(x) for x in bc]
