"""Cycle-leaping "warp" engine: O(events) simulation, still cycle-exact.

Both per-cycle engines (:class:`~repro.simulator.cycle.CycleSimulator` and
:class:`~repro.simulator.fastcycle.FastCycleSimulator`) execute one
``step()`` per simulated cycle, so wall-clock grows linearly with message
size. But a round-robin water-filled pipeline is *eventually periodic*:
once the pipeline fills, the per-cycle arbitration outcome and the
per-flow advancement vector repeat with some small period ``P``, and every
counter in the ``(4, T, n)`` state tensor advances by a fixed amount per
period. Between discrete events — a flow draining, a credit regime
boundary, a tree finishing — the simulator can therefore jump
``Δ = k·P`` cycles in one vectorized update instead of stepping them.

:class:`LeapCycleSimulator` does exactly that, in three phases:

1. **detect** — after every single step it records the cycle's exact
   signature (the granted flow/count vectors plus the round-robin
   pointers) and a full state snapshot into preallocated ring buffers
   (:class:`SteadyRings`); a repeated signature hash flags a candidate
   period ``P``;
2. **confirm** — entirely from the rings, with zero extra stepped
   cycles: the trailing period must reproduce the preceding one
   bit-for-bit, and the state delta over both periods must agree — that
   measured delta ``R`` is the per-period advancement vector.  The
   per-flow budget components and streaming-aggregation/credit min-group
   inputs the jump bound needs are reconstructed from the recorded rows;
3. **leap** — the future repeats the recorded period for as long as every
   decision input keeps its *decision-relevant value*: arbitration reads
   budgets only through ``clamp(b, 0, capacity+1)`` (only sign matters at
   capacity 1), and the streaming mins stay linear while their argmin is
   stable. Each of those conditions is a linear inequality in the number
   of leapt periods ``k``, as is "no tree completes mid-leap" (a tree
   cannot finish while any of its broadcast flows has ``sent < m_i``) and
   the ``max_cycles`` guard. The engine takes the minimum, applies
   ``state += k·R`` in one shot, and resumes stepping — so warm-up,
   drains, credit stalls and completions are always *stepped* through,
   which is what keeps every observable cycle-exact.

``step()`` remains an honest single-cycle step (the engine is a drop-in
:class:`~repro.simulator.engine.CycleEngine`; generic tracers work
unchanged), ``run()`` leaps, and :meth:`trace_compressed` records leaps as
``(repeat, period-block)`` runs so paper-scale traces stay O(events) in
memory. Cycle-exactness versus both existing engines is enforced by the
differential suite (``tests/test_fastcycle_equivalence.py``,
``tests/test_leap.py``); the unbounded-in-``m`` speedup is recorded by
``benchmarks/test_bench_leap.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.cycle import CycleStats, EngineRun
from repro.simulator.fastcycle import FastCycleSimulator
from repro.simulator.faultsched import FaultSchedule
from repro.topology.graph import Graph
from repro.trees.tree import SpanningTree

__all__ = ["LeapCycleSimulator", "SteadyRings"]

_INF_K = 1 << 60  # "no constraint" leap bound
_BIG = 1 << 62


class _Steady:
    """A verified steady state: per-period delta + leap validity bounds."""

    __slots__ = (
        "period", "k_bound", "r_flat", "r_sent", "r_chcum", "r_moved",
        "phase_chd", "phase_q", "phase_dq",
    )

    def __init__(self, period, k_bound, r_flat, r_sent, r_chcum, r_moved,
                 phase_chd, phase_q=None, phase_dq=None):
        self.period = period
        self.k_bound = k_bound          # max whole periods leapable now
        self.r_flat = r_flat            # per-period delta of the state tensor
        self.r_sent = r_sent            # per-period per-flow grants
        self.r_chcum = r_chcum          # per-period per-channel flits
        self.r_moved = r_moved          # per-period total flits
        self.phase_chd = phase_chd      # (C, P) per-phase channel activity
        # telemetry reconstruction (built only with a collector attached):
        self.phase_q = phase_q          # (P, n) confirmed per-phase queues
        self.phase_dq = phase_dq        # (P, n) per-period queue drift


class LeapCycleSimulator(FastCycleSimulator):
    """Cycle-leaping drop-in replacement for the per-cycle engines.

    Identical observables to :class:`CycleSimulator` /
    :class:`FastCycleSimulator` — same per-channel per-cycle flit counts,
    per-tree completion cycles, :class:`CycleStats`, stall and
    ``max_cycles`` semantics — but ``run()`` wall-clock is
    O(depth + #events), independent of the flits-per-tree message size in
    the steady-state-dominated regime.

    Introspection: ``leap_log`` records ``(start_cycle, period, k)`` for
    every jump taken; ``stepped_cycles`` counts cycles actually stepped.

    Under a :class:`~repro.simulator.faultsched.FaultSchedule` every
    scheduled event cycle is a *leap barrier*: no jump crosses a cycle at
    which links die or revive (the dynamics change there), the detector
    resets at each boundary, and dead waits — zero progress with nothing
    in flight while a revival is still scheduled — are fast-forwarded in
    closed form (``idle_skipped`` counts those cycles; the state is a
    provable fixpoint, so observables stay cycle-exact).
    """

    #: hard cap on the detectable period (ring memory is
    #: O(period × state), so the cap shrinks for very large embeddings)
    P_MAX = 64
    #: ring memory budget, in recorded values
    _VERIFY_BUDGET = 1 << 19

    engine_name = "leap"

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
        super().__init__(
            g, trees, flits_per_tree, link_capacity, buffer_size, faults,
            telemetry=telemetry,
        )
        # broadcast flows grouped (T, n-1): every spanning tree contributes
        # exactly n-1 broadcast flows, created tree-major in __init__
        n = self.n
        if self._T and n > 1:
            is_bc = np.ones(self._F, dtype=bool)
            is_bc[0::2] = False  # flows alternate reduce/broadcast per edge
            self._bc_fids = np.nonzero(is_bc)[0].reshape(self._T, n - 1)
        else:
            self._bc_fids = np.zeros((self._T, 0), dtype=np.int64)
        # ring memory budget: each slot holds a full state/sent/chcum
        # snapshot plus the signature bytes, and the rings hold two
        # periods (2*p_max + 1 slots) — so P_MAX-sized candidates can't
        # over-allocate on large embeddings; the cap shrinks the
        # detectable period instead (correctness is unaffected, only
        # detection reach)
        slot = 2 * (self._flat.size + 2 * self._F + self._C + 1)
        self._p_max = max(1, min(self.P_MAX, self._VERIFY_BUDGET // max(1, slot)))
        # maps from decision inputs to the minimum.reduceat group feeding
        # them, for principled forward-drift extrapolation of min-planes
        self._grp_sizes = np.diff(
            np.append(self._grp_off, len(self._child_up_idx))
        ).astype(np.int64)
        agg_pos = {int(ix): g for g, ix in enumerate(self._grp_agg_idx)}
        self._avail_grp = np.asarray(
            [agg_pos.get(int(ix), -1) for ix in self._avail_idx], dtype=np.int64
        ) if self._F else np.zeros(0, dtype=np.int64)
        self.leap_log: List[Tuple[int, int, int]] = []
        self.stepped_cycles = 0
        self.idle_skipped = 0  # dead-wait cycles fast-forwarded, not stepped
        self._rings = SteadyRings(self)
        self._reset_detector()

    # ------------------------------------------------------- detector state

    def _reset_detector(self) -> None:
        self._steady: Optional[_Steady] = None
        self._rings.reset(self)

    # --------------------------------------------------------- single steps

    def step(self) -> int:
        moved = super().step()
        self.stepped_cycles += 1
        if self._F:
            if self.faults is not None and self.faults.changes_at(self.cycle):
                # links died or revived this cycle: every recorded
                # signature belongs to the previous dynamics regime, so
                # restart detection
                self._reset_detector()
            else:
                self._rings.observe(self)
        return moved

    # ----------------------------------------------------- leap constraints

    def _regime_bound(self, v: np.ndarray, d: np.ndarray) -> int:
        """Max k such that the decision-relevant value of a budget stays
        constant for all of 1..k periods, given value ``v`` (in the period
        preceding the leap) and measured per-period drift ``d``.

        At capacity 1 arbitration only reads the budget's *sign*; at
        larger capacities it reads ``clamp(v, 0, capacity+1)`` (grants are
        ``min(v, t)`` for ``t <= capacity`` plus ``v > t`` comparisons)."""
        if v.size == 0:
            return _INF_K
        out = np.full(v.shape, _INF_K, dtype=np.int64)
        grow = d > 0
        shrink = d < 0
        if self.capacity == 1:
            pos = v > 0
            m = grow & ~pos          # non-positive, rising: until it turns > 0
            out[m] = -v[m] // d[m]
            m = shrink & pos         # positive, falling: until it hits 0
            out[m] = (v[m] - 1) // -d[m]
        else:
            U = self.capacity + 1
            high = v >= U
            low = v <= 0
            m = grow & low
            out[m] = -v[m] // d[m]
            m = shrink & high
            out[m] = (v[m] - U) // -d[m]
            out[~high & ~low & (d != 0)] = 0  # mid-range value must be exact
        return int(out.min())

    def _min_group_terms(
        self, vals: np.ndarray, rates: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """Per-group forward rate of every ``minimum.reduceat`` group, and
        the max k for which those rates are licensed.

        Each group's min advances at ``rstar``, the slowest rate among its
        current argmin members, for as long as every faster-shrinking
        non-argmin member keeps ``gap + k*delta >= 0`` — i.e. while the
        argmin set is stable."""
        if vals.size == 0:
            return np.zeros(0, dtype=np.int64), _INF_K
        off = self._grp_off
        mins = np.minimum.reduceat(vals, off)
        gaps = vals - np.repeat(mins, self._grp_sizes)
        rstar = np.minimum.reduceat(np.where(gaps == 0, rates, _BIG), off)
        delta = rates - np.repeat(rstar, self._grp_sizes)
        neg = delta < 0
        if not neg.any():
            return rstar, _INF_K
        return rstar, int((gaps[neg] // -delta[neg]).min())

    def _completion_bound(self, r_sent: np.ndarray) -> int:
        """Max k with no tree completing inside the leap: a tree cannot be
        done while one of its broadcast flows still has ``sent < m_i``
        (delivered <= sent), so keep one such flow per tree strictly below
        ``m_i``. Picks, per tree, the flow that allows the longest leap."""
        if not self._T or self._bc_fids.shape[1] == 0:
            return _INF_K
        sent = self.sent[self._bc_fids]           # (T, n-1)
        g = r_sent[self._bc_fids]
        headroom = (self._m_arr[:, None] - 1) - sent
        ok = headroom >= 0
        bound = np.where(ok & (g == 0), _INF_K, np.int64(-1))
        moving = ok & (g > 0)
        bound = np.where(moving, headroom // np.maximum(g, 1), bound)
        per_tree = bound.max(axis=1)
        per_tree = np.where(self._done_mask(), _INF_K, per_tree)
        return max(int(per_tree.min()), 0)

    def _license_bounds(
        self,
        P: int,
        k: int,
        avail2,
        credit2,
        aggch2,
        bcmch2,
        r_flat: np.ndarray,
        r_sent: np.ndarray,
        queue2=None,
        bcm2t=None,
    ) -> Tuple[int, List[np.ndarray], List[np.ndarray]]:
        """Shrink ``k`` to the largest jump licensed by the recorded
        per-phase budget components of the period preceding the leap.

        Forward per-period rates of the raw counters are exact while the
        grant pattern repeats; min-plane rates come from the argmin group
        (per phase), not from boundary deltas, which argmin churn between
        the two confirmed periods could silently corrupt.  Telemetry
        reconstruction (``queue2``/``bcm2t``, the post-step queues and
        broadcast-min inputs per phase) is passed only with a collector
        attached, and adds one argmin-stability bound on ``k``."""
        child_rates = r_flat[self._child_up_idx]
        buffered = self.buffer_size is not None
        tel_on = queue2 is not None
        need_cons = buffered or tel_on
        bc_rates = r_sent[self._child_bcfid] if need_cons else None
        r_cons_base = (
            np.where(
                self._cons_from_sent,
                r_sent[self._cons_sent_fid],
                r_flat[self._cons_state_idx],
            )
            if need_cons
            else None
        )
        phase_q: List[np.ndarray] = []
        phase_dq: List[np.ndarray] = []
        for j in range(P):
            if k <= 0:
                break
            rstar_agg, gb = self._min_group_terms(aggch2[j], child_rates)
            k = min(k, gb)
            d_avail_src = np.where(
                self._avail_grp >= 0,
                rstar_agg[np.maximum(self._avail_grp, 0)]
                if rstar_agg.size
                else np.int64(0),
                r_flat[self._avail_idx],
            )
            k = min(k, self._regime_bound(avail2[j], d_avail_src - r_sent))
            if buffered:
                rstar_bcm, bb = self._min_group_terms(bcmch2[j], bc_rates)
                k = min(k, bb)
                r_cons = np.where(
                    self._cons_grp >= 0,
                    rstar_bcm[np.maximum(self._cons_grp, 0)]
                    if rstar_bcm.size
                    else np.int64(0),
                    r_cons_base,
                )
                k = min(k, self._regime_bound(credit2[j], r_cons - r_sent))
            if tel_on:
                # license linear queue reconstruction inside the leap: the
                # post-step broadcast mins must advance at their argmin-
                # stable rate too (one extra bound on k), and the queue
                # drift is derived from those rates — never from boundary
                # deltas, which argmin churn could corrupt
                rstar_bcm_t, bb_t = self._min_group_terms(bcm2t[j], bc_rates)
                k = min(k, bb_t)
                r_cons_t = np.where(
                    self._cons_grp >= 0,
                    rstar_bcm_t[np.maximum(self._cons_grp, 0)]
                    if rstar_bcm_t.size
                    else np.int64(0),
                    r_cons_base,
                )
                dq = np.zeros(self.n, dtype=np.int64)
                np.add.at(dq, self._flow_dst, r_sent - r_cons_t)
                phase_q.append(queue2[j])
                phase_dq.append(dq)
        return k, phase_q, phase_dq

    # -------------------------------------------------------------- leaping

    def _take_leap(self, run: EngineRun) -> Tuple[int, Optional[_Steady]]:
        """Consume a verified steady state and advance ``run`` past it:
        returns (cycles leapt, the steady record used) — (0, None) when
        no leap is possible now."""
        st = self._steady
        if st is None:
            return 0, None
        self._steady = None
        cycle = run.cycle
        k = min(st.k_bound, (run.max_cycles - cycle) // st.period)
        if self.faults is not None:
            # fault cycles are leap barriers: the dynamics change there,
            # so every scheduled event is stepped, never jumped over
            nxt = self.faults.next_event_after(cycle)
            if nxt is not None:
                k = min(k, (nxt - 1 - cycle) // st.period)
        if k < 1:
            return 0, None
        if self.telemetry is not None:
            # reconstruct in-leap samples while the state is still the
            # pre-leap base the reconstruction extrapolates from
            self.telemetry.on_leap(self, cycle, st, k)
        self._flat += k * st.r_flat
        self.sent += k * st.r_sent
        self._ch_cum += k * st.r_chcum
        self.flits_moved += k * st.r_moved
        # the AGG plane is min-derived, not a linear counter: rebuild it
        # exactly from the leapt UPD counters (matches the post-step
        # invariant AGG == min over children's UPD)
        self._refresh_agg()
        # the jump moved state without landing events: rebuild the
        # per-tree landed totals the done check reads
        self._sync_done()
        # keep the engine's internal cycle counter (the fault clock that
        # step() consults via down_edges_at) in lockstep with the leap
        leapt = k * st.period
        self.cycle += leapt
        run.cycle += leapt
        self.leap_log.append((cycle, st.period, k))
        self._reset_detector()
        return leapt, st

    # ----------------------------------------------------- engine protocol

    def _skip_idle(self, run: EngineRun) -> int:
        """A dead wait (:meth:`EngineRun.tick` returned ``True``): the
        state is a fixpoint until the next scheduled revival, so
        fast-forward the idle cycles in closed form and return how many
        were skipped.

        Only a *revival* can restore progress (a later down event merely
        removes budget, which at a fixpoint is already zero), so the wait
        targets the next revival; intermediate down events need no state —
        ``down_edges_at`` is absolute, so the post-skip steps see them."""
        start = run.cycle
        skip = min(self.faults.next_revival_after(start) - 1, run.max_cycles) - start
        if skip <= 0:
            return 0
        self.idle_skipped += skip
        self.cycle += skip  # advance the fault clock with the skip
        if self.telemetry is not None:
            self.telemetry.on_idle(self, start, start + skip)
        run.cycle += skip
        return skip

    def run(self, max_cycles: Optional[int] = None) -> CycleStats:
        """Run to completion under the :class:`EngineRun` contract,
        leaping over steady-state stretches and fast-forwarding dead
        waits — same stop cycle, stall and partial state as the
        per-cycle engines."""
        run = EngineRun(self, max_cycles)
        self._reset_detector()
        while not run.finished:
            if self._take_leap(run)[0]:
                continue
            if run.tick(self.step()):
                self._skip_idle(run)
        return run.stats()

    # -------------------------------------------------------------- tracing

    def trace_compressed(self, max_cycles: Optional[int] = None):
        """Step/leap to completion, returning a
        :class:`~repro.simulator.trace.CompressedTrace` whose blocks are
        ``(repeat, per-phase channel activity)`` runs — leaps become one
        block repeated k times, so memory stays O(events), not O(cycles)."""
        from repro.simulator.trace import CompressedTrace

        run = EngineRun(self, max_cycles)
        blocks: List[Tuple[int, np.ndarray]] = []
        dense: List[np.ndarray] = []

        def flush() -> None:
            if dense:
                blocks.append((1, np.stack(dense, axis=1)))
                dense.clear()

        self._reset_detector()
        while not run.finished:
            leapt, st = self._take_leap(run)
            if leapt:
                flush()
                blocks.append((leapt // st.period, st.phase_chd))
                continue
            prev = self._ch_cum.copy()
            idle = run.tick(self.step())
            dense.append(self._ch_cum - prev)
            skip = self._skip_idle(run) if idle else 0
            if skip:
                # idle dead-wait: one all-zero column repeated
                flush()
                blocks.append((skip, np.zeros((self._C, 1), dtype=np.int64)))
        flush()
        return CompressedTrace(
            cycles=run.cycle,
            capacity=self.capacity,
            channels=self.channels(),
            blocks=blocks,
        )


# ------------------------------------------------------------ steady rings


class SteadyRings:
    """Preallocated detection rings: the leap engine's steady-state
    detector.

    Every stepped cycle records its exact signature, a full state
    snapshot, the per-flow ``sent`` vector and the per-channel
    cumulative activity into fixed ring rows.  When two consecutive
    periods match bit-for-bit *in the rings*, the per-period delta and
    the licensed jump bound are computed from the recorded rows — zero
    additional stepped cycles.

    The budget components the jump bound needs are reconstructed lazily
    at confirmation time, entirely from the rings: arbitration never
    writes the state tensor, so the pre-arbitration state of the cycle
    recorded at slot ``s`` is its own ``flat`` row, and its
    pre-arbitration ``sent`` is simply the *previous* slot's ``sent``
    row.  The same rows give the post-step queues and broadcast-min
    inputs that in-leap telemetry reconstruction needs.  A refused
    confirmation (the state deltas are still converging) is retried on
    the very next repetition — a retry costs ring compares, never
    re-stepping — so steady states are leaped at the earliest cycle the
    evidence supports.

    Ring length is ``2*p_max + 1`` rows (the confirmation reads back to
    ``tick - 2P`` inclusively); the rows are counted against the
    engine's ring memory budget when ``_p_max`` is derived, so large-``q``
    embeddings shrink the detectable period instead of over-allocating.
    """

    def __init__(self, sim: LeapCycleSimulator) -> None:
        self.p_max = sim._p_max
        R = 2 * self.p_max + 1
        self.R = R
        self.buffered = sim.buffer_size is not None
        self.sig: List[Optional[Tuple[bytes, bytes, bytes]]] = [None] * R
        self.flat = np.zeros((R, sim._flat.size), dtype=np.int64)
        self.sent = np.zeros((R, sim._F), dtype=np.int64)
        self.chcum = np.zeros((R, sim._C), dtype=np.int64)
        self.moved = np.zeros(R, dtype=np.int64)
        self.tick = 0
        self.cooldown = 0
        self.last_seen: dict = {}

    def reset(self, sim: LeapCycleSimulator) -> None:
        """Restart detection (state changed discontinuously: init, leap,
        or a fault-schedule event cycle).  Slot 0 snapshots the restart
        state — it is the ``tick - 2P`` base when a candidate confirms at
        ``tick == 2P`` exactly."""
        self.tick = 0
        self.cooldown = 0
        self.last_seen = {}
        np.copyto(self.flat[0], sim._flat)
        np.copyto(self.sent[0], sim.sent)
        np.copyto(self.chcum[0], sim._ch_cum)
        self.moved[0] = sim.flits_moved

    def observe(self, sim: LeapCycleSimulator) -> None:
        """Record this stepped cycle's row and try to confirm a steady
        state from the rings (sets ``sim._steady`` on success)."""
        self.tick += 1
        t = self.tick
        s = t % self.R
        pend = sim._pending_fids
        cnt = sim._pending_cnt[: len(pend)]
        sig = (pend.tobytes(), cnt.tobytes(), sim._rr.tobytes())
        self.sig[s] = sig
        np.copyto(self.flat[s], sim._flat)
        np.copyto(self.sent[s], sim.sent)
        np.copyto(self.chcum[s], sim._ch_cum)
        self.moved[s] = sim.flits_moved

        if sim._steady is not None:
            return  # waiting for run()/trace loop to consume the leap
        h = hash(sig)
        if self.cooldown > 0:
            self.cooldown -= 1
            self.last_seen[h] = t
            return
        prev = self.last_seen.get(h)
        self.last_seen[h] = t
        if len(self.last_seen) > 65536:  # transient-heavy workload: reset
            self.last_seen = {h: t}
        if prev is None:
            return
        period = t - prev
        if period < 1 or period > self.p_max or t < 2 * period:
            return
        self._confirm(sim, period)

    def _confirm(self, sim: LeapCycleSimulator, P: int) -> None:
        """Exact confirmation from the rings; on success arms
        ``sim._steady``."""
        t = self.tick
        R = self.R
        # the trailing period must reproduce the preceding one exactly
        # (j = 0 included: the hash match that flagged the candidate is
        # not trusted against collisions)
        for j in range(P):
            if self.sig[(t - j) % R] != self.sig[(t - P - j) % R]:
                return
        s1 = (t - P) % R
        s0 = (t - 2 * P) % R
        # scalar pre-filter: flits_moved is the running sum of grants, so
        # a periodic `sent` delta implies a periodic moved delta — if the
        # cheap scalar disagrees, the array compare below cannot pass
        if int(sim.flits_moved) - int(self.moved[s1]) != int(
            self.moved[s1]
        ) - int(self.moved[s0]):
            return
        r_flat = sim._flat - self.flat[s1]
        r_sent = sim.sent - self.sent[s1]
        if not (
            np.array_equal(r_flat, self.flat[s1] - self.flat[s0])
            and np.array_equal(r_sent, self.sent[s1] - self.sent[s0])
        ):
            # signatures repeat but the state deltas have not settled
            # into the period yet — retry at the next repetition
            return
        r_moved = int(sim.flits_moved - self.moved[s1])
        if r_moved <= 0:
            # never leap a zero-progress period: the per-cycle engines'
            # stall detection must fire at its exact cycle
            self.cooldown = P
            return
        phases = [(t - P + 1 + j) % R for j in range(P)]
        # budget components of each phase, reconstructed lazily from the
        # rings: the step at slot ``s`` read the state its own ``flat``
        # row records (arbitration never writes the tensor) and the
        # ``sent`` of the *previous* slot.
        avail = []
        credit = [] if self.buffered else None
        aggch = []
        bcmch = [] if self.buffered else None
        for s in phases:
            flat_s = self.flat[s]
            sent_pre = self.sent[(s - 1) % R]
            avail.append(flat_s[sim._avail_idx] - sent_pre)
            aggch.append(flat_s[sim._child_up_idx])
            if self.buffered:
                bcmch.append(sent_pre[sim._child_bcfid])
                cons = np.where(
                    sim._cons_from_sent,
                    sent_pre[sim._cons_sent_fid],
                    flat_s[sim._cons_state_idx],
                )
                credit.append(sim.buffer_size + cons - sent_pre)
        queue2 = bcm2t = None
        if sim.telemetry is not None:
            # post-step views of each phase, the observation instants the
            # per-cycle engines sample at
            queue2 = [sim._queues(self.flat[s], self.sent[s]) for s in phases]
            bcm2t = [self.sent[s][sim._child_bcfid] for s in phases]
        k = sim._completion_bound(r_sent)
        k, phase_q, phase_dq = sim._license_bounds(
            P, k, avail, credit, aggch, bcmch, r_flat, r_sent,
            queue2=queue2, bcm2t=bcm2t,
        )
        if k <= 0:
            self.cooldown = P
            return
        sim._steady = _Steady(
            period=P,
            k_bound=k,
            r_flat=r_flat,
            r_sent=r_sent,
            r_chcum=sim._ch_cum - self.chcum[s1],
            r_moved=r_moved,
            phase_chd=np.stack(
                [self.chcum[s] - self.chcum[(s - 1) % R] for s in phases],
                axis=1,
            ),
            phase_q=np.stack(phase_q) if phase_q else None,
            phase_dq=np.stack(phase_dq) if phase_dq else None,
        )
