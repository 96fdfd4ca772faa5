"""Cycle-leaping "warp" engine: O(events) simulation, still cycle-exact.

Both per-cycle engines (:class:`~repro.simulator.cycle.CycleSimulator` and
:class:`~repro.simulator.fastcycle.FastCycleSimulator`) execute one
``step()`` per simulated cycle, so wall-clock grows linearly with message
size. But a round-robin water-filled pipeline is *eventually periodic*:
once the pipeline fills, the per-cycle arbitration outcome and the
per-flow advancement vector repeat with some small period ``P``, and every
flow's ``sent`` counter — the engine's whole state, with the grants in
flight — advances by a fixed amount per period. Between discrete events
— a flow draining, a credit regime boundary, a tree finishing — the
simulator can therefore jump
``Δ = k·P`` cycles in one vectorized update instead of stepping them.

:class:`LeapCycleSimulator` does exactly that, in three phases:

1. **detect** — after every single step it records the cycle's exact
   signature (the granted flow/count vectors plus the round-robin
   pointers) and its ``sent`` vector into preallocated ring buffers
   (:class:`SteadyRings`); a repeated signature hash flags a candidate
   period ``P``;
2. **confirm** — entirely from the rings, with zero extra stepped
   cycles: the trailing period must reproduce the preceding one
   bit-for-bit, and the ``sent`` delta over both periods must agree —
   that measured delta ``R`` is the per-period advancement vector.  The
   per-flow budget components and streaming-aggregation/credit min-group
   inputs the jump bound needs are derived from the recorded rows;
3. **leap** — the future repeats the recorded period for as long as every
   decision input keeps its *decision-relevant value*: arbitration reads
   budgets only through ``clamp(b, 0, capacity+1)`` (only sign matters at
   capacity 1), and the streaming mins stay linear while their argmin is
   stable. Each of those conditions is a linear inequality in the number
   of leapt periods ``k``, as is "no tree completes mid-leap" (a tree
   cannot finish while any of its broadcast flows has ``sent < m_i``) and
   the ``max_cycles`` guard. The engine takes the minimum, applies
   ``sent += k·R`` in one shot, and resumes stepping — so on this path
   warm-up, drains, credit stalls and completions are *stepped* through,
   which is what keeps every observable cycle-exact.

**Contention-free plans** skip the detector altogether.  When every
directed channel carries exactly one flow (any single spanning tree, and
every edge-disjoint plan), at capacity 1 with unbounded buffers, no fault
schedule and no observer, nothing is ever arbitrated and every flow's
``sent`` counter has a closed form (derived in :func:`_wavefront_starts`).
``run()`` then jumps straight to the cycle before each tree completes,
sets ``sent`` and the grants in flight there in closed form, and steps
that one cycle for real — so a deep tree's ``4·depth`` fill and drain
cycles cost one or two stepped cycles, not ``4·depth``.  Every stepped cycle is checked
against the closed form; a mismatch raises instead of continuing.

``step()`` remains an honest single-cycle step (the engine is a drop-in
:class:`~repro.simulator.engine.CycleEngine`) and ``run()`` is the one
loop that leaps.  Observers see it through the ``telemetry`` hooks: a
leap reaches them as one ``on_leap`` call with the verified period and a
dead wait as one ``on_idle``, so a collector reconstructs its samples and
:func:`~repro.simulator.trace.trace_allreduce` records a leap as one
``(repeat, period-block)`` run, keeping paper-scale traces O(events) in
memory.  ``flits_moved`` is ``sent.sum()``, so a leap updates no other
counter.  Cycle-exactness versus both existing engines is enforced by the
differential suite (``tests/test_fastcycle_equivalence.py``,
``tests/test_leap.py``); the unbounded-in-``m`` speedup is recorded by
``benchmarks/test_bench_leap.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.cycle import CycleStats, EngineRun
from repro.simulator.engine_layout import EngineLayout
from repro.simulator.fastcycle import FastCycleSimulator
from repro.simulator.faultsched import FaultSchedule
from repro.topology.graph import Graph
from repro.trees.tree import SpanningTree

__all__ = ["LeapCycleSimulator", "SteadyRings"]

_INF_K = 1 << 60  # "no constraint" leap bound
_BIG = 1 << 62


def _wavefront_starts(lay: EngineLayout) -> np.ndarray:
    """Start cycle ``a_f`` of every flow of a contention-free embedding.

    Preconditions: capacity 1, one flow per directed channel, unbounded
    buffers, no faults.  Then a flow with a positive budget is always
    granted its one flit, and every flow follows

        ``sent_f(t) = clip(t - a_f + 1, 0, m_i)``   (``m_i`` its tree's),

    i.e. it sends one flit per cycle from cycle ``a_f`` until done, with

    - ``a_f = 1 + height(src)`` for a reduce flow, and
    - ``a_f = 1 + height(root) + depth(src)`` for a broadcast flow.

    Derivation, by induction up and then down the tree.  Flits sent in
    cycle ``t`` land at the start of cycle ``t + 1``, and a flow's budget
    in cycle ``t`` is its availability minus its ``sent`` after ``t - 1``.
    A leaf's reduce flow has all ``m_i`` flits available, so it sends
    from cycle 1 (``height 0``).  An interior node's frontier
    in cycle ``t`` is the min over its children ``c`` of their landed
    counts, ``min_c clip(t - a_c, 0, m_i) = clip(t - max_c a_c, 0, m_i)``,
    so its reduce flow starts one cycle after its latest child:
    ``a = 1 + max_c a_c = 1 + height``.  The root's broadcast flows read
    the root's frontier ``clip(t - height(root), 0, m_i)`` and start at
    ``1 + height(root)``; an interior broadcast flow reads its source's
    landed broadcast count and starts one cycle after its parent's
    broadcast flow, adding ``depth(src)``.

    Depths and heights both come from pointer doubling over all trees
    at once, ``ceil(log2 n)`` rounds each, so path-like trees (depth
    about ``n/2``) cost no per-level Python loop.
    """
    n = lay.n
    size = lay.num_trees * n
    red = lay.flow_is_reduce
    child = lay.flow_tree[red] * n + lay.flow_src[red]
    parent = np.arange(size, dtype=np.int64)  # roots point at themselves
    parent[child] = lay.flow_tree[red] * n + lay.flow_dst[red]
    # depth: each round adds the distance to the current ancestor pointer
    # and doubles the pointer's reach (saturating at the root)
    depth = np.zeros(size, dtype=np.int64)
    depth[child] = 1
    anc, span = parent, 1
    while span < n:
        depth += depth[anc]
        anc = anc[anc]
        span <<= 1
    # deepest descendant: each round hands every node's value to its
    # 2^k-th ancestor, so after round k a node has seen all descendants
    # within 2^(k+1) - 1 levels (a saturated pointer hands it to the
    # root, an ancestor too)
    deepest = depth.copy()
    anc, span = parent, 1
    while span < n:
        np.maximum.at(deepest, anc, deepest.copy())
        anc = anc[anc]
        span <<= 1
    height = deepest - depth
    src = lay.flow_tree * n + lay.flow_src
    root_h = height[np.arange(lay.num_trees, dtype=np.int64) * n + lay.roots]
    return np.where(red, 1 + height[src], 1 + root_h[lay.flow_tree] + depth[src])


class _Steady:
    """A verified steady state: per-period delta + leap validity bounds."""

    __slots__ = ("period", "k_bound", "r_sent", "phase_chd", "phase_q", "phase_dq")

    def __init__(self, period, k_bound, r_sent, phase_chd, phase_q=None,
                 phase_dq=None):
        self.period = period
        self.k_bound = k_bound          # max whole periods leapable now
        self.r_sent = r_sent            # per-period per-flow grants
        self.phase_chd = phase_chd      # (C, P) per-phase channel activity
        # telemetry reconstruction (built only with an observer attached):
        self.phase_q = phase_q          # (P, n) confirmed per-phase queues
        self.phase_dq = phase_dq        # (P, n) per-period queue drift


class LeapCycleSimulator(FastCycleSimulator):
    """Cycle-leaping drop-in replacement for the per-cycle engines.

    Identical observables to :class:`CycleSimulator` /
    :class:`FastCycleSimulator` — same per-channel per-cycle flit counts,
    per-tree completion cycles, :class:`CycleStats`, stall and
    ``max_cycles`` semantics — but ``run()`` wall-clock is independent of
    the flits-per-tree message size in the steady-state-dominated regime.
    It steps the warm-up and the drain (about ``4·depth`` cycles) plus a
    few cycles per event, except on contention-free plans (one flow per
    channel, capacity 1, unbounded buffers, no faults, no observer),
    where it steps one cycle per distinct tree-completion cycle and jumps
    the fill and drain in closed form.

    Introspection: ``leap_log`` records ``(start_cycle, period, k)`` for
    every jump taken (a closed-form wavefront jump of ``d`` cycles is
    logged as ``(start_cycle, 1, d)``); ``stepped_cycles`` counts cycles
    actually stepped, and ``stepped_cycles + sum(period * k) == cycles``.

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
    #: ring memory budget, in bytes (the detectable period it leaves
    #: never drops below 2, see ``__init__``)
    _VERIFY_BUDGET = 1 << 22

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
        # ring memory budget: the rings hold two periods of rows, each
        # charged at 4*T*n + 2F + C + 1 words — so P_MAX-sized candidates
        # can't over-allocate on large embeddings; the budget shrinks the
        # detectable period instead (correctness is unaffected, only
        # detection reach), but never below 2: pipelined steady states
        # repeat with period 2, and a reach of 1 would never leap them.
        # A row holds about a third of that (``sent`` and the packed
        # signature bits); the charge is kept because it fixes each
        # plan's detectable period, and with it every leap the engine
        # takes
        row = 8 * (4 * self._T * self.n + 2 * self._F + self._C + 1)
        self._p_max = min(self.P_MAX, max(2, self._VERIFY_BUDGET // (2 * row)))
        self.leap_log: List[Tuple[int, int, int]] = []
        self.stepped_cycles = 0
        self.idle_skipped = 0  # dead-wait cycles fast-forwarded, not stepped
        self._rings = SteadyRings(self)
        self._reset_detector()
        # contention-free plans: closed-form start cycle of every flow and
        # completion cycle of every tree (a tree with m_i > 0 is done once
        # its last flow, started at max a_f, has landed m_i flits)
        self._wave_a: Optional[np.ndarray] = None
        if (
            self._F
            and self.capacity == 1
            and self.buffer_size is None
            and self.faults is None
            and telemetry is None
            and int(self._lay.ch_k.max()) == 1
        ):
            a = self._wave_a = _wavefront_starts(self._lay)
            self._wave_m = self._m_arr[self._lay.flow_tree]
            self._wave_done = a.reshape(self._T, -1).max(axis=1) + self._m_arr

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
        self, per_flow: np.ndarray, members: np.ndarray, rates: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """The mins of ``per_flow`` over every aggregation group's
        ``members`` (``child_up.fid`` or ``child_bc.fid``), their forward
        per-period rates, and the max k for which those rates are
        licensed.

        Each group's min advances at ``rstar``, the slowest rate among its
        current argmin members, for as long as every faster-shrinking
        non-argmin member keeps ``gap + k*delta >= 0`` — i.e. while the
        argmin set is stable."""
        off, sizes = self._lay.grp_off, self._lay.grp_size
        vals, rates = per_flow[members], rates[members]
        mins = np.minimum.reduceat(vals, off)
        gaps = vals - np.repeat(mins, sizes)
        rstar = np.minimum.reduceat(np.where(gaps == 0, rates, _BIG), off)
        delta = rates - np.repeat(rstar, sizes)
        neg = delta < 0
        if not neg.any():
            return mins, rstar, _INF_K
        return mins, rstar, int((gaps[neg] // -delta[neg]).min())

    def _completion_bound(self, r_sent: np.ndarray) -> int:
        """Max k with no tree completing inside the leap: a tree cannot be
        done while one of its broadcast flows still has ``sent < m_i``
        (delivered <= sent), so keep one such flow per tree strictly below
        ``m_i``. Picks, per tree, the flow that allows the longest leap."""
        if not self._F:
            return _INF_K
        # each tree's n - 1 broadcast flows, the odd flow ids: (T, n-1)
        sent = self.sent[1::2].reshape(self._T, -1)
        g = r_sent[1::2].reshape(self._T, -1)
        headroom = (self._m_arr[:, None] - 1) - sent
        ok = headroom >= 0
        bound = np.where(ok & (g == 0), _INF_K, np.int64(-1))
        moving = ok & (g > 0)
        bound = np.where(moving, headroom // np.maximum(g, 1), bound)
        per_tree = bound.max(axis=1)
        per_tree = np.where(self.done_mask(), _INF_K, per_tree)
        return max(int(per_tree.min()), 0)

    def _license_bounds(
        self,
        k: int,
        phases: Sequence[Tuple[np.ndarray, np.ndarray]],
        r_sent: np.ndarray,
    ) -> Tuple[int, List[np.ndarray], List[np.ndarray]]:
        """Shrink ``k`` to the largest jump licensed by the period
        preceding the leap, given per phase its ring rows ``(sent before,
        sent after)``: the step of that phase computed its budgets from
        the ``sent`` before it, when every earlier flit had landed.

        Forward per-period rates of the raw counters are exact while the
        grant pattern repeats; the rates of the mins come from the argmin
        group (per phase), not from boundary deltas, which argmin churn
        between the two confirmed periods could silently corrupt.  With an
        observer attached each phase also yields its post-step queues and
        their drift (the telemetry reconstruction), which adds one
        argmin-stability bound on ``k``.  Phases are read only until
        ``k`` reaches 0."""
        lay = self._lay
        buffered = self.buffer_size is not None
        tel_on = self.telemetry is not None
        no_drift = np.zeros(self._T, dtype=np.int64)  # leaves' m_i
        phase_q: List[np.ndarray] = []
        phase_dq: List[np.ndarray] = []
        for pre, post in phases:
            if k <= 0:
                break
            agg, rstar_agg, gb = self._min_group_terms(pre, lay.child_up.fid, r_sent)
            k = min(k, gb)
            avail = lay.available(pre, agg, self._m_arr) - pre
            d_avail = lay.available(r_sent, rstar_agg, no_drift) - r_sent
            k = min(k, self._regime_bound(avail, d_avail))
            if buffered:
                bcm, rstar_bcm, bb = self._min_group_terms(
                    pre, lay.child_bc.fid, r_sent
                )
                k = min(k, bb)
                credit = self.buffer_size + lay.consumed(pre, bcm) - pre
                r_cons = lay.consumed(r_sent, rstar_bcm)
                k = min(k, self._regime_bound(credit, r_cons - r_sent))
            if tel_on:
                # license linear queue reconstruction inside the leap: the
                # post-step broadcast mins must advance at their argmin-
                # stable rate too (one extra bound on k), and the queue
                # drift is derived from those rates — never from boundary
                # deltas, which argmin churn could corrupt
                bcm_t, rstar_bcm_t, bb_t = self._min_group_terms(
                    post, lay.child_bc.fid, r_sent
                )
                k = min(k, bb_t)
                r_cons_t = lay.consumed(r_sent, rstar_bcm_t)
                dq = np.zeros(self.n, dtype=np.int64)
                np.add.at(dq, lay.flow_dst, r_sent - r_cons_t)
                phase_q.append(self._queues(post, post - pre, bcm_t))
                phase_dq.append(dq)
        return k, phase_q, phase_dq

    # -------------------------------------------------------------- leaping

    def _take_leap(self, run: EngineRun) -> int:
        """Consume a verified steady state and advance ``run`` past it:
        returns the cycles leapt — 0 when no leap is possible now."""
        st = self._steady
        if st is None:
            return 0
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
            return 0
        if self.telemetry is not None:
            # reconstruct in-leap samples while the state is still the
            # pre-leap base the reconstruction extrapolates from
            self.telemetry.on_leap(self, cycle, st, k)
        # whole periods: the grants in flight are the period's last again
        self.sent += k * st.r_sent
        # keep the engine's internal cycle counter (the fault clock that
        # step() consults via down_edges_at) in lockstep with the leap
        leapt = k * st.period
        self.cycle += leapt
        run.cycle += leapt
        self.leap_log.append((cycle, st.period, k))
        self._reset_detector()
        return leapt

    # ---------------------------------------------------- wavefront jumps

    def _wave_sent(self, t: int) -> np.ndarray:
        """Closed-form per-flow ``sent`` after cycle ``t`` (see
        :func:`_wavefront_starts`)."""
        return np.clip(t + 1 - self._wave_a, 0, self._wave_m)

    def _wave_jump(self, run: EngineRun) -> None:
        """Jump to the cycle before the next tree completion (never past
        ``max_cycles``) and set the state there in closed form: ``sent``
        and the flits granted this cycle, in flight.  Pointer bits stay
        set: a channel with one flow always points back at it."""
        nxt = int(self._wave_done[~run.done].min()) - 1
        t = nxt if nxt <= run.max_cycles else int(run.max_cycles)
        start = run.cycle
        if t <= start:
            return
        sent = self._wave_sent(t)
        self._grant = sent > self._wave_sent(t - 1)
        self.sent[:] = sent
        self.cycle = run.cycle = t
        self.leap_log.append((start, 1, t - start))
        self._reset_detector()

    def _wave_check(self) -> None:
        """A stepped cycle must agree with the closed form exactly."""
        expect = self._wave_sent(self.cycle)
        if not np.array_equal(self.sent, expect):
            bad = np.flatnonzero(self.sent != expect)
            raise RuntimeError(
                f"wavefront closed form diverged at cycle {self.cycle}: "
                f"{len(bad)} flows differ (first fid {int(bad[0])})"
            )

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
        per-cycle engines.  A fresh contention-free engine instead jumps
        to the cycle before each tree completion and steps that cycle."""
        run = EngineRun(self, max_cycles)
        self._reset_detector()
        if self._wave_a is not None and self.cycle == 0:
            while not run.finished:
                self._wave_jump(run)
                run.tick(self.step())
                self._wave_check()
            return run.stats()
        while not run.finished:
            if self._take_leap(run):
                continue
            if run.tick(self.step()):
                self._skip_idle(run)
        return run.stats()


# ------------------------------------------------------------ steady rings


class SteadyRings:
    """Preallocated detection rings: the leap engine's steady-state
    detector.

    Every stepped cycle records its exact signature (the grants in
    flight and the pointer bits) and the per-flow ``sent`` vector — the
    rest of the engine's state — into fixed ring rows; channel activity
    is derived from ``sent``.  When two consecutive periods match
    bit-for-bit *in the rings*, the per-period delta and the licensed
    jump bound are computed from the recorded rows — zero additional
    stepped cycles.

    The budget components the jump bound needs are derived lazily at
    confirmation time, entirely from the rings: the cycle recorded at
    slot ``s`` computed its budgets from the ``sent`` of the *previous*
    slot, and left the ``sent`` of its own.  The same rows give the
    post-step queues and broadcast-min inputs that in-leap telemetry
    reconstruction needs.  A refused confirmation (the ``sent`` deltas
    are still converging) is retried on the very next repetition — a
    retry costs ring compares, never re-stepping — so steady states are
    leaped at the earliest cycle the evidence supports.

    Ring length is ``2*p_max + 1`` rows (the confirmation reads back to
    ``tick - 2P`` inclusively); the rows are charged (at more bytes than
    they hold, see ``LeapCycleSimulator.__init__``) against the engine's
    byte budget (``_VERIFY_BUDGET``) when ``_p_max`` is derived, so
    large-``q`` embeddings shrink the detectable period instead of
    over-allocating — down to a floor of 2, the period of a pipelined
    steady state, where the rings may exceed the budget.
    """

    def __init__(self, sim: LeapCycleSimulator) -> None:
        self.p_max = sim._p_max
        R = 2 * self.p_max + 1
        self.R = R
        self.sig: List[Optional[Tuple[bytes, bytes]]] = [None] * R
        self.sent = np.zeros((R, sim._F), dtype=np.int64)
        self.tick = 0
        self.cooldown = 0
        self.last_seen: dict = {}

    @property
    def nbytes(self) -> int:
        """Bytes held by the preallocated ring arrays (signatures aside)."""
        return self.sent.nbytes

    def reset(self, sim: LeapCycleSimulator) -> None:
        """Restart detection (state changed discontinuously: init, leap,
        or a fault-schedule event cycle).  Slot 0 snapshots the restart
        state — it is the ``tick - 2P`` base when a candidate confirms at
        ``tick == 2P`` exactly."""
        self.tick = 0
        self.cooldown = 0
        self.last_seen = {}
        np.copyto(self.sent[0], sim.sent)

    def observe(self, sim: LeapCycleSimulator) -> None:
        """Record this stepped cycle's row and try to confirm a steady
        state from the rings (sets ``sim._steady`` on success)."""
        self.tick += 1
        t = self.tick
        s = t % self.R
        # the grants in flight and the pointer bits: the state ``sent``
        # does not hold
        grant = sim._grant
        sig = (
            np.packbits(grant).tobytes() if grant.dtype == bool else grant.tobytes(),
            np.packbits(sim._ptr).tobytes(),
        )
        self.sig[s] = sig
        np.copyto(self.sent[s], sim.sent)

        if sim._steady is not None:
            return  # waiting for run() to consume the leap
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
        r_sent = sim.sent - self.sent[s1]
        if not np.array_equal(r_sent, self.sent[s1] - self.sent[(t - 2 * P) % R]):
            # signatures repeat but the deltas have not settled into the
            # period yet — retry at the next repetition
            return
        if not r_sent.any():
            # never leap a zero-progress period: the per-cycle engines'
            # stall detection must fire at its exact cycle
            self.cooldown = P
            return
        # the rows of each phase, as views: the step at slot ``s`` read
        # the ``sent`` of the *previous* slot and left the ``sent`` of its
        # own
        slots = [(t - P + 1 + j) % R for j in range(P)]
        phases = [(self.sent[s - 1], self.sent[s]) for s in slots]
        k = sim._completion_bound(r_sent)
        k, phase_q, phase_dq = sim._license_bounds(k, phases, r_sent)
        if k <= 0:
            self.cooldown = P
            return
        # per-phase channel activity: channel totals of each cycle's grants
        chd = sim._lay.channel_totals(
            np.stack([post - pre for pre, post in phases], axis=1)
        )
        sim._steady = _Steady(
            period=P,
            k_bound=k,
            r_sent=r_sent,
            phase_chd=chd,
            phase_q=np.stack(phase_q) if phase_q else None,
            phase_dq=np.stack(phase_dq) if phase_dq else None,
        )
