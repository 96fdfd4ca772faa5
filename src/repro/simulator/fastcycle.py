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
- round-robin arbitration is replaced by closed forms over per-flow
  pointer bits: :func:`round_robin` at ``link_capacity == 1`` (the
  common case), and for larger capacities :func:`water_fill`, where
  ``T`` complete passes hand flow ``i`` exactly ``min(b_i, T)`` flits
  and the remaining ``R`` go to the first ``R`` flows with ``b_i > T``
  in cyclic order.  The per-flow grants are the in-flight state: they
  land one cycle later as an assignment of ``sent`` to each flow's own
  landing cell (:func:`land_and_budget`, which also computes the
  budgets), and channel totals are derived from ``sent``.  All three
  functions take a trailing lane axis and are shared with the batched
  lane evaluator.

Cycle-exactness (same per-channel per-cycle flit counts, same completion
cycles, same round-robin pointer trajectory, same :class:`CycleStats`) is
enforced by ``tests/test_fastcycle_equivalence.py``; the speedup is
recorded by ``benchmarks/test_bench_fastcycle.py``.

Every cycle is the same two phases — :meth:`begin_cycle` (land, budgets)
and :meth:`finish_cycle` (arbitrate, send) — whether the engine runs
solo, under telemetry, or gated by the multi-tenant fabric.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.simulator.cycle import CycleStats, EngineRun, check_engine_args, gate_mask
from repro.simulator.engine_layout import AGG as _AGG
from repro.simulator.engine_layout import BCD as _BCD
from repro.simulator.engine_layout import EngineLayout
from repro.simulator.faultsched import FaultSchedule
from repro.topology.graph import Graph
from repro.trees.tree import SpanningTree

__all__ = [
    "FastCycleSimulator",
    "land_and_budget",
    "refresh_agg",
    "round_robin",
    "water_fill",
]

_INF = 1 << 62  # root pin: above any flit count the int64 headroom check admits


def round_robin(
    lay: EngineLayout, pos: np.ndarray, ptr: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Closed form of the capacity-1 round robin, in flow space.

    ``pos`` marks the flows with a positive budget and ``ptr`` holds the
    pointer bits (``ptr[f]``: ``f``'s channel points at ``f``'s slot;
    exactly one per channel), both (F,) or (F, L) with a trailing lane
    axis.  Returns the grants (same shape, bool) and the new pointer bits.

    Each channel grants its first eligible flow at or after the pointer
    and moves the pointer one slot past it; with nothing eligible it
    grants nothing and the pointer holds.  With ``p = lay.flow_prev``
    the cyclic predecessor slot, let ``c[f]`` say "a flow in the slots
    from the pointer up to, not including, ``f`` is eligible".  Walking
    back from ``f`` and stopping at the pointer gives

        c = ~ptr & pos[p],  then  c = ~ptr & (pos | c)[p]

    repeated until the walk spans ``lay.rr_hops = max(ch_k) - 1`` slots:
    no flow is more than ``ch_k - 1`` slots past its pointer, and the
    ``~ptr`` factor ends every walk there, so no walk wraps.  Then
    ``grant = pos & ~c``, and the pointer moves to the slot after the
    grant (``grant[p]``) or holds at ``f`` when ``f`` and, through its
    predecessor, every other slot are ineligible:
    ``ptr' = grant[p] | (ptr & ~(pos | (pos | c)[p]))``.  Gathers
    distribute over ``&`` and ``|``, so only ``pos[p]`` and each ``c[p]``
    are gathered: two gathers at ``max(ch_k) == 2`` (low-depth plans),
    none at 1 (edge-disjoint plans: ``grant = pos``, pointers still).
    """
    hops = lay.rr_hops
    if hops == 0:
        return pos, ptr
    prev = lay.flow_prev
    free = ~ptr
    pos_p = pos[prev]
    c = free & pos_p
    for _ in range(hops - 1):
        c = free & (pos_p | c[prev])
    c_p = c[prev]
    grant = pos & ~c
    # grant[p] and (pos | c)[p], from the two gathered predecessors
    moved_to = pos_p & ~c_p
    return grant, moved_to | (ptr & ~(pos | pos_p | c_p))


def water_fill(
    lay: EngineLayout,
    budget: np.ndarray,
    capacity: Union[int, np.ndarray],
    ptr: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Closed form of the one-flit-per-visit round robin at any capacity,
    in flow space.

    ``budget`` holds per-flow budgets and ``ptr`` the pointer bits, both
    (F,) or (F, L) as in :func:`round_robin`; ``capacity`` is a scalar or
    one per lane, (L,).  Returns the per-flow grants (``budget``'s shape,
    int64) and the new pointer bits.

    A channel sends ``S = min(sum b_i, capacity)`` flits.  Let ``T`` be
    the most complete passes that leave a flit to send, the largest ``T``
    with ``sum min(b_i, T) < S``: they hand flow ``i`` ``min(b_i, T)``
    flits, and the other ``R`` (at least one, at most the number of flows
    with ``b_i > T``) go to the first ``R`` flows with ``b_i > T`` in
    cyclic order from the pointer — the cycle's last, partial pass.  The
    rank ``r`` of a flow among those, counted from the pointer, comes
    from the predecessor walk of :func:`round_robin`,

        r = where(ptr, 0, (r + (b > T))[p])

    repeated ``lay.rr_hops`` times.  The pointer moves to the slot after
    the cycle's last grant, the one ranked ``R - 1``, and holds on a
    channel that sends nothing (``R == 0``).
    """
    b = np.maximum(budget, 0)
    S = np.minimum(lay.channel_totals(b), capacity)
    # T < S: a pass within the largest budget grants at least one flit,
    # and past it sum min(b, T) = sum b >= S; so the search stops below
    # max(S), or sooner, once no channel has a flit left over
    T = np.zeros_like(S)
    for p in range(1, int(S.max(initial=0))):
        below = lay.channel_totals(np.minimum(b, p)) < S
        if not below.any():
            break
        T += below
    T = T[lay.flow_ch]
    grant = np.minimum(b, T)
    R = (S - lay.channel_totals(grant))[lay.flow_ch]
    want = b > T
    prev = lay.flow_prev
    r = np.zeros_like(grant)
    for _ in range(lay.rr_hops):
        r = np.where(ptr, 0, (r + want)[prev])
    grant += want & (r < R)
    last = want & (r == R - 1)
    return grant, np.where(R > 0, last[prev], ptr)


def refresh_agg(lay: EngineLayout, flat: np.ndarray) -> None:
    """Recompute every streaming-aggregation frontier of the flat state
    ``flat`` ((4*T*n,) or (4*T*n, L)) from its up-delivered counters."""
    if len(lay.grp_off):
        flat[lay.grp_agg_idx] = np.minimum.reduceat(
            flat[lay.child_up_idx], lay.grp_off
        )


def land_and_budget(
    lay: EngineLayout,
    flat: np.ndarray,
    sent: np.ndarray,
    buffer: Optional[Union[int, np.ndarray]],
) -> np.ndarray:
    """Phases 1–2 of a cycle, over the flat state ``flat`` and the
    per-flow ``sent`` counters ((F,) or (F, L)): land last cycle's
    in-flight flits, refresh the aggregation frontiers and return the
    per-flow budgets of the start-of-cycle snapshot — availability less
    ``sent``, capped by the credit ``buffer - (sent - consumed)`` unless
    ``buffer`` (a scalar or one per lane) is ``None``."""
    # one-cycle hop latency: each flow's landing cell is its own and
    # trails its ``sent`` by exactly the flits in flight
    flat[lay.land_idx] = sent
    refresh_agg(lay, flat)
    budget = flat[lay.avail_idx] - sent
    if buffer is not None:
        bcm = np.minimum.reduceat(sent[lay.child_bcfid], lay.grp_off)
        flat[lay.grp_bcm_idx] = bcm
        cons = lay.consumed(sent, bcm, flat)
        np.minimum(budget, buffer - (sent - cons), out=budget)
    return budget


class FastCycleSimulator:
    """Vectorized drop-in replacement for :class:`CycleSimulator`.

    Implements the :class:`~repro.simulator.engine.CycleEngine` surface
    (``step`` / ``done_mask`` / ``channels`` / ``channel_flit_counts`` /
    ``run``) and is cycle-exact: every observable — per-channel per-cycle
    activity, per-tree completion cycles, the final :class:`CycleStats` —
    is identical to the reference engine's.
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
        self._C = lay.num_channels
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

        # ---- arbitration state: one pointer bit per flow (the pointer
        # of each channel starts at slot 0), and the flits granted last
        # cycle (the leap engine's period signature reads them)
        self._ptr = lay.flow_slot == 0
        self._grant = np.zeros(F, dtype=bool)

        # dead-link set / budget mask of the current fault segment
        # (updated lazily: the set of down links only changes at schedule
        # event cycles)
        self._dead_now: FrozenSet[Tuple[int, int]] = frozenset()
        self._dead_mask: Optional[np.ndarray] = None
        refresh_agg(lay, self._flat)

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
        if self._F == 0:
            return None
        budget = land_and_budget(self._lay, self._flat, self.sent, self.buffer_size)
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
        lay = self._lay
        mask = gate_mask(blocked, self._C)
        if mask is not None:
            budget = np.where(mask[lay.flow_ch], 0, budget)
        # 3. arbitrate: grants per flow, in flight until the next boundary
        if self.capacity == 1:
            grant, self._ptr = round_robin(lay, budget > 0, self._ptr)
            moved = int(np.count_nonzero(grant))
        else:
            grant, self._ptr = water_fill(lay, budget, self.capacity, self._ptr)
            moved = int(grant.sum())
        self._grant = grant
        self.sent += grant
        return moved

    def channel_demand(self, budget: Optional[np.ndarray]) -> np.ndarray:
        """Per-channel count of flows with a positive budget (aligned with
        :meth:`channels`) — what the fabric's arbitration policies read to
        stay work-conserving."""
        if budget is None:
            return np.zeros(self._C, dtype=np.int64)
        return np.bincount(
            self._lay.flow_ch, weights=budget > 0, minlength=self._C
        ).astype(np.int64)

    # ----------------------------------------------------- engine protocol

    @property
    def flits_moved(self) -> int:
        """Total directed flit-hops so far: the sum of ``sent``."""
        return int(self.sent.sum())

    def done_mask(self) -> np.ndarray:
        """Per-tree completion, counting only flits that have landed: the
        landed broadcast floor has reached ``m_i``.  The floor alone
        suffices — a node only receives broadcast flits the root fully
        aggregated, and roots are pinned at ``_INF``."""
        return self._state[_BCD].min(axis=1) >= self._m_arr

    def channels(self) -> List[Tuple[int, int]]:
        return self._lay.channels()

    def channel_flit_counts(self) -> List[int]:
        return self.channel_flit_array().tolist()

    def channel_flit_array(self) -> np.ndarray:
        """:meth:`channel_flit_counts` as a fresh int64 array, for
        observers that do arithmetic on it (derived from ``sent``)."""
        return self._lay.channel_totals(self.sent)

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
        out = np.zeros(self.n, dtype=np.int64)
        np.add.at(out, lay.flow_dst, sent - lay.consumed(sent, bcm, flat))
        return out

    def queue_occupancy(self) -> List[int]:
        """Per-router receiver-side queue occupancy (reference semantics,
        one bincount)."""
        return self._queues(self._flat, self.sent).tolist()

    def phase_flit_totals(self) -> Tuple[List[int], List[int]]:
        """Cumulative (reduce, broadcast) flit-hops per tree (flows are
        tree-major, reduce and broadcast alternating)."""
        if not self._F:
            return [0] * self._T, [0] * self._T
        rows = self.sent.reshape(self._T, -1)
        return rows[:, 0::2].sum(axis=1).tolist(), rows[:, 1::2].sum(axis=1).tolist()

    def run(self, max_cycles: Optional[int] = None) -> CycleStats:
        """Run to completion of all trees under the :class:`EngineRun`
        contract (reference stall, guard and stats semantics)."""
        run = EngineRun(self, max_cycles)
        while not run.finished:
            run.tick(self.step())
        return run.stats()
