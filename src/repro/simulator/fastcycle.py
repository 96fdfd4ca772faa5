"""NumPy-vectorized cycle engine — cycle-exact vs :class:`CycleSimulator`.

The reference simulator (:mod:`repro.simulator.cycle`) walks per-flit
Python dicts every cycle; this engine advances *all* directed channels per
cycle with array operations and produces bit-identical results:

- the whole state is one ``sent`` counter per flow, plus the flits
  granted last cycle, which are in flight until the next cycle boundary
  (so a flow's landed counter is ``sent - grant``).  Every per-(tree,
  phase) frontier the reference keeps — delivered reduction / broadcast
  counters, the streaming-aggregation frontier, and the consumption
  counters that back credits — is a flow-space gather of ``sent`` through
  the index maps of an
  :class:`~repro.simulator.engine_layout.EngineLayout` (whose docstring
  states the flow-order contract the round robin depends on);
- streaming aggregation gathers each one-child group's only member and
  runs one ``np.minimum.reduceat`` over the multi-child groups' children
  lists (:meth:`~repro.simulator.engine_layout.EngineLayout.group_mins`);
  budgets and credits are computed from the start-of-cycle ``sent``,
  when every flit sent before has landed, so the two-cycle credit loop is
  reproduced exactly (:func:`flow_budgets`);
- round-robin arbitration is replaced by closed forms over per-flow
  pointer bits: :func:`round_robin` at ``link_capacity == 1`` (the
  common case), and for larger capacities :func:`water_fill`, where
  ``T`` complete passes hand flow ``i`` exactly ``min(b_i, T)`` flits
  and the remaining ``R`` go to the first ``R`` flows with ``b_i > T``
  in cyclic order.  PolarFly plans put at most two flows on a channel
  (the low-depth trees share a link between at most two trees, the
  edge-disjoint trees never share one), and there the round robin is one
  gather of the partner flow's eligibility; the predecessor walk
  (:func:`round_robin_walk`) serves channels of three or more flows.  The
  per-flow grants only advance ``sent``, and channel totals are derived
  from ``sent``.  These functions take a trailing lane axis and are
  shared with the batched lane evaluator;
- the completion test (:func:`trees_done`) runs only once a tree can have
  finished: a flow sends at most ``capacity`` flits a cycle, so a tree
  ``r`` flits short is not done for ``ceil(r / capacity)`` cycles
  (:func:`done_wait`), and ``done_mask`` hands back its last mask until
  then (:class:`CompletionCache`, shared with the batched lanes).

Cycle-exactness (same per-channel per-cycle flit counts, same completion
cycles, same round-robin pointer trajectory, same :class:`CycleStats`) is
enforced by ``tests/test_fastcycle_equivalence.py``, and each shortcut
above against its general form by ``tests/test_fast_step_oracles.py``;
the speedup and the per-phase cost are recorded by
``benchmarks/test_bench_fastcycle.py``.

Every cycle is the same two phases — :meth:`begin_cycle` (budgets) and
:meth:`finish_cycle` (arbitrate, send) — whether the engine runs solo,
under telemetry, or gated by the multi-tenant fabric.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.simulator.cycle import CycleStats, EngineRun, check_engine_args, gate_mask
from repro.simulator.engine_layout import EngineLayout
from repro.simulator.faultsched import FaultSchedule
from repro.topology.graph import Graph
from repro.trees.tree import SpanningTree

__all__ = [
    "CompletionCache",
    "FastCycleSimulator",
    "done_wait",
    "flow_budgets",
    "round_robin",
    "round_robin_walk",
    "trees_done",
    "water_fill",
]

#: a ``done_wait`` past any run: every tree is done for good
_NEVER = 1 << 62


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
    grants nothing and the pointer holds.  The PolarFly plans carry at
    most two flows on a channel (``lay.rr_hops <= 1``), and there the
    rule has a one-gather form.  With ``p = lay.flow_prev`` the other
    flow of a two-flow channel (``p`` is the identity on a one-flow
    channel, and ``p∘p`` is the identity on both),

        y = pos[p] & ~ptr

    says "the pointer is at ``f``'s partner and the partner is
    eligible", i.e. the partner goes first.  So ``grant = pos & ~y``.
    The pointer lands on ``f`` when the partner was granted — exactly
    ``y`` — or stays on ``f`` when ``f`` held it and was not granted:
    ``ptr' = (ptr & ~(pos & shared)) | y``, where ``shared``
    (``lay.flow_shared``) marks two-flow channels (a one-flow channel's
    pointer never moves, and there ``y`` is always false).  On bool
    arrays ``a & ~b`` is ``a > b``: one gather and five element-wise
    operations.  Edge-disjoint plans (``rr_hops == 0``) grant ``pos``
    and keep their pointers; channels with three or more flows take the
    general walk, :func:`round_robin_walk`.
    """
    hops = lay.rr_hops
    if hops == 0:
        return pos, ptr
    if hops > 1:
        return round_robin_walk(lay, pos, ptr)
    shared = lay.flow_shared if pos.ndim == 1 else lay.flow_shared[:, None]
    y = pos[lay.flow_prev] > ptr
    return pos > y, (ptr > (pos & shared)) | y


def round_robin_walk(
    lay: EngineLayout, pos: np.ndarray, ptr: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`round_robin` at any channel width, by a predecessor walk
    (the arbitration of channels with three or more flows, and the
    oracle of the two-flow form).

    With ``p = lay.flow_prev`` the cyclic predecessor slot, let ``c[f]``
    say "a flow in the slots from the pointer up to, not including,
    ``f`` is eligible".  Walking back from ``f`` and stopping at the
    pointer gives

        c = ~ptr & pos[p],  then  c = ~ptr & (pos | c)[p]

    repeated until the walk spans ``lay.rr_hops = max(ch_k) - 1`` slots
    (one step at the least): no flow is more than ``ch_k - 1`` slots
    past its pointer, and the ``~ptr`` factor ends every walk there, so
    no walk wraps.  Then ``grant = pos & ~c``, and the pointer moves to
    the slot after the grant (``grant[p]``) or holds at ``f`` when
    ``f`` and, through its predecessor, every other slot are
    ineligible: ``ptr' = grant[p] | (ptr & ~(pos | (pos | c)[p]))``.
    Gathers distribute over ``&`` and ``|``, so only ``pos[p]`` and
    each ``c[p]`` are gathered.
    """
    prev = lay.flow_prev
    free = ~ptr
    pos_p = pos[prev]
    c = free & pos_p
    for _ in range(lay.rr_hops - 1):
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
    cyclic order from the pointer — the cycle's last, partial pass.
    ``sum min(b_i, T) < S`` is monotone in ``T``, so every channel's
    ``T`` is found bit by bit, in ``ceil(log2(max S))`` passes over the
    budgets laid out by slot (:meth:`~EngineLayout.by_slot`, gathered
    once).  The rank ``r`` of a flow among those, counted from the
    pointer, comes from the predecessor walk of :func:`round_robin_walk`,

        r = where(ptr, 0, (r + (b > T))[p])

    repeated ``lay.rr_hops`` times.  The pointer moves to the slot after
    the cycle's last grant, the one ranked ``R - 1``, and holds on a
    channel that sends nothing (``R == 0``).
    """
    b = np.maximum(budget, 0)
    # every channel sum below reduces the slot axis: no further gather
    bs = lay.by_slot(b)
    S = np.minimum(bs.sum(axis=0, dtype=np.int64), capacity)
    # T < S: sum min(b, S) >= min(sum b, S) = S.  The test is monotone
    # in T, so T is set bit by bit from the top: a bit stays when the
    # test still holds with it, and max(S) - 1 fits in the bits tried
    T = np.zeros_like(S)
    for k in reversed(range(int(S.max(initial=1) - 1).bit_length())):
        up = T + (1 << k)
        T = np.where(np.minimum(bs, up).sum(axis=0) < S, up, T)
    R = (S - np.minimum(bs, T).sum(axis=0))[lay.flow_ch]
    T = T[lay.flow_ch]
    grant = np.minimum(b, T)
    want = b > T
    prev = lay.flow_prev
    r = np.zeros_like(grant)
    for _ in range(lay.rr_hops):
        r = np.where(ptr, 0, (r + want)[prev])
    grant += want & (r < R)
    last = want & (r == R - 1)
    return grant, np.where(R > 0, last[prev], ptr)


def flow_budgets(
    lay: EngineLayout,
    sent: np.ndarray,
    m: np.ndarray,
    buffer: Optional[Union[int, np.ndarray]],
) -> np.ndarray:
    """Phases 1–2 of a cycle: the per-flow budgets of the start-of-cycle
    ``sent`` counters ((F,) or (F, L)), when last cycle's grants have
    landed — availability less ``sent``, capped by the credit
    ``buffer - (sent - consumed)`` unless ``buffer`` (a scalar or one per
    lane) is ``None``.  ``m`` holds each tree's flit count, (T,) or
    (T, L)."""
    budget = lay.available(sent, lay.group_mins(sent, lay.child_up), m)
    budget -= sent
    if buffer is not None:
        # the credit, buffer - (sent - consumed), built in place
        credit = lay.consumed(sent, lay.group_mins(sent, lay.child_bc))
        credit -= sent
        credit += buffer
        np.minimum(budget, credit, out=budget)
    return budget


def trees_done(sent: np.ndarray, grant: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Per-tree completion, shaped like ``m`` ((T,) or (T, L)), counting
    only flits that have landed: every flow of the tree has sent ``m_i``
    flits (no flow sends more) and none of them is still in flight in
    ``grant``.  The broadcast flows alone decide it — a broadcast only
    carries flits the root fully aggregated, so by the time every
    broadcast flow has sent ``m_i``, every reduce flow has landed ``m_i``
    — and each tree owns a contiguous block of flow ids, so the test
    reads whole rows."""
    if not sent.size:  # no flows: one-node trees hold every flit
        return np.ones(m.shape, dtype=bool)
    rows = (len(m), -1) + sent.shape[1:]
    done = np.minimum.reduce(sent.reshape(rows), axis=1) >= m
    if np.count_nonzero(done):
        done &= ~np.logical_or.reduce(grant.reshape(rows), axis=1)
    return done


def done_wait(
    sent: np.ndarray,
    done: np.ndarray,
    m: np.ndarray,
    capacity: Union[int, np.ndarray],
) -> int:
    """How many cycles must pass before :func:`trees_done` can differ
    from ``done``, its value for ``sent`` ((T,) or (T, L)): at least
    one, and ``_NEVER`` once every tree is done.  A done tree stays done
    — its flows have sent ``m_i`` and can send no more — and a flow
    sends at most ``capacity`` flits a cycle (a scalar, or one per
    lane), so a tree whose slowest flow is ``r`` flits short cannot be
    done until ``ceil(r / capacity)`` more cycles have passed.  That
    holds for every way an engine advances its cycle: steps, leaps,
    closed-form jumps and idle waits."""
    if done.all():
        return _NEVER
    rows = (len(m), -1) + sent.shape[1:]
    short = m - np.minimum.reduce(sent.reshape(rows), axis=1)
    return max(int((-(-short // capacity))[~done].min()), 1)


class CompletionCache:
    """A vectorized engine's completion mask, tested again only once a
    tree can have finished (:func:`done_wait`).  :meth:`read` hands back
    the same array object until then, so a caller can tell that nothing
    completed by identity; the array is shared and must not be modified.
    Setting ``until`` to the current cycle forces the next read to test
    (the batched engine does when it drops lanes)."""

    __slots__ = ("mask", "until")

    def __init__(self, shape: Tuple[int, ...]):
        self.mask = np.zeros(shape, dtype=bool)
        #: the cycle at which the mask is tested again
        self.until = 0

    def read(
        self,
        cycle: int,
        sent: np.ndarray,
        grant: np.ndarray,
        m: np.ndarray,
        capacity: Union[int, np.ndarray],
    ) -> np.ndarray:
        """:func:`trees_done` of ``(sent, grant, m)`` at ``cycle``."""
        if cycle >= self.until:
            self.mask = trees_done(sent, grant, m)
            self.until = cycle + done_wait(sent, self.mask, m, capacity)
        return self.mask


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
        lay = EngineLayout.build(g, self.trees)
        self._lay = lay
        T = self._T = lay.num_trees
        F = self._F = lay.num_flows
        self._C = lay.num_channels
        self._m_arr = np.asarray(self.m, dtype=np.int64).reshape(T)
        # ---- the state: flits sent per flow, and the flits granted last
        # cycle, in flight until the next boundary (landed = sent - grant)
        self.sent = np.zeros(F, dtype=np.int64)
        self._grant = np.zeros(F, dtype=bool)
        # arbitration: one pointer bit per flow (the pointer of each
        # channel starts at slot 0)
        self._ptr = lay.flow_slot == 0

        # dead-link set / budget mask of the current fault segment
        # (updated lazily: the set of down links only changes at schedule
        # event cycles)
        self._dead_now: FrozenSet[Tuple[int, int]] = frozenset()
        self._dead_mask: Optional[np.ndarray] = None
        self._done = CompletionCache((T,))

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
        """Phases 1–2 of one cycle: advance the clock (last cycle's
        in-flight flits land) and compute the per-flow budget vector from
        the start-of-cycle ``sent``.

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
        budget = flow_budgets(self._lay, self.sent, self._m_arr, self.buffer_size)
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

    def channel_keys(self) -> np.ndarray:
        """``src * n + dst`` of each channel, aligned with
        :meth:`channels` (int64) — the key the fabric groups sharers by."""
        return self._lay.ch_src * self.n + self._lay.ch_dst

    # ----------------------------------------------------- engine protocol

    @property
    def flits_moved(self) -> int:
        """Total directed flit-hops so far: the sum of ``sent``."""
        return int(self.sent.sum())

    def done_mask(self) -> np.ndarray:
        """Per-tree completion, counting only flits that have landed
        (:func:`trees_done`), read between cycles through a
        :class:`CompletionCache`: the array is shared, do not modify it."""
        return self._done.read(
            self.cycle, self.sent, self._grant, self._m_arr, self.capacity
        )

    def channels(self) -> List[Tuple[int, int]]:
        return self._lay.channels()

    def channel_flit_counts(self) -> List[int]:
        return self.channel_flit_array().tolist()

    def channel_flit_array(self) -> np.ndarray:
        """:meth:`channel_flit_counts` as a fresh int64 array, for
        observers that do arithmetic on it (derived from ``sent``)."""
        return self._lay.channel_totals(self.sent)

    def delivered_floor(self) -> List[int]:
        """Per-tree fully-delivered flit floor: the min of its landed
        broadcast counters, ``sent - grant`` — the complete prefix a
        recovery need not redo (reference semantics; a one-node tree
        holds all)."""
        if not self._F:
            return self._m_arr.tolist()
        landed = (self.sent - self._grant)[1::2].reshape(self._T, -1)
        return np.minimum(landed.min(axis=1), self._m_arr).tolist()

    def reduced_at_root(self) -> List[int]:
        """Per-tree flits fully aggregated at the root: the min of its
        children's landed reduce counters (a one-node tree holds all)."""
        if not self._F:
            return self._m_arr.tolist()
        lay = self._lay
        landed = self.sent - self._grant
        agg = lay.group_mins(landed, lay.child_up)[lay.root_grp]
        return np.minimum(agg, self._m_arr).tolist()

    def _queues(
        self, sent: np.ndarray, grant: np.ndarray, bcm: np.ndarray
    ) -> np.ndarray:
        """Per-router receiver-side queue occupancy after a step that
        granted ``grant`` and left ``sent`` (whose broadcast mins are
        ``bcm``): flits sent toward each router minus the consumed
        counters of the post-step receiver-side view (reference
        ``_consumed_now`` semantics, vectorized).  A broadcast into a leaf
        is consumed as it lands, so only its ``grant`` is queued."""
        lay = self._lay
        queued = sent - lay.consumed(sent, bcm)
        leaf = lay.bc_into_leaf
        queued[leaf] = grant[leaf]
        out = np.zeros(self.n, dtype=np.int64)
        np.add.at(out, lay.flow_dst, queued)
        return out

    def queue_occupancy(self) -> List[int]:
        """Per-router receiver-side queue occupancy (reference semantics,
        one bincount)."""
        if not self._F:
            return [0] * self.n
        bcm = self._lay.group_mins(self.sent, self._lay.child_bc)
        return self._queues(self.sent, self._grant, bcm).tolist()

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
