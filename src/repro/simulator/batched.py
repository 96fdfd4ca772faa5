"""Batched lane evaluator — B independent runs in one ``(F, B)`` state.

Sweep grids and fault Monte Carlo simulate the *same* topology and tree
plan thousands of times, varying only the scalar knobs (message split,
buffer size, link capacity) and the fault schedule.  Running those lanes
one :class:`~repro.simulator.fastcycle.FastCycleSimulator` at a time pays
the full per-cycle Python/NumPy dispatch overhead B times; this engine
stacks the lanes along a batch axis and advances *all* of them per cycle:

- the fast engine's state — per-flow ``sent`` counters and the grants
  in flight — grows a lane axis; every per-flow gather reads the same
  :class:`~repro.simulator.engine_layout.EngineLayout` the serial
  engines build, so flow order — and therefore the round-robin visit
  sequence — is identical by construction.  The lane axis is stored
  **last** (``(F, B)``, flow-major), so those gathers move whole
  contiguous lane-rows instead of strided elements — the step is
  memory-bound and this is worth ~5x;
- budgets (availability minus credit debt, from the start-of-cycle
  ``sent``) are the fast engine's
  :func:`~repro.simulator.fastcycle.flow_budgets` over the lane axis;
  lanes without credit flow control ride along with an
  effectively-infinite buffer sentinel;
- arbitration is the fast engine's closed forms with a lane axis: an
  ``(F, B)`` pointer bit per flow and lane, the capacity-1 round robin
  :func:`~repro.simulator.fastcycle.round_robin` when every lane has
  capacity 1, and :func:`~repro.simulator.fastcycle.water_fill` with
  per-lane capacities otherwise.  The grants only advance ``sent``;
  flit and channel totals are derived from ``sent`` when a lane
  finishes;
- per-lane :class:`~repro.simulator.faultsched.FaultSchedule` masks are
  rebuilt lazily, only at lanes whose schedule changes at this cycle;
- per-lane completion (the fast engine's
  :func:`~repro.simulator.fastcycle.trees_done`) / stall / max-cycles
  detection freezes finished lanes, and
  :meth:`run_batch` periodically *compacts* the batch down to the
  still-live columns, so total work tracks the sum of per-lane run
  lengths instead of ``B x max(run length)``.

The per-cycle state is deliberately ``int32``: every quantity the step
touches is bounded far below ``2**31`` (flit counters by the per-tree
message size, credit debts by the buffer sentinel),
:func:`int32_headroom` states the bound each lane must meet, and integer
arithmetic is exact in any width it fits — so halving the memory traffic
changes nothing observable.

Every lane is **bit-identical** to a serial ``engine="fast"`` run with
the same knobs — same :class:`~repro.simulator.cycle.CycleStats` (down to
float utilization), same :class:`~repro.simulator.cycle.SimulationStalled`
cycle and pending set, same
:class:`~repro.simulator.cycle.CycleLimitExceeded` guard cycle — enforced
by ``tests/test_batched_equivalence.py`` and the differential suite.

This is not a single-run engine (``make_engine`` does not know it): one
lane steps 1.4-1.8x slower than ``engine="fast"``, so it earns its
keep only through :meth:`BatchedCycleSimulator.run_batch` over many
lanes, and it takes no telemetry collector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.cycle import (
    CycleLimitExceeded,
    CycleStats,
    SimulationStalled,
    check_engine_args,
    default_max_cycles,
)
from repro.simulator.engine_layout import EngineLayout
from repro.simulator.fastcycle import (
    CompletionCache,
    flow_budgets,
    round_robin,
    water_fill,
)
from repro.simulator.faultsched import FaultSchedule
from repro.topology.graph import Graph
from repro.trees.tree import SpanningTree
from repro.utils.errors import nonnegative

__all__ = ["LaneSpec", "LaneOutcome", "BatchedCycleSimulator", "int32_headroom"]

_BUF_INF = 1 << 30  # per-lane buffer sentinel: credit can never bind
_NO_EVENT = 1 << 62  # per-lane fault sentinel: no schedule change ahead
_M_MAX = 1 << 27  # int32 headroom guard on per-tree flit counts
_FOLD = 32  # flows per row in lanes_moved


def lanes_moved(grant: np.ndarray) -> np.ndarray:
    """Which lanes were granted a flit: ``grant.any(axis=0)`` of an (F, B)
    grant array, exactly.

    An axis-0 reduction over C-contiguous (F, B) rows runs one B-element
    inner loop per flow: ``np.count_nonzero(grant, axis=0)`` took 37–207
    µs per call at F = 1 500–4 732 and 16–64 lanes on a 2-core x86_64
    host.  Viewed as rows of ``_FOLD`` flows, the inner loops are
    ``_FOLD`` times longer, and the ``_FOLD`` partial rows fold in one
    small reduction: 6–15 µs there."""
    F, B = grant.shape
    whole = F - F % _FOLD
    rows = np.logical_or.reduce(grant[:whole].reshape(-1, _FOLD * B), axis=0)
    out = np.logical_or.reduce(rows.reshape(_FOLD, B), axis=0)
    if whole < F:
        out |= np.logical_or.reduce(grant[whole:], axis=0)
    return out


def int32_headroom(
    flits_per_tree: Sequence[int], link_capacity: int, k_max: int
) -> Optional[str]:
    """Why a lane with these (already checked) knobs does not fit the
    batch's int32 state, or ``None`` when it does.  ``k_max`` is the
    number of flows on the busiest channel (the plan's worst link
    congestion).  Buffer sizes always fit: any credit at or above the
    sentinel can never bind."""
    m_cap = min(_M_MAX, (1 << 30) // max(k_max, 1))
    if any(x >= m_cap for x in flits_per_tree):
        return (
            f"per-tree flit counts must stay below {m_cap}; use a serial "
            f"engine for larger messages"
        )
    if link_capacity >= 1 << 15:
        return "link capacity must stay below 2**15"
    return None


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
        object.__setattr__(self, "flits_per_tree", tuple(self.flits_per_tree))


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

    Construct with ``lanes=[LaneSpec(...), ...]`` over one shared
    topology and tree plan, then call :meth:`run_batch` for the per-lane
    :class:`LaneOutcome` list.
    """

    def __init__(
        self,
        g: Graph,
        trees: Sequence[SpanningTree],
        *,
        lanes: Sequence[LaneSpec],
    ):
        if not lanes:
            raise ValueError("a batched run needs at least one lane")

        # one argument check per lane (the serial engines' own), then the
        # batch's int32 headroom on top
        self.lanes: List[LaneSpec] = []
        for lane in lanes:
            m, cap, buf = check_engine_args(
                g, trees, lane.flits_per_tree, lane.link_capacity,
                lane.buffer_size, lane.faults,
            )
            self.lanes.append(
                replace(lane, flits_per_tree=m, link_capacity=cap, buffer_size=buf)
            )
        self.n = g.n
        self.trees = list(trees)
        # the serial engines' index layout: flow order — and therefore the
        # round-robin visit sequence — is identical by construction
        lay = EngineLayout.build(g, self.trees)
        self._lay = lay
        T = self._T = lay.num_trees
        F = self._F = lay.num_flows
        C = self._C = lay.num_channels

        B = len(self.lanes)
        self._B = B
        k_max = int(lay.ch_k.max()) if C else 1
        for lane in self.lanes:
            why = int32_headroom(lane.flits_per_tree, lane.link_capacity, k_max)
            if why is not None:
                raise ValueError(f"batched engine int32 headroom: {why}")

        self.cycle = 0

        # row -> original lane index (compaction permutes live lanes down)
        self._orig = np.arange(B, dtype=np.int64)

        self._m_arr = np.asarray(
            [lane.flits_per_tree for lane in self.lanes], dtype=np.int32
        ).reshape(B, T).T.copy()  # (T, B)
        self._cap = np.asarray(
            [lane.link_capacity for lane in self.lanes], dtype=np.int32
        )
        self._cap1 = bool((self._cap == 1).all())
        # no buffer, or one the sentinel already covers (per-tree flits
        # stay below 2**27, so such a credit never binds); CycleStats
        # still reports each lane's own buffer_size
        self._buf = np.asarray(
            [
                _BUF_INF if lane.buffer_size is None
                else min(lane.buffer_size, _BUF_INF)
                for lane in self.lanes
            ],
            dtype=np.int32,
        )
        self._any_buffered = bool((self._buf != _BUF_INF).any())

        # ---- batched state, flow-major: flits sent and flits in flight
        self._sent = np.zeros((F, B), dtype=np.int32)
        self._grant = np.zeros((F, B), dtype=bool)
        # pointer bits: every channel's pointer starts at slot 0
        self._ptr = np.repeat((lay.flow_slot == 0)[:, None], B, axis=1)
        self._lane_moved = np.zeros(B, dtype=bool)
        self._alive = np.ones(B, dtype=bool)
        self._done = CompletionCache((T, B))

        # ---- per-lane fault masks, rebuilt lazily at schedule events
        self._lane_faults = [lane.faults for lane in self.lanes]
        self._have_faults = any(f is not None for f in self._lane_faults)
        self._dead_mask: Optional[np.ndarray] = None
        self._next_change = np.full(B, _NO_EVENT, dtype=np.int64)
        if self._have_faults:
            self._dead_mask = np.zeros((F, B), dtype=bool)
            for b, sched in enumerate(self._lane_faults):
                if sched is not None:
                    cycles = sched.event_cycles()
                    self._next_change[b] = cycles[0] if cycles else _NO_EVENT

    # ------------------------------------------------------------ frontiers

    def done_mask(self) -> np.ndarray:
        """(T, B) — which trees of which lanes are complete (landed flits
        only): the fast engine's
        :func:`~repro.simulator.fastcycle.trees_done`, per lane, through
        the same :class:`CompletionCache` at each lane's capacity.  The
        array is shared: do not modify it."""
        return self._done.read(
            self.cycle, self._sent, self._grant, self._m_arr, self._cap
        )

    # ------------------------------------------------------------- dynamics

    def _refresh_fault_masks(self) -> None:
        """Rebuild the dead-flow columns of lanes whose schedule changes
        at this cycle (the down-link set is constant between events)."""
        due = np.nonzero(self._next_change <= self.cycle)[0]
        for b in due:
            sched = self._lane_faults[b]
            self._dead_mask[:, b] = self._lay.flows_on(
                sched.down_edges_at(self.cycle)
            )
            nxt = sched.next_event_after(self.cycle)
            self._next_change[b] = _NO_EVENT if nxt is None else nxt

    def step(self) -> int:
        """Advance every live lane one cycle; returns total flits moved
        across the batch."""
        self.cycle += 1
        if self._have_faults:
            self._refresh_fault_masks()
        if self._F == 0:
            return 0
        lay = self._lay
        budget = flow_budgets(
            lay, self._sent, self._m_arr, self._buf if self._any_buffered else None
        )
        if self._dead_mask is not None:
            budget[self._dead_mask] = 0  # dead flows arbitrate with 0 budget
        if not self._alive.all():
            # frozen lanes arbitrate with zero budget: pointers, sent
            # counters and channel totals hold still
            budget[:, ~self._alive] = 0

        # arbitrate: grants per flow and lane, in flight until the next
        # boundary
        if self._cap1:
            grant, self._ptr = round_robin(lay, budget > 0, self._ptr)
            moved = int(np.count_nonzero(grant))
        else:
            grant, self._ptr = water_fill(lay, budget, self._cap, self._ptr)
            moved = int(grant.sum())
        self._grant = grant
        self._sent += grant
        self._lane_moved = lanes_moved(grant)
        return moved

    def lane_channel_flits(self, b: int) -> np.ndarray:
        """Cumulative per-channel flit counts of lane column ``b`` (in
        :meth:`EngineLayout.channels` order), derived from its ``sent``."""
        return self._lay.channel_totals(self._sent[:, b])

    # ----------------------------------------------------------- batch runs

    def _freeze(self, b: int) -> None:
        self._alive[b] = False

    def _compact(self, keep: np.ndarray) -> None:
        """Drop frozen lanes: live lanes move to columns
        ``0..len(keep)-1`` (``_orig`` keeps the map back to original lane
        indices), so the per-cycle cost tracks the *live* lane count."""
        self._orig = self._orig[keep]
        self._B = len(keep)
        self._sent = np.ascontiguousarray(self._sent[:, keep])
        self._grant = np.ascontiguousarray(self._grant[:, keep])
        self._ptr = np.ascontiguousarray(self._ptr[:, keep])
        self._lane_moved = self._lane_moved[keep].copy()
        self._alive = self._alive[keep].copy()
        self._done.until = self.cycle  # the cached mask has the old columns
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
            self._sent[:, b].sum(),
            lane.buffer_size,
            self.lane_channel_flits(b),
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
            maxc = np.full(B, nonnegative("max_cycles", max_cycles), dtype=np.int64)
        outcomes: List[Optional[LaneOutcome]] = [None] * B
        completion = np.zeros((T, B), dtype=np.int64)
        done = self.done_mask().copy()
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
            moved = self._lane_moved
            # guard first: the serial run raises before it would have
            # noticed this very cycle's completion or stall
            exceeded = self._alive & (cycle > maxc)
            for b in np.nonzero(exceeded)[0]:
                outcomes[int(self._orig[b])] = LaneOutcome(
                    index=int(self._orig[b]),
                    error=f"simulation exceeded {int(maxc[b])} cycles",
                )
                self._freeze(b)
            now = self.done_mask()
            col_done = now.all(axis=0)
            stall_cand = self._alive & ~moved & ~col_done
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
