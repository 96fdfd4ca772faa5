"""Shared-fabric cycle engine: K concurrent allreduces on one PolarFly.

The fabric composes one single-job cycle engine per tenant (reference or
fast — both implement the two-phase stepping API) and advances them in
lock-step against shared link capacity. Each global cycle:

1. every *running* tenant (arrived, not finished, not stalled) that is
   not parked (see below) computes its per-flow budgets from its own
   start-of-cycle snapshot (``begin_cycle``) and reports per-channel
   demand;
2. the fabric arbitrates every shared directed channel under the chosen
   policy and hands each tenant a boolean blocked-channel mask;
3. each tenant finishes its cycle (``finish_cycle``) — a blocked channel
   grants nothing and holds its round-robin pointers, exactly like a
   down link, so gating can never corrupt intra-tenant arbitration
   state.

Step 2 is one matrix operation per cycle, not a loop over channels.
``__init__`` groups every tenant's integer channel keys (``src·n + dst``,
concatenated in tenant order) with one stable sort and lays the channels
two or more tenants use out as an (S shared channels × max sharers) slot
matrix, rows in order of first use, tenant ids ascending along each row:
each slot holds its index into one concatenated per-cycle demand vector
(every tenant's ``channel_demand`` back to back; padding slots point at a
trailing zero sentinel).  Each cycle gathers that demand and the running
mask through the slot matrix, takes ``cand = running & (demand > 0)``
and picks one winner column per row (see the policies below).  The
blocked cells — running, not the winner, on a row that arbitrated —
scatter into one boolean mask over the concatenated channels, and each
tenant finishes against its own slice of it; a tenant's
``blocked_cycles`` counts the cycles in which one of its blocked cells
had demand.  The sharer lists (:attr:`FabricSimulator.shared`) are a
view of the slot matrix, built on first use.

**Parked tenants.**  A tenant whose full cycle granted no flit is
*parked*: the fabric skips its ``begin_cycle``, ``finish_cycle`` and
``tick`` and only advances its local clocks (``engine.cycle`` and
``run.cycle``, as the leap engine's dead wait does), while its pre-gate
demand slice stays in the demand vector and keeps arbitrating.  This is
exact.  A cycle that granted nothing left nothing in flight and no
``sent`` counter moved, and gated or empty channels held their pointer
bits, so the next cycle lands nothing and computes the same budgets,
demand and ``done_mask`` — a fixpoint, which the tick of a gated cycle
(or of a dead wait under a scheduled revival) leaves as it is.  Only two
things can break it: the arbiter hands the tenant a channel it demands
(then it would move a flit), or a fault event falls due at its next
local cycle (then its budgets may change).  Either wakes it with a fresh
``begin_cycle`` that cycle; ``tests/test_tenancy_differential.py``
checks the rule against a lock-step driver that steps every running
tenant every cycle.  At q=11 with K=32 shared tenants (fair-share, M=64,
2-core x86_64 host) parking cut the tenant full steps from 12 880 to
1 727 and the fabric run from 1.5–2.4 s to 0.5–0.6 s; ``perfbench/run.py
--workload tenant-mix`` went from 53.6 to 68.1 jobs/s at seed 1 (medians
of ten alternated runs) and from 55.8 to 70.7 at seed 9973, with
byte-identical ``FabricStats`` and trace rows.

Because an *ungated* two-phase cycle is ``step()`` by construction, a
K=1 fabric run (or any tenant whose channels are never shared) is
bit-identical to the solo engine — the isolation-differential guarantee
of ``tests/test_tenancy_differential.py``.

Arbitration policies (:data:`POLICIES`):

``"fair-share"``
    per-channel round-robin over the static sharer list: the first
    candidate at or after the pointer wins (else the first candidate)
    and the pointer moves one past it; rows without a candidate keep
    their pointer — work-conserving;
``"strict-priority"``
    the first candidate (lowest tenant id with demand) wins —
    work-conserving, starves late tenants under saturation;
``"isolated-slice"``
    static time slots ``global_cycle % num_sharers`` over *all* placed
    sharers, on every row, whether or not the slot's owner is running —
    not work-conserving, but one tenant's behavior (including a fault
    storm) can never perturb another's slots.

Each tenant's completions and stall are booked by the solo engines' own
run contract, :class:`~repro.simulator.cycle.EngineRun`, in the tenant's
local clock — so the fabric has no stall rule of its own.  The one
fabric-specific input is the idle test: it reads the tenant's pre-gate
demand, because a tenant the arbiter gated moved nothing but was not
idle.  Per-tenant stalls are *recorded*, not raised: the fabric keeps the
stalled tenant's ``SimulationStalled`` cycle and pending set (the solo
run's, at the same local cycle) and its recovery frontiers
(``delivered_floor`` / ``reduced_at_root``), and keeps the other tenants
running.  Per-tenant runs carry no solo ``max_cycles`` guard; the fabric
guards its global clock and raises
:class:`~repro.simulator.cycle.CycleLimitExceeded` past it.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.simulator.cycle import (
    CycleLimitExceeded,
    CycleStats,
    EngineRun,
    SimulationStalled,
    default_max_cycles,
)
from repro.simulator.engine import make_engine
from repro.simulator.faultsched import FaultSchedule
from repro.tenancy.placement import FabricPlan
from repro.utils.errors import nonnegative

__all__ = [
    "POLICIES",
    "FabricSimulator",
    "FabricStats",
    "TenantOutcome",
    "simulate_tenants",
]

POLICIES = ("fair-share", "strict-priority", "isolated-slice")


@dataclass(frozen=True)
class TenantOutcome:
    """How one tenant's collective ended.

    ``stats`` is a full :class:`CycleStats` for completed tenants (in
    *local* cycles — pickle-equal to the solo run when isolated) and
    ``None`` for stalled ones; stalled tenants instead carry the pending
    tree set and the recovery frontiers a re-plan would resume from.
    ``blocked_cycles`` counts global cycles in which the tenant had
    demand on a channel that the arbiter granted to someone else.
    """

    tenant: int
    arrival: int
    status: str  # "completed" | "stalled"
    local_cycles: int
    global_cycle: int
    stats: Optional[CycleStats]
    stall_pending: Tuple[int, ...]
    delivered_floor: Tuple[int, ...]
    reduced_at_root: Tuple[int, ...]
    blocked_cycles: int
    flits_moved: int


@dataclass(frozen=True)
class FabricStats:
    """One fabric run: global cycle count plus per-tenant outcomes
    (ordered by tenant id)."""

    policy: str
    cycles: int
    outcomes: Tuple[TenantOutcome, ...]

    def outcome(self, tenant: int) -> TenantOutcome:
        for o in self.outcomes:
            if o.tenant == tenant:
                return o
        raise KeyError(f"no tenant {tenant}")

    @property
    def completed(self) -> Tuple[TenantOutcome, ...]:
        return tuple(o for o in self.outcomes if o.status == "completed")

    @property
    def stalled(self) -> Tuple[TenantOutcome, ...]:
        return tuple(o for o in self.outcomes if o.status == "stalled")


class _Tenant:
    """Fabric-side bookkeeping around one tenant's engine and its run."""

    def __init__(self, placement, engine):
        self.placement = placement
        self.job = placement.job
        self.engine = engine
        # local cycles and no solo guard: the fabric guards the global
        # clock, and a contended tenant may outlive its solo budget
        self.run = EngineRun(engine, math.inf)
        self.stall: Optional[SimulationStalled] = None
        # parked: the last full cycle moved nothing, so the state is a
        # fixpoint until a win or the fault event at local cycle ``wake``
        self.parked = False
        self.wake: Optional[int] = None
        self.prev_flits: Optional[List[int]] = None

    @cached_property
    def chs(self) -> List[Tuple[int, int]]:
        return self.engine.channels()

    @property
    def running(self) -> bool:
        return not self.run.finished and self.stall is None

    def park(self) -> None:
        self.parked = True
        faults = self.engine.faults
        self.wake = None if faults is None else faults.next_event_after(
            self.engine.cycle
        )

    def wait(self) -> None:
        """One parked cycle: only the local clocks move (the leap's dead
        wait)."""
        self.engine.cycle += 1
        self.run.cycle += 1

    def outcome(self, blocked_cycles: int) -> TenantOutcome:
        eng = self.engine
        if self.stall is None:
            stats: Optional[CycleStats] = self.run.stats()
            local, pending = stats.cycles, ()
        else:
            stats, local, pending = None, self.stall.cycle, self.stall.pending
        return TenantOutcome(
            tenant=self.job.tenant,
            arrival=self.job.arrival,
            status="completed" if stats is not None else "stalled",
            local_cycles=local,
            global_cycle=self.job.arrival + local,
            stats=stats,
            stall_pending=pending,
            delivered_floor=tuple(eng.delivered_floor()),
            reduced_at_root=tuple(eng.reduced_at_root()),
            blocked_cycles=blocked_cycles,
            flits_moved=eng.flits_moved,
        )


def _sharer_slots(keys: np.ndarray, pad: int) -> np.ndarray:
    """Group the concatenated channel keys of every tenant.  Returns the
    ``(S, W)`` slot matrix of indices into ``keys`` of each channel two or
    more tenants use: rows in order of first use, sharers in concatenation
    order, ``pad`` in empty slots."""
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    first = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
    count = np.diff(np.r_[first, sk.size])
    first, count = first[count > 1], count[count > 1]
    # a stable sort puts each group's earliest index first
    rows = np.argsort(order[first], kind="stable")
    first, count = first[rows], count[rows]
    col = np.arange(count.max() if count.size else 0)
    at = np.minimum(first[:, None] + col, max(sk.size - 1, 0))
    return np.where(col < count[:, None], order[at], pad)


class FabricSimulator:
    """Advance K concurrent collectives against shared link capacity.

    Parameters
    ----------
    plan:
        A placed job mix from :func:`repro.tenancy.placement.place_jobs`.
    link_capacity, buffer_size:
        Uniform channel capacity (flits/cycle) and optional per-flow
        credit buffer, as in the single-job engines.
    policy:
        One of :data:`POLICIES`.
    engine:
        ``"fast"`` (default) or ``"reference"`` — the engines that expose
        two-phase stepping (``begin_cycle`` / ``finish_cycle``).
    faults:
        Optional mapping ``tenant id -> FaultSchedule``, in each
        tenant's *local* clock (cycles since its arrival); anything else
        is a named ``TypeError``.
    record_trace:
        Keep a per-cycle trace of shared-channel demand and grants (the
        Hypothesis invariant suite reads it); off by default — it grows
        with run length.
    """

    def __init__(
        self,
        plan: FabricPlan,
        link_capacity: int = 1,
        buffer_size: Optional[int] = None,
        *,
        policy: str = "fair-share",
        engine: str = "fast",
        faults: Optional[Mapping[int, FaultSchedule]] = None,
        record_trace: bool = False,
    ):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
        if engine not in ("fast", "reference"):
            raise ValueError(
                "fabric engines must support two-phase stepping; "
                "choose 'fast' or 'reference'"
            )
        if faults is None:
            faults = {}
        elif not isinstance(faults, Mapping):
            raise TypeError(
                "faults must be a mapping of tenant id -> FaultSchedule; "
                f"got {type(faults).__name__}"
            )
        for tid, fs in faults.items():
            if fs is not None and not isinstance(fs, FaultSchedule):
                raise TypeError(
                    f"faults[{tid!r}] must be a FaultSchedule or None; got "
                    f"{type(fs).__name__}"
                )
        self.plan = plan
        self.policy = policy
        self.engine_name = engine
        self.capacity = link_capacity
        self.buffer_size = buffer_size
        self.cycle = 0
        self.record_trace = record_trace
        self.trace: List[dict] = []
        unknown = set(faults) - {p.job.tenant for p in plan.placements}
        if unknown:
            raise ValueError(f"faults for unplaced tenants: {sorted(unknown)}")

        self._tenants: Dict[int, _Tenant] = {}
        for p in plan.placements:
            fs = faults.get(p.job.tenant)
            eng = make_engine(
                engine,
                plan.topology,
                [plan.trees[i] for i in p.tree_ids],
                list(p.flits),
                link_capacity,
                buffer_size,
                faults=fs,
            )
            self._tenants[p.job.tenant] = _Tenant(p, eng)
        self._order: List[_Tenant] = [
            self._tenants[tid] for tid in sorted(self._tenants)
        ]

        # the arbiter's static layout: the i-th tenant's channels occupy
        # [offs[i], offs[i + 1]) of the concatenated demand and blocked
        # vectors; index offs[K] is the zero sentinel, owned by tenant
        # position K, which never runs, so padding slots never arbitrate
        K = len(self._order)
        keys = [t.engine.channel_keys() for t in self._order]
        sizes = [k.size for k in keys]
        offs = np.cumsum([0] + sizes)
        self._offs = offs.tolist()
        self._slot_idx = _sharer_slots(
            np.concatenate(keys) if keys else np.zeros(0, dtype=np.int64),
            int(offs[-1]),
        )
        owner = np.repeat(np.arange(K + 1), sizes + [1])
        self._slot_pos = owner[self._slot_idx]
        tids = np.array([t.job.tenant for t in self._order] + [-1], dtype=np.int64)
        self._slot_tid = tids[self._slot_pos]
        S, W = self._slot_idx.shape
        self._k = np.count_nonzero(self._slot_pos < K, axis=1)
        self._rank = np.arange(W, dtype=np.int64)
        self._rr = np.zeros(S, dtype=np.int64)
        self._rows = np.arange(S)

        # the running set: positions admitted in arrival order, kept
        # ascending; the demand buffer keeps each parked tenant's slice
        self._arrivals = sorted(range(K), key=lambda i: self._order[i].job.arrival)
        self._admitted = 0
        self._active: List[int] = []
        self._run_pos = np.zeros(K + 1, dtype=bool)
        self._live = sum(t.running for t in self._order)
        self._demand = np.zeros(int(offs[-1]) + 1, dtype=np.int64)
        self._blocked = np.zeros(K + 1, dtype=np.int64)
        # the running mask per slot, rebuilt when the running set changes
        self._running: Optional[np.ndarray] = None
        if record_trace:
            # trace rows key channels by the tenants' own channel tuples;
            # taken in tenant order, equal layouts share tuple objects
            for t in self._order:
                t.chs

    @cached_property
    def shared(self) -> Dict[Tuple[int, int], List[int]]:
        """Static sharer lists: directed channel -> the ids (ascending) of
        the tenants that use it, for every channel two or more share, in
        order of first use (the arbiter's rows)."""
        if not self._k.size:
            return {}
        order, offs = self._order, self._offs
        firsts = zip(self._slot_pos[:, 0].tolist(), self._slot_idx[:, 0].tolist())
        return {
            order[p].chs[i - offs[p]]: self._slot_tid[r, :k].tolist()
            for r, ((p, i), k) in enumerate(zip(firsts, self._k.tolist()))
        }

    # ------------------------------------------------------------- stepping

    def tenants(self) -> Tuple[int, ...]:
        return tuple(sorted(self._tenants))

    def _arbitrate(self, cand: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One winner column per shared channel, given the candidate cells
        (running sharers with demand): returns ``(win, arb)``, the
        winner's slot on each row and whether the row arbitrated."""
        if self.policy == "isolated-slice":
            # static slots over all placed sharers, demand or not
            return self.cycle % self._k, np.ones(len(self._k), dtype=bool)
        arb = np.logical_or.reduce(cand, axis=1)
        if self.policy == "strict-priority":
            return cand.argmax(axis=1), arb
        # fair-share: the first candidate at or after the rotating
        # pointer, else the first candidate
        late = cand & (self._rank >= self._rr[:, None])
        win = np.where(
            np.logical_or.reduce(late, axis=1),
            late.argmax(axis=1),
            cand.argmax(axis=1),
        )
        np.copyto(self._rr, (win + 1) % self._k, where=arb)
        return win, arb

    def _admit(self) -> None:
        """Add the tenants that arrived before this cycle to the running
        set."""
        arrivals, order = self._arrivals, self._order
        while self._admitted < len(arrivals):
            i = arrivals[self._admitted]
            if order[i].job.arrival >= self.cycle:
                break
            self._admitted += 1
            if order[i].running:
                bisect.insort(self._active, i)
                self._run_pos[i] = True
                self._running = None

    def step(self) -> int:
        """Advance one global cycle; returns total flits moved across all
        tenants."""
        self.cycle += 1
        self._admit()
        active = self._active
        if not active:
            return 0

        order, offs, demand = self._order, self._offs, self._demand
        budgets: Dict[int, Any] = {}
        waiting = False
        for i in active:
            t = order[i]
            if t.parked:
                if t.wake != t.engine.cycle + 1:
                    waiting = True
                    continue
                t.parked = False  # a fault event falls due
            budgets[i] = b = t.engine.begin_cycle()
            demand[offs[i] : offs[i + 1]] = t.engine.channel_demand(b)

        blocked = np.zeros(demand.size, dtype=bool)
        won = None
        trace_row: Optional[dict] = None
        if self.record_trace:
            trace_row = {"cycle": self.cycle, "channels": {}}
        if self._k.size:
            if self._running is None:
                self._running = self._run_pos[self._slot_pos]
            running = self._running
            dem = demand[self._slot_idx]
            cand = running & (dem > 0)
            win, arb = self._arbitrate(cand)
            at = self._rows, win
            cells = running & arb[:, None]
            cells[at] = False
            blocked[self._slot_idx[cells]] = True
            hit = np.zeros(self._run_pos.size, dtype=bool)
            hit[self._slot_pos[cells & cand]] = True
            self._blocked += hit
            if waiting:
                # a winner with demand moves a flit: a parked winner wakes
                won = np.zeros(self._run_pos.size, dtype=bool)
                won[self._slot_pos[at][cand[at]]] = True
            if trace_row is not None:
                winners = self._slot_tid[at]
                for r, ch in enumerate(self.shared):
                    if not arb[r]:
                        continue
                    on = running[r]
                    trace_row["channels"][ch] = {
                        "demand": dict(
                            zip(
                                self._slot_tid[r, on].tolist(),
                                dem[r, on].tolist(),
                            )
                        ),
                        "winner": int(winners[r]),
                    }

        moved_total = 0
        gone = []
        moved_rows = None
        if trace_row is not None:
            moved_rows = trace_row["moved"] = {}
        for i in active:
            t = order[i]
            eng = t.engine
            if t.parked:
                if won is None or not won[i]:
                    t.wait()
                    if moved_rows is not None:
                        moved_rows[t.job.tenant] = {}
                    continue
                t.parked = False
                budgets[i] = eng.begin_cycle()
            lo, hi = offs[i], offs[i + 1]
            moved = eng.finish_cycle(budgets[i], blocked[lo:hi])
            moved_total += moved
            if moved_rows is not None:
                flits = eng.channel_flit_counts()
                prev = t.prev_flits or [0] * len(flits)
                moved_rows[t.job.tenant] = {
                    t.chs[c]: flits[c] - prev[c]
                    for c in range(len(flits))
                    if flits[c] != prev[c]
                }
                t.prev_flits = flits
            # the solo run contract in local cycles; its idle test reads
            # pre-gate demand, since a tenant the arbiter gated moved
            # nothing but was not idle.  A stall is recorded, not raised.
            try:
                t.run.tick(moved or int(demand[lo:hi].any()))
            except SimulationStalled as stall:
                t.stall = stall
            if not t.running:
                gone.append(i)
            elif not moved:
                t.park()
        if gone:
            self._active = [i for i in active if i not in gone]
            self._run_pos[gone] = False
            self._running = None
            self._live -= len(gone)
        if trace_row is not None:
            self.trace.append(trace_row)
        return moved_total

    # ------------------------------------------------------------------ run

    def run(self, max_cycles: Optional[int] = None) -> FabricStats:
        """Advance until every tenant completed or stalled."""
        if max_cycles is None:
            K = max(1, len(self._tenants))
            per = sum(
                default_max_cycles(
                    e.trees, e.m, e.capacity, e.buffer_size, e.faults
                )
                for e in (t.engine for t in self._tenants.values())
            )
            latest = max(t.job.arrival for t in self._tenants.values())
            max_cycles = latest + K * per
        else:
            max_cycles = nonnegative("max_cycles", max_cycles)
        while self._live:
            self.step()
            if self.cycle > max_cycles:
                raise CycleLimitExceeded(f"fabric exceeded {max_cycles} cycles")
        outcomes = tuple(
            t.outcome(b) for t, b in zip(self._order, self._blocked.tolist())
        )
        last = max((o.global_cycle for o in outcomes), default=0)
        return FabricStats(policy=self.policy, cycles=last, outcomes=outcomes)


def simulate_tenants(
    plan: FabricPlan,
    link_capacity: int = 1,
    buffer_size: Optional[int] = None,
    *,
    policy: str = "fair-share",
    engine: str = "fast",
    faults: Optional[Mapping[int, FaultSchedule]] = None,
    max_cycles: Optional[int] = None,
) -> FabricStats:
    """One-call front end: run an admitted :class:`FabricPlan`
    (see :func:`repro.tenancy.place_jobs`) → per-tenant outcomes."""
    sim = FabricSimulator(
        plan,
        link_capacity,
        buffer_size,
        policy=policy,
        engine=engine,
        faults=faults,
    )
    return sim.run(max_cycles)
