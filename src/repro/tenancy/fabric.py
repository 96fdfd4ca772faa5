"""Shared-fabric cycle engine: K concurrent allreduces on one PolarFly.

The fabric composes one single-job cycle engine per tenant (reference or
fast — both implement the two-phase stepping API) and advances them in
lock-step against shared link capacity. Each global cycle:

1. every *running* tenant (arrived, not finished, not stalled) computes
   its per-flow budgets from its own start-of-cycle snapshot
   (``begin_cycle``) and reports per-channel demand;
2. the fabric arbitrates every shared directed channel under the chosen
   policy and hands each tenant a boolean blocked-channel mask;
3. each tenant finishes its cycle (``finish_cycle``) — a blocked channel
   grants nothing and holds its round-robin pointers, exactly like a
   down link, so gating can never corrupt intra-tenant arbitration
   state.

Step 2 is one matrix operation per cycle, not a loop over channels.
``__init__`` lays the static sharer lists out as an (S shared channels ×
max sharers) slot matrix, tenant ids ascending along each row, together
with each slot's index into one concatenated per-cycle demand vector
(every tenant's ``channel_demand`` back to back; padding slots point at a
trailing zero sentinel), per-row sharer counts and the fair-share
pointers as one int array.  Each cycle gathers that demand and the
running mask through the slot matrix, takes ``cand = running & (demand >
0)`` and picks one winner column per row (see the policies below).  The
blocked cells — running, not the winner, on a row that arbitrated —
scatter into one boolean mask over the concatenated channels, and each
tenant finishes against its own slice of it; a tenant's
``blocked_cycles`` counts the cycles in which one of its blocked cells
had demand.  On ``perfbench/run.py
--workload tenant-mix`` (2-core x86_64 host) this replaced a Python visit
of ~215 shared channels per cycle with a handful of array operations:
11.6 → 37.3 jobs/s on seed 3 and 10.3 → 31.1 on seed 9973, with
byte-identical ``FabricStats`` and trace rows.

Because an *ungated* two-phase cycle is ``step()`` by construction, a
K=1 fabric run (or any tenant whose channels are never shared) is
bit-identical to the solo engine — the isolation-differential guarantee
of ``tests/test_tenancy_differential.py``.

Arbitration policies (:data:`POLICIES`):

``"fair-share"``
    per-channel round-robin over the static sharer list: the candidate
    minimizing ``(slot − pointer) mod sharers`` wins and the pointer
    moves one past it; rows without a candidate keep their pointer —
    work-conserving;
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

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

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
        self.chs: List[Tuple[int, int]] = engine.channels()
        self.blocked_cycles = 0
        self.prev_flits: List[int] = [0] * len(self.chs)

    @property
    def running(self) -> bool:
        return not self.run.finished and self.stall is None

    def outcome(self) -> TenantOutcome:
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
            blocked_cycles=self.blocked_cycles,
            flits_moved=eng.flits_moved,
        )


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
        tenant's *local* clock (cycles since its arrival).
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
        self.plan = plan
        self.policy = policy
        self.engine_name = engine
        self.capacity = link_capacity
        self.buffer_size = buffer_size
        self.cycle = 0
        self.record_trace = record_trace
        self.trace: List[dict] = []
        faults = dict(faults) if faults else {}
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

        # static sharer lists: directed channel -> tenant ids (ascending)
        self._order: List[_Tenant] = [
            self._tenants[tid] for tid in sorted(self._tenants)
        ]
        users: Dict[Tuple[int, int], List[int]] = {}
        for t in self._order:
            for ch in t.chs:
                users.setdefault(ch, []).append(t.job.tenant)
        self.shared: Dict[Tuple[int, int], List[int]] = {
            ch: tids for ch, tids in users.items() if len(tids) > 1
        }

        # the arbiter's static layout: the i-th tenant's channels occupy
        # [offs[i], offs[i + 1]) of the concatenated demand and blocked
        # vectors; index offs[K] is the zero sentinel, and tenant
        # position K is never running, so padding slots never arbitrate
        K = len(self._order)
        offs = np.cumsum([0] + [len(t.chs) for t in self._order])
        self._offs = offs.tolist()
        pos = {t.job.tenant: i for i, t in enumerate(self._order)}
        S = len(self.shared)
        W = max((len(v) for v in self.shared.values()), default=0)
        self._slot_tid = np.full((S, W), -1, dtype=np.int64)
        self._slot_pos = np.full((S, W), K, dtype=np.int64)
        self._slot_idx = np.full((S, W), offs[-1], dtype=np.int64)
        ch_index = [{ch: i for i, ch in enumerate(t.chs)} for t in self._order]
        for r, (ch, tids) in enumerate(self.shared.items()):
            for j, tid in enumerate(tids):
                p = pos[tid]
                self._slot_tid[r, j] = tid
                self._slot_pos[r, j] = p
                self._slot_idx[r, j] = offs[p] + ch_index[p][ch]
        self._k = np.array([len(v) for v in self.shared.values()], dtype=np.int64)
        self._rank = np.arange(W, dtype=np.int64)
        self._rr = np.zeros(S, dtype=np.int64)
        self._rows = np.arange(S)

    # ------------------------------------------------------------- stepping

    def tenants(self) -> Tuple[int, ...]:
        return tuple(sorted(self._tenants))

    def _arbitrate(
        self, running: np.ndarray, has: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One winner column per shared channel: returns ``(win, arb)``,
        the winner's slot on each row and whether the row arbitrated."""
        if self.policy == "isolated-slice":
            # static slots over all placed sharers, demand or not
            return self.cycle % self._k, np.ones(len(self._k), dtype=bool)
        cand = running & has
        arb = cand.any(axis=1)
        if self.policy == "strict-priority":
            return cand.argmax(axis=1), arb
        # fair-share: first candidate at or after the rotating pointer
        key = (self._rank - self._rr[:, None]) % self._k[:, None]
        win = np.where(cand, key, self._rank.size).argmin(axis=1)
        self._rr[arb] = (win[arb] + 1) % self._k[arb]
        return win, arb

    def step(self) -> int:
        """Advance one global cycle; returns total flits moved across all
        tenants."""
        self.cycle += 1
        active = [
            (i, t)
            for i, t in enumerate(self._order)
            if t.running and self.cycle > t.job.arrival
        ]
        if not active:
            return 0

        offs = self._offs
        budgets: Dict[int, Any] = {}
        demand = np.zeros(offs[-1] + 1, dtype=np.int64)
        run_pos = np.zeros(len(self._order) + 1, dtype=bool)
        for i, t in active:
            b = t.engine.begin_cycle()
            budgets[i] = b
            demand[offs[i] : offs[i + 1]] = t.engine.channel_demand(b)
            run_pos[i] = True

        blocked = np.zeros(demand.size, dtype=bool)
        trace_row: Optional[dict] = None
        if self.record_trace:
            trace_row = {"cycle": self.cycle, "channels": {}}
        if self.shared:
            running = run_pos[self._slot_pos]
            dem = demand[self._slot_idx]
            has = dem > 0
            win, arb = self._arbitrate(running, has)
            cells = running & arb[:, None]
            cells[self._rows, win] = False
            blocked[self._slot_idx[cells]] = True
            hit = np.zeros(run_pos.size, dtype=bool)
            hit[self._slot_pos[cells & has]] = True
            for i, t in active:
                t.blocked_cycles += int(hit[i])
            if trace_row is not None:
                winners = self._slot_tid[self._rows, win]
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
        for i, t in active:
            lo, hi = offs[i], offs[i + 1]
            moved = t.engine.finish_cycle(budgets[i], blocked[lo:hi])
            moved_total += moved
            if trace_row is not None:
                flits = t.engine.channel_flit_counts()
                deltas = {
                    t.chs[c]: flits[c] - t.prev_flits[c]
                    for c in range(len(t.chs))
                    if flits[c] != t.prev_flits[c]
                }
                t.prev_flits = flits
                trace_row.setdefault("moved", {})[t.job.tenant] = deltas
            # the solo run contract in local cycles; its idle test reads
            # pre-gate demand, since a tenant the arbiter gated moved
            # nothing but was not idle.  A stall is recorded, not raised.
            try:
                t.run.tick(moved or int(demand[lo:hi].any()))
            except SimulationStalled as stall:
                t.stall = stall
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
        while any(t.running for t in self._tenants.values()):
            self.step()
            if self.cycle > max_cycles:
                raise CycleLimitExceeded(f"fabric exceeded {max_cycles} cycles")
        outcomes = tuple(
            self._tenants[tid].outcome() for tid in sorted(self._tenants)
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
