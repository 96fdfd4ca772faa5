"""Shared-fabric cycle engine: K concurrent allreduces on one PolarFly.

The fabric composes one single-job cycle engine per tenant (reference or
fast — both implement the two-phase stepping API) and advances them in
lock-step against shared link capacity. Each global cycle:

1. every *running* tenant (arrived, not finished, not stalled) computes
   its per-flow budgets from its own start-of-cycle snapshot
   (``begin_cycle``) and reports per-channel demand;
2. the fabric arbitrates every shared directed channel under the chosen
   policy and hands each tenant a blocked-channel list;
3. each tenant finishes its cycle (``finish_cycle``) — a blocked channel
   grants nothing and holds its round-robin pointers, exactly like a
   down link, so gating can never corrupt intra-tenant arbitration
   state.

Because an *ungated* two-phase cycle is ``step()`` by construction, a
K=1 fabric run (or any tenant whose channels are never shared) is
bit-identical to the solo engine — the isolation-differential guarantee
of ``tests/test_tenancy_differential.py``.

Arbitration policies (:data:`POLICIES`):

``"fair-share"``
    per-channel round-robin over the static sharer list; the next
    running sharer with demand wins — work-conserving;
``"strict-priority"``
    lowest tenant id with demand wins — work-conserving, starves late
    tenants under saturation;
``"isolated-slice"``
    static time slots ``global_cycle % num_sharers`` over *all* placed
    sharers, demand or not — not work-conserving, but one tenant's
    behavior (including a fault storm) can never perturb another's
    slots.

Per-tenant stalls are *recorded*, not raised: a tenant whose pre-gate
budgets are all zero with nothing in flight and no revival pending has
reached a true fixpoint (the solo ``SimulationStalled`` condition, at
the same local cycle) — the fabric marks it stalled, keeps its recovery
frontiers (``delivered_floor`` / ``reduced_at_root``), and keeps the
other tenants running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.simulator.cycle import CycleStats, default_max_cycles
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
    """Fabric-side bookkeeping around one tenant's engine."""

    def __init__(self, placement, engine, faults: Optional[FaultSchedule]):
        self.placement = placement
        self.job = placement.job
        self.engine = engine
        self.faults = faults
        self.chs: List[Tuple[int, int]] = engine.channels()
        self.ch_index = {ch: i for i, ch in enumerate(self.chs)}
        T = len(placement.tree_ids)
        self.completion = [0] * T
        self.done = [engine.tree_done(i) for i in range(T)]
        self.blocked_cycles = 0
        self.outcome: Optional[TenantOutcome] = None
        self.prev_flits: List[int] = [0] * len(self.chs)
        self._blocked_this_cycle = False

    @property
    def running(self) -> bool:
        return self.outcome is None

    def finished(self, global_cycle: int) -> TenantOutcome:
        eng = self.engine
        total = max(self.completion) if self.completion else 0
        loads = [c for c in eng.channel_flit_counts() if c > 0]
        denom = total * eng.capacity
        stats = CycleStats(
            cycles=total,
            tree_completion=tuple(self.completion),
            flits_per_tree=tuple(eng.m),
            link_capacity=eng.capacity,
            flits_moved=eng.flits_moved,
            buffer_size=eng.buffer_size,
            max_channel_utilization=(max(loads) / denom) if loads and denom else 0.0,
            mean_channel_utilization=(
                sum(loads) / (len(loads) * denom) if loads and denom else 0.0
            ),
        )
        return TenantOutcome(
            tenant=self.job.tenant,
            arrival=self.job.arrival,
            status="completed",
            local_cycles=total,
            global_cycle=self.job.arrival + total,
            stats=stats,
            stall_pending=(),
            delivered_floor=tuple(eng.delivered_floor()),
            reduced_at_root=tuple(eng.reduced_at_root()),
            blocked_cycles=self.blocked_cycles,
            flits_moved=eng.flits_moved,
        )

    def stalled(self, global_cycle: int) -> TenantOutcome:
        eng = self.engine
        pending = tuple(
            i for i in range(len(self.done)) if not eng.tree_done(i)
        )
        return TenantOutcome(
            tenant=self.job.tenant,
            arrival=self.job.arrival,
            status="stalled",
            local_cycles=eng.cycle,
            global_cycle=global_cycle,
            stats=None,
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
            self._tenants[p.job.tenant] = _Tenant(p, eng, fs)

        # static sharer lists: directed channel -> tenant ids (ascending)
        users: Dict[Tuple[int, int], List[int]] = {}
        for tid in sorted(self._tenants):
            for ch in self._tenants[tid].chs:
                users.setdefault(ch, []).append(tid)
        self.shared: Dict[Tuple[int, int], List[int]] = {
            ch: tids for ch, tids in users.items() if len(tids) > 1
        }
        self._rr: Dict[Tuple[int, int], int] = {ch: 0 for ch in self.shared}

    # ------------------------------------------------------------- stepping

    def tenants(self) -> Tuple[int, ...]:
        return tuple(sorted(self._tenants))

    def _active(self) -> List[_Tenant]:
        """Tenants taking a step this cycle (arrived, still running)."""
        return [
            t
            for tid, t in sorted(self._tenants.items())
            if t.running and self.cycle > t.job.arrival
        ]

    def _pick_winner(self, ch: Tuple[int, int], cands: List[int]) -> Optional[int]:
        sharers = self.shared[ch]
        if self.policy == "isolated-slice":
            # static slots over all placed sharers, demand or not
            return sharers[self.cycle % len(sharers)]
        if not cands:
            return None
        if self.policy == "strict-priority":
            return min(cands)
        # fair-share: next candidate at or after the rotating pointer
        ptr = self._rr[ch]
        k = len(sharers)
        for i in range(k):
            s = sharers[(ptr + i) % k]
            if s in cands:
                self._rr[ch] = (sharers.index(s) + 1) % k
                return s
        return None

    def step(self) -> int:
        """Advance one global cycle; returns total flits moved across all
        tenants."""
        self.cycle += 1
        active = self._active()
        for t in self._tenants.values():
            if t.running and self.cycle == t.job.arrival + 1 and t.engine.done():
                # zero-work job (all trees trivially complete): finishes
                # the moment it arrives, before ever contending
                t.outcome = t.finished(self.cycle)
        active = [t for t in active if t.running]
        if not active:
            return 0

        budgets: Dict[int, Any] = {}
        demands: Dict[int, Any] = {}
        for t in active:
            b = t.engine.begin_cycle()
            budgets[t.job.tenant] = b
            demands[t.job.tenant] = t.engine.channel_demand(b)

        # pre-gate stall detection: all-zero budgets with nothing in
        # flight and no revival pending is the solo SimulationStalled
        # fixpoint — gating cannot have caused it
        still: List[_Tenant] = []
        for t in active:
            d = demands[t.job.tenant]
            if (
                not any(d)
                and not t.engine.has_in_flight()
                # live check: this cycle's landing may have just completed
                # the last tree with zero budgets left — that is a finish,
                # not a stall
                and not all(
                    done or t.engine.tree_done(i)
                    for i, done in enumerate(t.done)
                )
                and not (
                    t.faults is not None
                    and t.faults.next_revival_after(t.engine.cycle) is not None
                )
            ):
                t.outcome = t.stalled(self.cycle)
            else:
                still.append(t)
        active = still

        blocked: Dict[int, List[int]] = {t.job.tenant: [] for t in active}
        trace_row: Optional[dict] = None
        if self.record_trace:
            trace_row = {"cycle": self.cycle, "channels": {}}
        running_ids = {t.job.tenant for t in active}
        for ch, sharers in self.shared.items():
            cands = [
                tid
                for tid in sharers
                if tid in running_ids
                and demands[tid][self._tenants[tid].ch_index[ch]] > 0
            ]
            if not cands and self.policy != "isolated-slice":
                continue
            winner = self._pick_winner(ch, cands)
            for tid in sharers:
                if tid in running_ids and tid != winner:
                    ci = self._tenants[tid].ch_index[ch]
                    blocked[tid].append(ci)
                    if demands[tid][ci] > 0:
                        self._tenants[tid]._blocked_this_cycle = True
            if trace_row is not None:
                trace_row["channels"][ch] = {
                    "demand": {
                        tid: int(demands[tid][self._tenants[tid].ch_index[ch]])
                        for tid in sharers
                        if tid in running_ids
                    },
                    "winner": winner,
                }

        moved_total = 0
        for t in active:
            tid = t.job.tenant
            moved_total += t.engine.finish_cycle(budgets[tid], blocked[tid])
            if t._blocked_this_cycle:
                t.blocked_cycles += 1
                t._blocked_this_cycle = False
            if trace_row is not None:
                flits = t.engine.channel_flit_counts()
                deltas = {
                    t.chs[i]: flits[i] - t.prev_flits[i]
                    for i in range(len(t.chs))
                    if flits[i] != t.prev_flits[i]
                }
                t.prev_flits = flits
                trace_row.setdefault("moved", {})[tid] = deltas
            # completion bookkeeping in local cycles; in-flight flits past
            # the last completion never matter, matching the solo run()
            # which stops at the final completion cycle
            local = t.engine.cycle
            for i, d in enumerate(t.done):
                if not d and t.engine.tree_done(i):
                    t.done[i] = True
                    t.completion[i] = local
            if all(t.done):
                t.outcome = t.finished(self.cycle)
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
                    [self.plan.trees[i] for i in t.placement.tree_ids],
                    list(t.placement.flits),
                    self.capacity,
                    self.buffer_size,
                    t.faults,
                )
                for t in self._tenants.values()
            )
            latest = max(t.job.arrival for t in self._tenants.values())
            max_cycles = latest + K * per
        while any(t.running for t in self._tenants.values()):
            self.step()
            if self.cycle > max_cycles:
                raise RuntimeError(f"fabric exceeded {max_cycles} cycles")
        outcomes = tuple(
            self._tenants[tid].outcome for tid in sorted(self._tenants)
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
