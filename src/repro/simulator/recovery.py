"""Mid-flight re-planning: interrupt → re-plan → resume with leftovers.

Couples the dynamic fault layer (:mod:`repro.simulator.faultsched`) and
the telemetry layer (:mod:`repro.telemetry`) to the static re-planning
machinery (:mod:`repro.core.faults`). The common shape is the *re-plan
episode*, driven by :func:`run_replan_loop`: a run starts on the original
:class:`~repro.core.plan.AllreducePlan`; when something interrupts the
leg — an engine raising
:class:`~repro.simulator.cycle.SimulationStalled` because a scheduled
link failure severed progress, or a policy raising an
:class:`EpisodeInterrupt` subclass from inside a telemetry hook (the
congestion controller of :mod:`repro.simulator.adaptive` does exactly
that) — a handler reads the progress frontiers the engines expose —

- ``delivered_floor()``: per tree, the broadcast prefix *every* non-root
  node has already received. Those elements are done and are never redone.
- ``reduced_at_root()``: per tree, the prefix fully reduced at the root.
  Elements reduced but not yet broadcast everywhere are *discarded* and
  re-submitted (the new trees may have different roots/topology, so
  partial broadcast state cannot be migrated); the gap is reported as
  ``flits_redone``.

— rewrites the plan, re-partitions the leftover sub-vectors, re-bases the
remaining fault schedule with
:meth:`~repro.simulator.faultsched.FaultSchedule.after`, and the loop
re-enters the engine. Cascading interrupts are handled by looping; every
episode is recorded as a :class:`ReplanEpisode` with its detection and
recovery latencies and the measured bandwidth before/after.

:func:`run_with_recovery` is the fault-recovery instantiation: its
handler answers a stall with :func:`~repro.core.faults.degraded_plan`
(drop severed trees, redistribute their leftover via Equation 2) or
:func:`~repro.core.faults.repaired_plan` (regrow replacements on the
surviving topology; replacements inherit their predecessors' leftovers).
The congestion-aware instantiation lives in
:mod:`repro.simulator.adaptive`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.simulator.cycle import CycleLimitExceeded, CycleStats, SimulationStalled
from repro.simulator.faultsched import FaultSchedule
from repro.topology.graph import Edge

__all__ = [
    "EpisodeInterrupt",
    "RecoveryError",
    "RecoveryEpisode",
    "RecoveryResult",
    "RECOVERY_POLICIES",
    "ReplanEpisode",
    "run_replan_loop",
    "run_with_recovery",
]

RECOVERY_POLICIES = ("repaired", "degraded", "auto")


class RecoveryError(RuntimeError):
    """Re-planning could not produce a runnable plan (disconnected
    survivor topology, no surviving trees under ``policy="degraded"``, or
    an episode-count blowup)."""


class EpisodeInterrupt(Exception):
    """A mid-leg re-plan request raised from *inside* a running leg.

    Engines never raise this themselves — it is the control-flow channel
    for policies observing a leg through telemetry hooks (the congestion
    controller's :class:`~repro.simulator.adaptive.ReplanSignal` is the
    canonical subclass). ``cycle`` is leg-relative, in the same numbering
    as :class:`~repro.simulator.cycle.SimulationStalled`. Because the
    interrupt escapes from a hook, the engine has *not* closed its
    telemetry leg — :func:`run_replan_loop` does that on its behalf.
    """

    def __init__(self, cycle: int, message: str):
        self.cycle = int(cycle)
        super().__init__(message)


@dataclass(frozen=True)
class ReplanEpisode:
    """One detected interrupt and the re-plan that answered it.

    Cycles are absolute (counted from the start of the whole collective,
    across all preceding episodes). ``kind`` discriminates what triggered
    the episode: ``"fault"`` (a link failure stalled the engine) or
    ``"congestion"`` (the adaptive controller migrated load off contended
    links). For congestion episodes ``failed_links`` holds the *demoted*
    links (contended, not dead) and ``fault_cycle`` the onset of the hot
    streak that fired the trigger.
    """

    fault_cycle: int  # when the triggering condition began (absolute)
    detect_cycle: int  # when the episode fired (engine/controller cycle)
    failed_links: Tuple[Edge, ...]  # links down (fault) / demoted (congestion)
    policy: str  # "degraded" / "repaired" / "demoted" (what was applied)
    trees_lost: Tuple[int, ...]  # severed/migrated tree indices (pre-replan)
    trees_regrown: int  # replacement trees grown (0 for degraded)
    flits_delivered: int  # sum of delivered floors kept, not redone
    flits_redone: int  # reduced-at-root but not delivered: re-submitted
    bandwidth_before: float  # delivered elements / detect-cycle span
    kind: str = "fault"  # "fault" | "congestion"

    @property
    def cycles_to_detect(self) -> int:
        """Onset-to-trigger latency: drain of in-flight/buffered work for
        faults, the dwell window for congestion episodes."""
        return self.detect_cycle - self.fault_cycle


#: Backwards-compatible name for the fault-recovery episode record.
RecoveryEpisode = ReplanEpisode


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of a re-plan episode loop (:func:`run_replan_loop`,
    :func:`run_with_recovery`)."""

    stats: CycleStats  # final (completing) leg's engine stats
    episodes: Tuple[ReplanEpisode, ...]
    total_cycles: int  # whole collective, all legs
    flits_total: int  # original workload (sum of the initial partition)
    final_num_trees: int
    final_scheme: str

    @property
    def recovered(self) -> bool:
        return bool(self.episodes)

    @property
    def cycles_to_detect(self) -> int:
        """First episode's onset-to-trigger latency (0 if no episode)."""
        return self.episodes[0].cycles_to_detect if self.episodes else 0

    @property
    def recovery_cycles(self) -> int:
        """Cycles spent after the first interrupt finishing the collective."""
        return self.total_cycles - self.episodes[0].detect_cycle if self.episodes else 0

    @property
    def bandwidth_before(self) -> float:
        """Measured bandwidth up to the first interrupt (elements/cycle);
        the clean-run aggregate bandwidth when no episode fired."""
        if self.episodes:
            return self.episodes[0].bandwidth_before
        return self.stats.aggregate_bandwidth

    @property
    def bandwidth_after(self) -> float:
        """Measured bandwidth of the final leg (leftover elements/cycle)."""
        return self.stats.aggregate_bandwidth

    @property
    def flits_redone(self) -> int:
        return sum(e.flits_redone for e in self.episodes)


# A handler answers one interrupt: given the interrupted engine, the
# exception, the absolute-cycle offset of the leg and the leg's (plan, m,
# faults), it returns the next leg as (plan, m, faults, episode) — or
# ``None`` to decline, which re-raises the interrupt (after the telemetry
# stream is finalized).
ReplanHandler = Callable[..., Optional[tuple]]


def run_replan_loop(
    plan,
    m_per_tree: Sequence[int],
    handle: ReplanHandler,
    *,
    engine: str = "leap",
    link_capacity: int = 1,
    buffer_size: Optional[int] = None,
    max_cycles: Optional[int] = None,
    max_episodes: int = 8,
    telemetry=None,
    faults: Optional[FaultSchedule] = None,
) -> RecoveryResult:
    """The generic re-plan episode loop shared by fault recovery and the
    congestion controller.

    Runs ``plan`` with the per-tree workload ``m_per_tree`` on the chosen
    engine. Whenever a leg is interrupted —
    :class:`~repro.simulator.cycle.SimulationStalled` from the engine or
    an :class:`EpisodeInterrupt` from a telemetry hook — ``handle(sim,
    trigger, offset, cur_plan, cur_m, cur_faults)`` decides the answer:

    - return ``(new_plan, new_m, new_faults, episode)`` to start the next
      leg (``episode`` is recorded and emitted to the telemetry stream);
    - return ``None`` to decline — the loop finalizes the telemetry
      stream and re-raises the trigger (e.g. a genuine deadlock);
    - raise :class:`RecoveryError` for an unanswerable interrupt (the
      stream is still finalized first).

    ``max_cycles`` bounds the *total* cycle count across all legs
    (:class:`~repro.simulator.cycle.CycleLimitExceeded` past it);
    ``max_episodes`` bounds cascading re-plans. ``telemetry`` attaches a
    :class:`~repro.telemetry.Collector`: every leg emits its own
    ``leg``/``sample``/``counters`` records (sample ``abs`` cycles stay
    monotone across legs via the collector's offset), every re-plan emits
    an ``episode`` record, and the stream is finalized whether the
    collective completes or the loop gives up.
    """
    from repro.simulator.engine import make_engine

    cur_plan = plan
    cur_m: List[int] = [int(x) for x in m_per_tree]
    flits_total = sum(cur_m)
    cur_faults = faults if faults else None
    episodes: List[ReplanEpisode] = []
    offset = 0  # absolute cycles consumed by previous legs

    while True:
        if telemetry is not None:
            telemetry.offset = offset
        sim = make_engine(
            engine,
            cur_plan.topology,
            cur_plan.trees,
            cur_m,
            link_capacity,
            buffer_size,
            faults=cur_faults,
            telemetry=telemetry,
        )
        leg_budget = None if max_cycles is None else max_cycles - offset
        if leg_budget is not None and leg_budget <= 0:
            raise CycleLimitExceeded(f"simulation exceeded {max_cycles} cycles")
        try:
            stats = sim.run(leg_budget)
        except (SimulationStalled, EpisodeInterrupt) as trigger:
            detect = trigger.cycle
            if isinstance(trigger, EpisodeInterrupt) and telemetry is not None:
                # engines close their own telemetry leg before raising
                # SimulationStalled; an interrupt escapes from inside a
                # hook, so the leg is still open — close it here
                telemetry.on_run_end(sim, detect, False)
            if len(episodes) >= max_episodes:
                if telemetry is not None:
                    telemetry.finish(offset + detect, completed=False)
                raise RecoveryError(
                    f"gave up after {max_episodes} recovery episodes"
                ) from trigger
            try:
                step = handle(sim, trigger, offset, cur_plan, cur_m, cur_faults)
            except RecoveryError:
                if telemetry is not None:
                    telemetry.finish(offset + detect, completed=False)
                raise
            if step is None:
                # the handler declined (genuine deadlock, foreign trigger)
                # — the stream still ends cleanly before the exception
                # escapes
                if telemetry is not None:
                    telemetry.finish(offset + detect, completed=False)
                raise
            cur_plan, cur_m, cur_faults, episode = step
            episodes.append(episode)
            if telemetry is not None:
                telemetry.on_episode(episode)
            offset += detect
            continue
        result = RecoveryResult(
            stats=stats,
            episodes=tuple(episodes),
            total_cycles=offset + stats.cycles,
            flits_total=flits_total,
            final_num_trees=cur_plan.num_trees,
            final_scheme=cur_plan.scheme,
        )
        if telemetry is not None:
            telemetry.finish(result.total_cycles, completed=True)
        return result


def _replan(plan, failed: Sequence[Edge], policy: str):
    """Apply the requested static recovery, returning (plan, policy used).

    Deterministic in its arguments, so ``run_with_recovery`` routes calls
    through :func:`repro.core.plancache.cached_replan` — fault Monte Carlo
    ensembles replaying the same failure scenario re-plan once per process.
    """
    from repro.core.faults import degraded_plan, repaired_plan

    if policy == "degraded":
        try:
            return degraded_plan(plan, failed), "degraded"
        except ValueError as exc:
            raise RecoveryError(f"degraded recovery impossible: {exc}") from exc
    if policy == "repaired":
        try:
            return repaired_plan(plan, failed), "repaired"
        except ValueError as exc:
            raise RecoveryError(f"repaired recovery impossible: {exc}") from exc
    # auto: prefer dropping trees (cheap), fall back to regrowing
    try:
        return degraded_plan(plan, failed), "degraded"
    except ValueError:
        try:
            return repaired_plan(plan, failed), "repaired"
        except ValueError as exc:
            raise RecoveryError(f"no recovery possible: {exc}") from exc


def _fault_handler(policy: str) -> ReplanHandler:
    """The fault-recovery episode handler (see :func:`run_with_recovery`)."""

    def handle(sim, trigger, offset, cur_plan, cur_m, cur_faults):
        from repro.core.bandwidth import optimal_partition
        from repro.core.faults import affected_trees
        from repro.core.plancache import cached_replan

        if not isinstance(trigger, SimulationStalled):
            return None  # foreign interrupt: not ours to answer
        detect = trigger.cycle
        if cur_faults is None or not cur_faults.down_edges_at(detect):
            # genuine deadlock (or stalled with every link up)
            return None
        failed = tuple(sorted(cur_faults.down_edges_at(detect)))
        fault_cycle = max(ev.down for ev in cur_faults.events if ev.covers(detect))
        delivered = sim.delivered_floor()
        reduced = sim.reduced_at_root()
        leftover = [mi - d for mi, d in zip(cur_m, delivered)]
        dead = affected_trees(cur_plan.trees, failed)
        dead_set = set(dead)
        survivors = [i for i in range(len(cur_m)) if i not in dead_set]

        new_plan, used = cached_replan(cur_plan, failed, policy, _replan)
        if used == "repaired":
            # survivors keep their order; replacements are appended in
            # sorted(dead) order (repaired_plan's construction order)
            # and inherit their predecessors' leftovers
            new_m = [leftover[i] for i in survivors] + [
                leftover[i] for i in sorted(dead)
            ]
        else:
            # severed trees' leftover pool is re-partitioned across the
            # survivors by Equation 2 on the degraded bandwidths
            pool = sum(leftover[i] for i in sorted(dead))
            extra = optimal_partition(pool, new_plan.bandwidths)
            new_m = [leftover[i] + x for i, x in zip(survivors, extra)]

        episode = ReplanEpisode(
            fault_cycle=offset + fault_cycle,
            detect_cycle=offset + detect,
            failed_links=failed,
            policy=used,
            trees_lost=tuple(dead),
            trees_regrown=len(dead) if used == "repaired" else 0,
            flits_delivered=sum(delivered),
            flits_redone=sum(r - d for r, d in zip(reduced, delivered)),
            bandwidth_before=(sum(delivered) / detect if detect else 0.0),
        )
        nxt = cur_faults.after(detect, drop_edges=failed)
        return new_plan, new_m, (nxt if nxt else None), episode

    return handle


def run_with_recovery(
    plan,
    m: int,
    faults: Optional[FaultSchedule] = None,
    policy: str = "repaired",
    engine: str = "leap",
    link_capacity: int = 1,
    buffer_size: Optional[int] = None,
    max_cycles: Optional[int] = None,
    max_episodes: int = 8,
    telemetry=None,
) -> RecoveryResult:
    """Run an ``m``-element Allreduce under ``faults``, re-planning
    mid-flight whenever a failure permanently severs progress.

    ``policy`` selects the static machinery invoked on a stall:
    ``"degraded"`` (:func:`~repro.core.faults.degraded_plan`, drop severed
    trees), ``"repaired"`` (:func:`~repro.core.faults.repaired_plan`,
    regrow replacements) or ``"auto"`` (degraded, falling back to repaired
    when every tree was severed). ``max_cycles`` bounds the *total* cycle
    count across all legs; ``max_episodes`` bounds cascading re-plans.

    Transient failures the pipeline can ride out (a revival is still
    scheduled) never trigger a re-plan — the engines idle-wait through
    them — so a schedule of pure transients completes on the original
    plan with ``episodes == ()``.

    ``telemetry`` attaches a :class:`~repro.telemetry.Collector`; see
    :func:`run_replan_loop` for the stream semantics.
    """
    if policy not in RECOVERY_POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; choose from {RECOVERY_POLICIES}"
        )
    if m < 0:
        raise ValueError("m must be >= 0")
    if faults is not None:
        faults.validate_against(plan.topology)
    return run_replan_loop(
        plan,
        plan.partition(m),
        _fault_handler(policy),
        engine=engine,
        link_capacity=link_capacity,
        buffer_size=buffer_size,
        max_cycles=max_cycles,
        max_episodes=max_episodes,
        telemetry=telemetry,
        faults=faults,
    )
