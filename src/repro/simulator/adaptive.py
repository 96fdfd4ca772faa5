"""Congestion-aware re-planning: adaptive trees in the Canary style.

Static multi-spanning-tree plans (the paper's setting) leave bandwidth on
the table the moment traffic is skewed: a sub-vector partition tuned for
the Algorithm 1 bandwidths keeps every tree busy, but a skewed workload
(or links degraded by outside traffic) concentrates flits on a few links
while the rest of the fabric idles. This module closes the telemetry →
planner feedback loop:

- a :class:`CongestionController` subscribes to the live Probe stream as
  a :meth:`~repro.telemetry.Collector.set_tap` tap and watches per-link
  window utilization (and optionally queue occupancy). Each window is
  classified as array operations: channel utilizations, their maximum
  per physical link (one ``reduceat`` over a channel-to-link map built
  once per leg) and the set of links at or above ``util_high``; only
  the dwell, onset and cooldown bookkeeping of the few tracked links
  runs per link. A link whose utilization stays at or above
  ``util_high`` for ``dwell`` consecutive sample windows — *while* the
  fabric-wide mean utilization is at or below ``spare_low``, i.e. there
  is actually spare capacity to migrate onto — becomes *hot*;
- when a hot set ripens the controller raises :class:`ReplanSignal` out
  of the engine's step loop, and :func:`run_adaptive`'s episode handler
  answers it: the hot links are *demoted* (not killed) via
  :func:`repro.core.faults.demoted_plan` — crossing trees re-grown off
  them, their bandwidth scaled by ``penalty`` in the Algorithm 1 re-fill
  — and the leftover workload pool is re-partitioned by Equation 2 on
  the demoted bandwidths. The run resumes as a new leg, exactly like a
  fault-recovery episode (both ride :func:`~repro.simulator.recovery
  .run_replan_loop`);
- hysteresis keeps it from thrashing: a tracked link resets only after a
  window at or below ``util_low`` (low-water release), and after an
  episode fires no further episode may fire for ``cooldown`` absolute
  cycles. Re-plan decisions are memoized through
  :func:`repro.core.plancache.cached_replan` keyed on (plan fingerprint,
  hot set, penalty), so ensembles replaying a congestion scenario demote
  once per process.

With no controller attached nothing changes; with a controller attached
but never triggered, runs are byte-identical (stats, traces, telemetry
JSONL) to plain runs — the tap only observes. Only the per-cycle engines
(``reference``, ``fast``) can host the controller: the leap engine's
jumped regions reconstruct samples retrospectively, after the engine
state has already moved past them, so a mid-window interrupt could not
resume exactly where it fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.simulator.cycle import CycleStats
from repro.simulator.faultsched import FaultSchedule
from repro.simulator.recovery import (
    EpisodeInterrupt,
    ReplanEpisode,
    run_replan_loop,
)
from repro.topology.graph import Edge
from repro.utils.errors import whole

__all__ = [
    "ADAPTIVE_ENGINES",
    "AdaptivePolicy",
    "AdaptiveResult",
    "CongestionController",
    "ReplanSignal",
    "run_adaptive",
]

#: Engines that can host the congestion controller (per-cycle stepping;
#: the leap engine cannot be interrupted mid-window).
ADAPTIVE_ENGINES = ("reference", "fast")


@dataclass(frozen=True)
class AdaptivePolicy:
    """Thresholds and hysteresis of the congestion controller.

    Utilizations are window-normalized: a channel that moved ``f`` flits
    in a ``sample_every``-cycle window at link capacity ``c`` has
    utilization ``f / (sample_every * c)``, so 1.0 is a saturated link. A
    link's utilization is the max over its two directed channels.

    - ``util_high`` — high-water mark: a link counts toward its dwell in
      windows where its utilization is ``>= util_high``;
    - ``util_low`` — low-water release: a tracked link's dwell resets
      only in a window where its utilization is ``<= util_low`` (between
      the two marks the streak holds but does not grow);
    - ``spare_low`` — migration gate: dwell only *grows* in windows whose
      fabric-wide mean utilization is ``<= spare_low``. A uniformly busy
      fabric is healthy pipelining, not congestion — there is nowhere to
      migrate to, so the controller stays quiet;
    - ``queue_high`` — optional queue trigger: when set, a router whose
      receive queue reaches ``queue_high`` flits marks every tree link
      incident to it hot for that window (not gated by ``spare_low``;
      deep queues are actionable regardless of mean load);
    - ``dwell`` — consecutive qualifying windows before a link ripens;
    - ``max_demote`` — churn bound: an episode demotes at most this many
      links (the ripest — longest dwell, then highest utilization). A
      saturated subtree can ripen dozens of links in the same window;
      demoting them all would strip the topology faster than trees can
      be re-grown around the holes (``None`` lifts the bound);
    - ``cooldown`` — absolute cycles after an episode during which no new
      episode may fire (the re-partitioned pipeline needs time to drain
      and refill before its samples mean anything);
    - ``penalty`` — bandwidth scale applied to demoted links in the
      Algorithm 1 re-fill (see :func:`repro.core.faults.demoted_plan`);
    - ``sample_every`` — the Collector sampling period the thresholds are
      calibrated against (an attached collector must match);
    - ``max_episodes`` — episode budget before the loop gives up.
    """

    util_high: float = 0.85
    util_low: float = 0.30
    spare_low: float = 0.50
    queue_high: Optional[int] = None
    dwell: int = 3
    max_demote: Optional[int] = 8
    cooldown: int = 256
    penalty: Fraction = Fraction(1, 2)
    sample_every: int = 16
    max_episodes: int = 4

    def __post_init__(self) -> None:
        for name in ("dwell", "cooldown", "sample_every", "max_episodes"):
            whole(name, getattr(self, name))
        for name in ("queue_high", "max_demote"):
            if getattr(self, name) is not None:
                whole(name, getattr(self, name))
        if not 0 < self.util_high <= 1:
            raise ValueError("util_high must be in (0, 1]")
        if not 0 <= self.util_low < self.util_high:
            raise ValueError("util_low must satisfy 0 <= util_low < util_high")
        if not 0 < self.spare_low <= 1:
            raise ValueError("spare_low must be in (0, 1]")
        if self.queue_high is not None and self.queue_high < 1:
            raise ValueError("queue_high must be >= 1 flit")
        if self.dwell < 1:
            raise ValueError("dwell must be >= 1 window")
        if self.max_demote is not None and self.max_demote < 1:
            raise ValueError("max_demote must be >= 1 link (or None)")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0 cycles")
        if not 0 < Fraction(self.penalty) <= 1:
            raise ValueError("penalty must be in (0, 1]")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1 cycle")
        if self.max_episodes < 0:
            raise ValueError("max_episodes must be >= 0")


class ReplanSignal(EpisodeInterrupt):
    """The controller's mid-run re-plan request (see
    :class:`~repro.simulator.recovery.EpisodeInterrupt`). ``hot_links``
    is the ripe hot set (canonical edges, sorted); ``onset_cycle`` the
    absolute cycle the earliest surviving hot streak began."""

    def __init__(self, cycle: int, hot_links: Sequence[Edge], onset_cycle: int):
        self.hot_links: Tuple[Edge, ...] = tuple(hot_links)
        self.onset_cycle = int(onset_cycle)
        super().__init__(
            cycle,
            f"congestion re-plan requested at cycle {cycle}: "
            f"hot links {list(self.hot_links)}",
        )


class CongestionController:
    """The telemetry tap implementing the dwell/hysteresis state machine.

    Attach with ``collector.set_tap(controller)`` (``run_adaptive`` does
    this). Per sample window it classifies every physical link (max of
    its directed channels) against the policy's thresholds in a few
    array operations, then advances the dwell counters of the hot and
    already-tracked links; when any link's dwell reaches
    ``policy.dwell`` outside the cooldown shadow, it raises
    :class:`ReplanSignal` with the whole ripe set.

    ``armed=False`` turns the state machine into a passive observer — it
    still tracks dwell streaks and counts windows (the decision-latency
    benchmark uses this) but never raises.
    """

    def __init__(self, policy: AdaptivePolicy, armed: bool = True):
        self.policy = policy
        self.armed = bool(armed)
        #: sample windows observed, across all legs
        self.windows = 0
        #: every fired decision as (absolute cycle, hot set)
        self.decisions: List[Tuple[int, Tuple[Edge, ...]]] = []
        self._capacity = 1
        # the leg's physical links (sorted canonical edges) and the map
        # from its directed channels to them: channels in link order
        # (``_order``) reduce to per-link maxima at ``_starts``
        self._links: List[Edge] = []
        self._link_index: Dict[Edge, int] = {}
        self._order = np.zeros(0, dtype=np.intp)
        self._starts = np.zeros(0, dtype=np.intp)
        self._incident: Dict[int, Set[Edge]] = {}
        self._dwell: Dict[Edge, int] = {}
        self._onset: Dict[Edge, int] = {}
        self._cooldown_until = -1  # absolute cycle; episodes re-arm this

    # ------------------------------------------------------------ tap hooks

    def on_leg(self, engine: Any, leg: int) -> None:
        """A new leg began: re-index channels against the (possibly
        re-planned) embedding. Dwell streaks reset with the new plan —
        its utilization pattern is different by construction — but the
        cooldown shadow is absolute-cycle and deliberately survives."""
        self._capacity = int(engine.capacity)
        channels = engine.channels()
        ch = np.fromiter(
            chain.from_iterable(channels), dtype=np.int64, count=2 * len(channels)
        ).reshape(-1, 2)
        lo, hi = np.minimum(ch[:, 0], ch[:, 1]), np.maximum(ch[:, 0], ch[:, 1])
        span = int(hi.max()) + 1 if len(ch) else 1
        keys, link, counts = np.unique(
            lo * span + hi, return_inverse=True, return_counts=True
        )
        self._links = list(zip((keys // span).tolist(), (keys % span).tolist()))
        self._link_index = dict(zip(self._links, range(len(self._links))))
        self._order = np.argsort(link, kind="stable")
        self._starts = np.cumsum(counts) - counts
        self._incident = {}
        if self.policy.queue_high is not None:
            for t in engine.trees:
                for e in t.edges:
                    for v in e:
                        self._incident.setdefault(v, set()).add(e)
        self._dwell = {}
        self._onset = {}

    def on_sample(self, probe: Any) -> None:
        p = self.policy
        self.windows += 1
        util = np.array(probe.link_flits, dtype=np.int64) / (
            p.sample_every * self._capacity
        )
        # the builtin float sum, exactly as the migration gate was defined
        mean_util = sum(util.tolist()) / len(util) if len(util) else 0.0
        link_util = np.maximum.reduceat(util[self._order], self._starts)

        hot: Set[Edge] = set()
        if mean_util <= p.spare_low:  # else saturation is health, not heat
            hot = {
                self._links[k]
                for k in np.flatnonzero(link_util >= p.util_high).tolist()
            }
        if p.queue_high is not None:
            deep = np.flatnonzero(np.array(probe.queue) >= p.queue_high)
            for v in deep.tolist():
                hot.update(self._incident.get(v, ()))

        def utilization(e: Edge) -> float:
            k = self._link_index.get(e)
            return 0.0 if k is None else float(link_util[k])

        window_start = probe.abs_cycle - p.sample_every + 1
        for e in list(self._dwell):
            if e in hot:
                continue
            if utilization(e) <= p.util_low:
                del self._dwell[e]  # low-water release
                del self._onset[e]
            # between the marks: streak holds, does not grow
        for e in hot:
            if e not in self._dwell:
                self._onset[e] = window_start
                self._dwell[e] = 0
            self._dwell[e] += 1

        if not self.armed:
            return
        if probe.abs_cycle <= self._cooldown_until:
            return
        ripe = sorted(e for e, d in self._dwell.items() if d >= p.dwell)
        if not ripe:
            return
        if p.max_demote is not None and len(ripe) > p.max_demote:
            # churn bound: take the ripest (longest streak, then hottest,
            # then edge order — fully deterministic)
            ripe = sorted(
                ripe,
                key=lambda e: (-self._dwell[e], -utilization(e), e),
            )[: p.max_demote]
            ripe.sort()
        onset = min(self._onset[e] for e in ripe)
        self._cooldown_until = probe.abs_cycle + p.cooldown
        self.decisions.append((probe.abs_cycle, tuple(ripe)))
        raise ReplanSignal(probe.cycle, ripe, onset)


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of :func:`run_adaptive` — a
    :class:`~repro.simulator.recovery.RecoveryResult` enriched with the
    controller's observation counters."""

    stats: CycleStats  # final (completing) leg's engine stats
    episodes: Tuple[ReplanEpisode, ...]  # kind="congestion" episodes
    total_cycles: int  # whole collective, all legs
    flits_total: int  # original workload
    final_num_trees: int
    final_scheme: str
    windows_observed: int  # sample windows the controller classified
    decisions: Tuple[Tuple[int, Tuple[Edge, ...]], ...] = field(default=())

    @property
    def adapted(self) -> bool:
        return bool(self.episodes)

    @property
    def cycles_to_detect(self) -> int:
        """First episode's hot-streak-onset → trigger latency (0 if the
        controller never fired)."""
        return self.episodes[0].cycles_to_detect if self.episodes else 0

    @property
    def demoted_links(self) -> Tuple[Edge, ...]:
        """Union of all demoted links across episodes (sorted)."""
        out = set()
        for e in self.episodes:
            out.update(e.failed_links)
        return tuple(sorted(out))

    @property
    def flits_redone(self) -> int:
        return sum(e.flits_redone for e in self.episodes)


def run_adaptive(
    plan,
    m: Optional[int] = None,
    policy: Optional[AdaptivePolicy] = None,
    *,
    m_per_tree: Optional[Sequence[int]] = None,
    engine: str = "fast",
    link_capacity: int = 1,
    buffer_size: Optional[int] = None,
    max_cycles: Optional[int] = None,
    faults: Optional[FaultSchedule] = None,
    telemetry=None,
    controller: Optional[CongestionController] = None,
) -> AdaptiveResult:
    """Run an Allreduce with the congestion controller in the loop.

    Pass exactly one of ``m`` (Equation 2 partitions it) or
    ``m_per_tree`` (an explicit per-tree split — how skewed workloads are
    expressed). ``telemetry`` attaches an external Collector; its
    ``sample_every`` must equal the policy's (the thresholds are
    window-normalized), and its tap slot must be free. Without one an
    internal collector feeds the controller and is discarded. Pass an
    explicit ``controller`` to inspect its counters afterwards (or to
    attach a disarmed observer).

    A :class:`~repro.simulator.cycle.SimulationStalled` raised while
    ``faults`` sever progress is *not* answered here — congestion
    episodes demote links, they cannot resurrect dead ones; use
    :func:`~repro.simulator.recovery.run_with_recovery` for that. The
    stall propagates after the telemetry stream is finalized.
    """
    from repro.core.bandwidth import optimal_partition
    from repro.core.faults import affected_trees, demoted_plan
    from repro.core.plancache import cached_replan
    from repro.telemetry import Collector

    policy = policy if policy is not None else AdaptivePolicy()
    if engine not in ADAPTIVE_ENGINES:
        raise ValueError(
            f"engine {engine!r} cannot host the congestion controller; "
            f"choose from {ADAPTIVE_ENGINES}"
        )
    if (m is None) == (m_per_tree is None):
        raise ValueError("pass exactly one of m or m_per_tree")
    if m_per_tree is None:
        m = whole("m", m)
        if m < 0:
            raise ValueError("m must be >= 0")
        cur_m = plan.partition(m)
    else:
        cur_m = [whole(f"m_per_tree[{i}]", x) for i, x in enumerate(m_per_tree)]
        if len(cur_m) != plan.num_trees:
            raise ValueError(
                f"m_per_tree has {len(cur_m)} entries for {plan.num_trees} trees"
            )
        if any(x < 0 for x in cur_m):
            raise ValueError("per-tree workloads must be >= 0")
    if faults is not None:
        faults.validate_against(plan.topology)
    if telemetry is not None:
        if telemetry.sample_every != policy.sample_every:
            raise ValueError(
                f"collector samples every {telemetry.sample_every} cycles but "
                f"the policy is calibrated for {policy.sample_every}"
            )
        col = telemetry
    else:
        col = Collector(sample_every=policy.sample_every)
    if controller is None:
        controller = CongestionController(policy)
    if col.tap is not None and col.tap is not controller:
        raise ValueError("collector already carries a different tap")
    col.set_tap(controller)

    def _demote(cur_plan, hot, pol):
        # pol encodes the penalty (cached_replan keys on it)
        return demoted_plan(cur_plan, hot, policy.penalty), "demoted"

    def handle(sim, trigger, offset, cur_plan, leg_m, cur_faults):
        if not isinstance(trigger, ReplanSignal):
            return None  # a genuine stall (severed faults): not answerable
        detect = trigger.cycle
        hot = trigger.hot_links
        delivered = sim.delivered_floor()
        reduced = sim.reduced_at_root()
        pool = sum(mi - d for mi, d in zip(leg_m, delivered))
        new_plan, _ = cached_replan(
            cur_plan, hot, f"demoted:{Fraction(policy.penalty)}", _demote
        )
        migrated = affected_trees(cur_plan.trees, hot)
        rebuilt = sum(
            1
            for i in migrated
            if new_plan.trees[i].edges != cur_plan.trees[i].edges
        )
        # the demoted plan keeps tree indices, but the whole leftover pool
        # is re-partitioned by Equation 2 on the demoted bandwidths — the
        # entire point of the episode is escaping the old split
        new_m = optimal_partition(pool, new_plan.bandwidths)
        episode = ReplanEpisode(
            fault_cycle=trigger.onset_cycle,
            detect_cycle=offset + detect,
            failed_links=hot,
            policy="demoted",
            trees_lost=tuple(migrated),
            trees_regrown=rebuilt,
            flits_delivered=sum(delivered),
            flits_redone=sum(r - d for r, d in zip(reduced, delivered)),
            bandwidth_before=(sum(delivered) / detect if detect else 0.0),
            kind="congestion",
        )
        nxt = cur_faults.after(detect) if cur_faults is not None else None
        return new_plan, new_m, (nxt if nxt else None), episode

    try:
        res = run_replan_loop(
            plan,
            cur_m,
            handle,
            engine=engine,
            link_capacity=link_capacity,
            buffer_size=buffer_size,
            max_cycles=max_cycles,
            max_episodes=policy.max_episodes,
            telemetry=col,
            faults=faults,
        )
    finally:
        if telemetry is None:
            col.set_tap(None)  # the internal collector dies with the run
    return AdaptiveResult(
        stats=res.stats,
        episodes=res.episodes,
        total_cycles=res.total_cycles,
        flits_total=res.flits_total,
        final_num_trees=res.final_num_trees,
        final_scheme=res.final_scheme,
        windows_observed=controller.windows,
        decisions=tuple(controller.decisions),
    )
