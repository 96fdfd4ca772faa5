"""Fault Monte Carlo: degradation statistics from one batched invocation.

Samples ``k`` random link-failure schedules over the links a plan
actually routes flits on (the same deterministic universe the recovery
table indexes into), simulates every sample as one lane of a
:class:`~repro.simulator.batched.BatchedCycleSimulator` batch, and folds
the ensemble into degradation statistics: stall rate, completion-time
slowdown quantiles versus the fault-free run, and per-lane records.

Sampling is a single :func:`numpy.random.default_rng` stream consumed
*before* any simulation, so the ensemble is a pure function of
``(seed, k, ...)`` — the ``engine`` argument only chooses how the same
lanes are evaluated (``"batched"`` in chunks of ``chunk`` lanes, or
``"fast"`` one serial run per lane).  The two evaluators are
bit-identical per lane (the batched engine's differential guarantee), so
summary statistics cannot depend on the engine; ``tests/test_faults.py``
re-checks this on a 1k-lane ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.recovery import used_links
from repro.core import get_plan
from repro.simulator import SimulationStalled, make_engine
from repro.simulator.batched import BatchedCycleSimulator, LaneSpec
from repro.simulator.faultsched import FaultSchedule
from repro.utils.errors import nonnegative, whole

__all__ = ["MonteCarloResult", "fault_monte_carlo", "render_monte_carlo"]

_QUANTILES = (0.5, 0.9, 0.99)


@dataclass(frozen=True)
class MonteCarloResult:
    """Ensemble statistics plus the per-lane evidence they came from."""

    q: int
    scheme: str
    m: int
    k: int
    seed: int
    engine: str
    clean_cycles: int
    lanes: Tuple[Dict[str, Any], ...]  # per-lane: schedule + outcome
    stall_rate: float
    slowdown_quantiles: Dict[str, float]  # p50/p90/p99/max over completed
    mean_slowdown: float

    def render(self) -> str:
        qs = self.slowdown_quantiles
        lines = [
            f"fault monte carlo: q={self.q} scheme={self.scheme} m={self.m} "
            f"k={self.k} seed={self.seed} engine={self.engine}",
            f"  clean run: {self.clean_cycles} cycles",
            f"  stalled: {sum(1 for l in self.lanes if l['stalled'])}/{self.k} "
            f"lanes (rate {self.stall_rate:.3f})",
        ]
        if any(not l["stalled"] for l in self.lanes):
            lines.append(
                f"  slowdown (completed lanes): mean {self.mean_slowdown:.3f}  "
                f"p50 {qs['p50']:.3f}  p90 {qs['p90']:.3f}  "
                f"p99 {qs['p99']:.3f}  max {qs['max']:.3f}"
            )
        return "\n".join(lines)


def _sample_schedules(
    links: Sequence[Tuple[int, int]],
    k: int,
    seed: int,
    num_faults: int,
    transient_fraction: float,
    down_window: Tuple[int, int],
    outage_window: Tuple[int, int],
) -> List[FaultSchedule]:
    """The ensemble: k schedules drawn from one rng stream, engine-free."""
    rng = np.random.default_rng(seed)
    schedules = []
    for _ in range(k):
        picks = rng.choice(len(links), size=num_faults, replace=False)
        events = []
        for p in sorted(int(x) for x in picks):
            edge = links[p]
            down = int(rng.integers(down_window[0], down_window[1] + 1))
            if rng.random() < transient_fraction:
                up = down + int(
                    rng.integers(outage_window[0], outage_window[1] + 1)
                )
            else:
                up = None
            events.append((edge, down, up))
        schedules.append(FaultSchedule(events))
    return schedules


def _window(name: str, window: Tuple[int, int]) -> Tuple[int, int]:
    """A cycle window ``(lo, hi)`` as whole ints, ``lo <= hi``."""
    lo, hi = (whole(f"{name}[{i}]", x) for i, x in enumerate(window))
    if lo > hi:
        raise ValueError(f"{name} must have lo <= hi; got ({lo}, {hi})")
    return lo, hi


def fault_monte_carlo(
    q: int,
    scheme: str = "low-depth",
    m: int = 8,
    k: int = 1000,
    seed: int = 0,
    num_faults: int = 1,
    transient_fraction: float = 0.5,
    down_window: Tuple[int, int] = (1, 20),
    outage_window: Tuple[int, int] = (2, 20),
    engine: str = "batched",
    chunk: int = 512,
) -> MonteCarloResult:
    """Sample ``k`` random fault schedules and measure the degradation.

    ``num_faults`` distinct tree-carrying links fail per sample, each at
    a cycle uniform in ``down_window``; with probability
    ``transient_fraction`` the link revives after an outage uniform in
    ``outage_window``, else the failure is permanent.  ``engine``
    selects the evaluator only — ``"batched"`` runs ``chunk`` lanes per
    tensor invocation, ``"fast"`` loops serial runs — and the per-lane
    results are identical either way.
    """
    if engine not in ("batched", "fast"):
        raise ValueError(
            f"fault_monte_carlo evaluates on 'batched' or 'fast', got {engine!r}"
        )
    k, chunk = whole("k", k), whole("chunk", chunk)
    num_faults, seed = whole("num_faults", num_faults), nonnegative("seed", seed)
    if k < 1:
        raise ValueError("k must be >= 1 samples")
    if chunk < 1:
        raise ValueError("chunk must be >= 1 lanes")
    if not 0 <= transient_fraction <= 1:
        raise ValueError(
            f"transient_fraction must be in [0, 1]; got {transient_fraction!r}"
        )
    down_window = _window("down_window", down_window)
    outage_window = _window("outage_window", outage_window)
    plan = get_plan(q, scheme)
    links = used_links(plan)
    if num_faults < 1 or num_faults > len(links):
        raise ValueError(
            f"num_faults must be in [1, {len(links)}] for this plan"
        )
    schedules = _sample_schedules(
        links, k, seed, num_faults, transient_fraction, down_window,
        outage_window,
    )
    flits = (m,) * plan.num_trees  # the engines name a non-integer m
    clean = make_engine("fast", plan.topology, plan.trees, flits).run()

    lanes: List[Dict[str, Any]] = []

    def _record(sched: FaultSchedule, status: str, cycles: Optional[int],
                stall_cycle: Optional[int], pending: Tuple[int, ...]) -> None:
        rec: Dict[str, Any] = {
            "faults": [
                [list(e.edge), e.down, e.up] for e in sched.events
            ],
            "stalled": status == "stalled",
        }
        if status == "done":
            rec["cycles"] = int(cycles)
            rec["slowdown"] = (
                cycles / clean.cycles if clean.cycles else 0.0
            )
        else:
            rec["stall_cycle"] = int(stall_cycle)
            rec["pending"] = [int(t) for t in pending]
        lanes.append(rec)

    if engine == "batched":
        for lo in range(0, k, chunk):
            specs = [
                LaneSpec(flits, faults=s) for s in schedules[lo:lo + chunk]
            ]
            sim = BatchedCycleSimulator(plan.topology, plan.trees, lanes=specs)
            for out, sched in zip(sim.run_batch(), schedules[lo:lo + chunk]):
                if out.status == "exceeded":
                    out.result()  # propagate the serial CycleLimitExceeded
                if out.status == "done":
                    _record(sched, "done", out.stats.cycles, None, ())
                else:
                    _record(sched, "stalled", None, out.stall_cycle,
                            out.stall_pending)
    else:
        for sched in schedules:
            try:
                stats = make_engine(
                    "fast", plan.topology, plan.trees, flits, faults=sched
                ).run()
            except SimulationStalled as e:
                _record(sched, "stalled", None, e.cycle, tuple(e.pending))
            else:
                _record(sched, "done", stats.cycles, None, ())

    stalls = sum(1 for rec in lanes if rec["stalled"])
    slowdowns = [rec["slowdown"] for rec in lanes if not rec["stalled"]]
    if slowdowns:
        arr = np.asarray(slowdowns, dtype=np.float64)
        quantiles = {
            f"p{int(p * 100)}": float(np.quantile(arr, p)) for p in _QUANTILES
        }
        quantiles["max"] = float(arr.max())
        mean_slowdown = float(arr.mean())
    else:
        quantiles = {f"p{int(p * 100)}": 0.0 for p in _QUANTILES}
        quantiles["max"] = 0.0
        mean_slowdown = 0.0
    return MonteCarloResult(
        q=q,
        scheme=scheme,
        m=int(m),
        k=k,
        seed=seed,
        engine=engine,
        clean_cycles=clean.cycles,
        lanes=tuple(lanes),
        stall_rate=stalls / k,
        slowdown_quantiles=quantiles,
        mean_slowdown=mean_slowdown,
    )


def render_monte_carlo(result: MonteCarloResult) -> str:
    """Text rendering, one ensemble per block (CLI surface)."""
    return result.render()
