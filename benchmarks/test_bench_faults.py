"""E-A12 — recovery latency: fault detection and mid-flight re-plan cost.

Workload: kill one tree-carrying link mid-Allreduce at q=7 and drive the
recovery runtime end to end (stall detection, degraded/repaired re-plan,
resumed execution with leftovers). Pass criteria: the recovered run
completes, the three cycle engines agree on every recovery metric, and
the leap engine finishes a paper-scale (m=10^6) faulted-and-recovered run
in interactive time.

Each case's reproduced numbers land in ``benchmark.extra_info`` *and* are
persisted to ``BENCH_faults.json`` at the repo root (the same pattern as
``BENCH_leap.json``) so recovery-latency trends are tracked across PRs.
"""

import time
from pathlib import Path

import pytest
from conftest import persist, record, timed_pedantic

from repro.analysis.recovery import used_links
from repro.core import build_plan
from repro.simulator import FaultSchedule, run_with_recovery

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_faults.json"


def _time(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_recovery_engines_agree_on_smoke_grid():
    """All three engines must report identical recovery trajectories —
    exactness first, latency numbers second."""
    for q, scheme in ((7, "low-depth"), (7, "edge-disjoint")):
        plan = build_plan(q, scheme)
        fs = FaultSchedule.single(used_links(plan)[0], 20)
        runs = [
            run_with_recovery(plan, 400, fs, policy="repaired", engine=e)
            for e in ("reference", "fast", "leap")
        ]
        assert runs[0].episodes == runs[1].episodes == runs[2].episodes
        assert len({r.total_cycles for r in runs}) == 1, (q, scheme)


def test_recovery_latency_q7(benchmark):
    """Recovery latency at q=7 for both policies: cycles-to-detect,
    cycles-to-recover and the bandwidth the re-planned trees achieve."""
    plan = build_plan(7, "low-depth")
    edge = used_links(plan)[0]
    m = 2_000
    fs = FaultSchedule.single(edge, 50)
    cases = {}
    for policy in ("repaired", "degraded"):
        res, wall = _time(
            lambda p=policy: run_with_recovery(plan, m, fs, policy=p)
        )
        ep = res.episodes[0]
        cases[policy] = {
            "cycles_to_detect": ep.cycles_to_detect,
            "recovery_cycles": res.recovery_cycles,
            "total_cycles": res.total_cycles,
            "flits_redone": res.flits_redone,
            "bandwidth_before": round(res.bandwidth_before, 4),
            "bandwidth_after": round(res.bandwidth_after, 4),
            "trees_after": res.final_num_trees,
            "wall_seconds": round(wall, 5),
        }
        assert res.recovered and res.total_cycles > 0

    def run():
        return run_with_recovery(plan, m, fs, policy="repaired")

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    payload = {"q": 7, "scheme": "low-depth", "m": m, "down_cycle": 50,
               "failed_link": list(edge), "cases": cases}
    record(benchmark, q=7, scheme="low-depth", **cases["repaired"])
    persist(BENCH_JSON, "recovery-latency-q7", payload)


def test_recovery_paper_scale_leap(benchmark):
    """A faulted m=10^6 run must stay interactive on the leap engine: the
    pre-fault leg leaps to the failure, the recovered leg leaps to the
    finish, so wall clock is O(depth + #events) despite the re-plan."""
    plan = build_plan(7, "low-depth")
    edge = used_links(plan)[0]
    m = 1_000_000
    fs = FaultSchedule.single(edge, 10_000)

    def run():
        return run_with_recovery(plan, m, fs, policy="repaired")

    res, wall = timed_pedantic(benchmark, run, rounds=1, iterations=1)
    ep = res.episodes[0]
    payload = {
        "q": 7,
        "m": m,
        "down_cycle": 10_000,
        "cycles_to_detect": ep.cycles_to_detect,
        "recovery_cycles": res.recovery_cycles,
        "total_cycles": res.total_cycles,
        "bandwidth_before": round(res.bandwidth_before, 4),
        "bandwidth_after": round(res.bandwidth_after, 4),
        "wall_seconds": round(wall, 4),
    }
    record(benchmark, **payload)
    persist(BENCH_JSON, f"paper-scale-q7-m{m}", payload)
    assert res.recovered
    assert wall < 30.0
