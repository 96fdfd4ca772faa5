"""E-A18 — adaptive re-planning: congestion-storm win and decision cost.

Workload: a synthetic congestion storm at q=7 — the whole vector pinned
to tree 0, so its links saturate while the rest of the fabric idles —
raced static vs with the congestion controller in the loop. Pass
criteria: the controller fires (and stays quiet on the balanced control
run), the adaptive run completes in strictly fewer cycles than static,
and the controller's per-window classification stays cheap enough to
ride every telemetry sample.

Each case's reproduced numbers land in ``benchmark.extra_info`` *and*
are persisted to ``BENCH_adaptive.json`` at the repo root (the same
pattern as ``BENCH_faults.json``) so the adaptive win and the decision
latency are tracked across PRs by the ``bench-trend`` CI gate.
"""

import time
from pathlib import Path

from conftest import persist, record, timed_pedantic

from repro.core import build_plan
from repro.simulator import simulate_allreduce
from repro.simulator.adaptive import (
    AdaptivePolicy,
    CongestionController,
    run_adaptive,
)

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_adaptive.json"

POLICY = AdaptivePolicy()  # the calibrated defaults the docs quote


def _time(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_adaptive_vs_static_congestion_storm(benchmark):
    """The tentpole number: completion cycles with and without the
    controller on the skewed workload, plus the balanced oracle."""
    plan = build_plan(7, "low-depth")
    m = 2_000
    parts = [m] + [0] * (plan.num_trees - 1)

    static, static_wall = _time(
        lambda: simulate_allreduce(plan.topology, plan.trees, parts, engine="fast")
    )
    balanced = simulate_allreduce(
        plan.topology, plan.trees, plan.partition(m), engine="fast"
    )
    res, adaptive_wall = _time(
        lambda: run_adaptive(plan, m_per_tree=parts, policy=POLICY, engine="fast")
    )
    control = run_adaptive(plan, m=m, policy=POLICY, engine="fast")

    assert res.episodes, "the storm must trigger the controller"
    assert res.total_cycles < static.cycles
    assert not control.episodes, "balanced control run must stay quiet"
    speedup = static.cycles / res.total_cycles
    assert speedup > 1.5

    def run():
        return run_adaptive(plan, m_per_tree=parts, policy=POLICY, engine="fast")

    _, wall = timed_pedantic(benchmark, run, rounds=3, iterations=1, warmup_rounds=1)
    ep = res.episodes[0]
    payload = {
        "q": 7,
        "scheme": "low-depth",
        "m": m,
        "static_cycles": static.cycles,
        "adaptive_cycles": res.total_cycles,
        "balanced_cycles": balanced.cycles,
        "speedup_vs_static": round(speedup, 4),
        "episodes": len(res.episodes),
        "cycles_to_decide": ep.cycles_to_detect,
        "demoted_links": len(ep.failed_links),
        "trees_rebuilt": ep.trees_regrown,
        "flits_redone": res.flits_redone,
        "static_wall_seconds": round(static_wall, 5),
        "wall_seconds": round(wall, 5),
    }
    record(benchmark, **payload)
    persist(BENCH_JSON, "congestion-storm-q7", payload)


def test_controller_decision_latency(benchmark):
    """Per-window classification cost of a disarmed controller fed the
    real probe stream of the storm run — the overhead every sampled
    window pays while the fabric is healthy."""
    from repro.telemetry import Collector
    from repro.telemetry.collector import Probe

    plan = build_plan(7, "low-depth")
    m = 2_000
    parts = [m] + [0] * (plan.num_trees - 1)
    col = Collector(sample_every=POLICY.sample_every)
    simulate_allreduce(
        plan.topology, plan.trees, parts, engine="fast", telemetry=col
    )
    probes = [
        Probe(
            cycle=r["cycle"],
            abs_cycle=r["abs"],
            link_flits=tuple(r["link_flits"]),
            queue=tuple(r["queue"]),
        )
        for r in col.records
        if r["t"] == "sample"
    ]
    assert len(probes) >= 50

    from repro.simulator.engine import make_engine

    engine = make_engine("fast", plan.topology, plan.trees, parts, 1, None)

    def classify():
        ctl = CongestionController(POLICY, armed=False)
        ctl.on_leg(engine, 0)
        for p in probes:
            ctl.on_sample(p)
        return ctl

    ctl, wall = timed_pedantic(
        benchmark, classify, rounds=5, iterations=1, warmup_rounds=1
    )
    us_per_window = wall / len(probes) * 1e6
    assert ctl.windows == len(probes) and not ctl.decisions
    payload = {
        "q": 7,
        "windows": len(probes),
        "channels": len(engine.channels()),
        "wall_seconds": round(wall, 6),
        "us_per_window": round(us_per_window, 2),
    }
    record(benchmark, **payload)
    persist(BENCH_JSON, "decision-latency-q7", payload)
    assert us_per_window < 2_000  # well under a sample window's cost
