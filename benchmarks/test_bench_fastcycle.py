"""E-A7 — fast cycle engine: speedup over the reference simulator.

Workload: identical q=7 Allreduce simulations (the largest radix the
reference engine can sweep in reasonable time) on both cycle engines.
Pass criteria: the engines agree exactly on the resulting
:class:`CycleStats`, and the vectorized engine is >= 10x faster.

A second case times the cold construction of the vectorized engines at
paper-scale radix (q=23, 25, 29, low-depth), where building the index
layout used to cost more than short runs themselves.  The fused step's
own costs follow: bit-identity of fast and leap against the reference
on a clean/credited/faulted smoke grid, the per-cycle step across a
q=7/q=11 clean/faulted grid, and the step's cold-vs-warm start.

Each case's reproduced numbers land in ``benchmark.extra_info`` (for the
pytest-benchmark JSON) *and* are persisted to ``BENCH_fastcycle.json`` at
the repo root so the perf trajectory is tracked across PRs.
"""

import json
import statistics
import time
from pathlib import Path

import pytest
from conftest import persist, record, timed_pedantic

from repro.core import build_plan
from repro.simulator import (
    BatchedCycleSimulator,
    FaultSchedule,
    LaneSpec,
    make_engine,
    simulate_allreduce,
)

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_fastcycle.json"
SPEEDUP_TARGET = 10.0

BUILD_QS = (23, 25, 29)
BUILD_ENGINES = ("fast", "leap", "batched")
BUILD_REPEATS = 5
LEAP_BUILD_GATE_MS = 100.0
#: cold ``make_engine`` ms before the array-built layout (per-flow Python
#: loops), first call - best of 5, measured on the same 2-core host
PARENT_BUILD_MS = {
    23: {"fast": "154-180", "leap": "169-209", "batched": "154"},
    25: {"fast": "215-319", "leap": "166-266", "batched": "152"},
    29: {"fast": "414-564", "leap": "362-381", "batched": "323-336"},
}

CASES = [
    # scheme, q, m, buffer_size
    ("low-depth", 7, 2800, None),
    ("low-depth", 7, 2800, 2),
    ("edge-disjoint", 7, 6000, None),
]


@pytest.mark.parametrize(
    "scheme,q,m,buf",
    CASES,
    ids=[f"{s}-q{q}-{'credit' if b else 'nocredit'}" for s, q, _, b in CASES],
)
def test_fastcycle_speedup(benchmark, scheme, q, m, buf):
    plan = build_plan(q, scheme)
    parts = plan.partition(m)

    def run_fast():
        return simulate_allreduce(
            plan.topology, plan.trees, parts, buffer_size=buf, engine="fast"
        )

    # warm NumPy dispatch paths, then time the benchmarked (fast) engine
    fast_stats, fast_time = timed_pedantic(
        benchmark, run_fast, rounds=3, iterations=1, warmup_rounds=1
    )

    t0 = time.perf_counter()
    ref_stats = simulate_allreduce(
        plan.topology, plan.trees, parts, buffer_size=buf, engine="reference"
    )
    ref_time = time.perf_counter() - t0

    # cycle-exactness is the precondition for the speedup to mean anything
    assert fast_stats == ref_stats

    speedup = ref_time / fast_time
    payload = {
        "scheme": scheme,
        "q": q,
        "m": m,
        "buffer_size": buf,
        "cycles": ref_stats.cycles,
        "flits_moved": ref_stats.flits_moved,
        "reference_seconds": round(ref_time, 4),
        "fast_seconds": round(fast_time, 4),
        "speedup": round(speedup, 2),
        "target": SPEEDUP_TARGET,
    }
    record(benchmark, **payload)
    case_id = f"{scheme}-q{q}-m{m}-buf{buf}"
    persist(BENCH_JSON, case_id, payload)
    assert speedup >= SPEEDUP_TARGET, (
        f"fast engine only {speedup:.1f}x faster than reference "
        f"(target {SPEEDUP_TARGET}x) on {case_id}"
    )


def test_fastcycle_scaling_headroom(benchmark):
    """The point of the fast engine: workloads the reference cannot touch.

    q=7 low-depth with a 20x longer message than the validation runs —
    completes in well under a second on the fast engine.
    """
    plan = build_plan(7, "low-depth")
    m = 56000
    parts = plan.partition(m)

    def run():
        return simulate_allreduce(plan.topology, plan.trees, parts, engine="fast")

    stats, seconds = timed_pedantic(benchmark, run, rounds=1, iterations=1)
    predicted = float(plan.aggregate_bandwidth)
    measured = stats.aggregate_bandwidth
    # steady state dominates at this length: measured ~ sum B_i
    assert measured >= 0.97 * predicted
    assert measured <= predicted * 1.02
    payload = {
        "scheme": "low-depth",
        "q": 7,
        "m": m,
        "cycles": stats.cycles,
        "seconds": round(seconds, 4),
        "measured_bandwidth": round(measured, 4),
        "theoretical_bandwidth": predicted,
    }
    record(benchmark, **payload)
    persist(BENCH_JSON, f"scaling-headroom-q7-m{m}", payload)


def _cold_build_ms(q, engine):
    """Median ms of ``make_engine`` (a one-lane ``BatchedCycleSimulator``
    for ``"batched"``) over fresh plans (cold tree caches)."""
    times = []
    for _ in range(BUILD_REPEATS):
        plan = build_plan(q, "low-depth")
        parts = plan.partition(28000)
        t0 = time.perf_counter()
        if engine == "batched":
            BatchedCycleSimulator(plan.topology, plan.trees, lanes=[LaneSpec(parts)])
        else:
            make_engine(engine, plan.topology, plan.trees, parts)
        times.append((time.perf_counter() - t0) * 1e3)
    return round(statistics.median(times), 2)


def test_engine_build_cold(benchmark):
    """Cold engine construction at paper-scale radix: the index layout is
    built with array operations, so the leap engine at q=29 (N=871, 29
    trees, 50,460 flows) must build in at most 100 ms."""
    cells = benchmark.pedantic(
        lambda: {
            q: {e: _cold_build_ms(q, e) for e in BUILD_ENGINES} for q in BUILD_QS
        },
        rounds=1,
        iterations=1,
    )
    payload = {
        "scheme": "low-depth",
        "repeats": BUILD_REPEATS,
        "leap_q29_gate_ms": LEAP_BUILD_GATE_MS,
    }
    for q, row in cells.items():
        payload[f"q{q}"] = {
            **{f"{e}_ms": ms for e, ms in row.items()},
            "parent_ms": PARENT_BUILD_MS[q],
        }
    record(benchmark, **payload)
    persist(BENCH_JSON, "engine-build-low-depth", payload)
    assert cells[29]["leap"] <= LEAP_BUILD_GATE_MS, (
        f"cold leap build at q=29 took {cells[29]['leap']} ms "
        f"(gate {LEAP_BUILD_GATE_MS} ms)"
    )


def _time(fn, rounds=1):
    best, out = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _used_links(plan):
    links = set()
    for t in plan.trees:
        links |= t.edges
    return sorted(links)


def test_engines_agree_smoke():
    """Disagreement anywhere on the smoke grid fails the whole job —
    bit-identity with the per-flit reference is the precondition for
    every step timing below."""
    for q, scheme in ((5, "low-depth"), (5, "edge-disjoint")):
        plan = build_plan(q, scheme)
        faults = FaultSchedule([(_used_links(plan)[0], 8, 30)])
        for m, cap, buf, fs in (
            (400, 1, None, None),
            (300, 2, 3, None),
            (350, 1, None, faults),
        ):
            parts = plan.partition(m)
            base = simulate_allreduce(
                plan.topology, plan.trees, parts, cap, buffer_size=buf,
                faults=fs, engine="reference",
            )
            for engine in ("fast", "leap"):
                got = simulate_allreduce(
                    plan.topology, plan.trees, parts, cap, buffer_size=buf,
                    faults=fs, engine=engine,
                )
                assert got == base, (q, scheme, engine, m, cap, buf)


def test_fast_step_grid(benchmark):
    """Per-cycle stepping cost of the fast engine's fused step across a
    q=7 and q=11 grid, clean and faulted.  Informational rows for
    EXPERIMENTS.md (``auto_us_per_cycle`` keeps its historical key)."""
    grid = []
    for q in (7, 11):
        plan = build_plan(q, "low-depth")
        parts = plan.partition(2_000)
        links = _used_links(plan)
        for label, events in (
            ("clean", None),
            ("faulted", [(links[0], 50, 80), (links[1], 200, 260)]),
        ):
            fs = FaultSchedule(events) if events else None
            stats, secs = _time(
                lambda: make_engine(
                    "fast", plan.topology, plan.trees, parts, faults=fs,
                ).run(),
                rounds=3,
            )
            grid.append({
                "q": q,
                "workload": label,
                "cycles": stats.cycles,
                "auto_us_per_cycle": round(1e6 * secs / stats.cycles, 1),
            })

    plan = build_plan(7, "low-depth")
    parts = plan.partition(2_000)
    benchmark.pedantic(
        lambda: make_engine("fast", plan.topology, plan.trees, parts).run(),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    record(benchmark, grid=json.dumps(grid))
    persist(BENCH_JSON, "fast-step-grid", {"grid": grid})


def test_cold_vs_warm(benchmark):
    """First-use cost of the fused path (per-engine index-map
    construction) against the warm steady state."""
    plan = build_plan(7, "low-depth")
    parts = plan.partition(200)

    def run():
        return make_engine("fast", plan.topology, plan.trees, parts).run()

    _, cold_s = _time(run)               # includes per-engine prep
    _, warm_s = timed_pedantic(benchmark, run, rounds=5, iterations=1, warmup_rounds=1)
    payload = {
        "q": 7,
        "m": 200,
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "cold_over_warm": round(cold_s / warm_s, 2),
    }
    record(benchmark, **payload)
    persist(BENCH_JSON, "cold-vs-warm", payload)
