"""E-A7 — fast cycle engine: speedup over the reference simulator.

Workload: identical q=7 Allreduce simulations (the largest radix the
reference engine can sweep in reasonable time) on both cycle engines.
Pass criteria: the engines agree exactly on the resulting
:class:`CycleStats`, and the vectorized engine is >= 10x faster.

A second case times the cold construction of the vectorized engines at
paper-scale radix (q=23, 25, 29, low-depth), where building the index
layout used to cost more than short runs themselves, with the layout
memo cleared before each timed build, beside a warm build of the same
trees (a memo hit at q=13; the larger layouts exceed the memo's byte
budget and are rebuilt).  The fused step's
own costs follow: bit-identity of fast and leap against the reference
on a clean/credited/faulted smoke grid, the per-cycle step on
perfbench's six ``solo-stream`` cells, clean and faulted, with the clean
runs split into budgets, arbitrate, advance and done beside the numbers
from before the two-flow round robin and the cached completion test,
the step across link capacities 1-512 (gated: capacity 512 at most 3x
capacity 2), and the step's cold-vs-warm start.

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
    fastcycle,
    make_engine,
    simulate_allreduce,
)
from repro.simulator.cycle import EngineRun
from repro.simulator.engine_layout import shared_layouts

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_fastcycle.json"
SPEEDUP_TARGET = 10.0

BUILD_QS = (13, 23, 25, 29)
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


def _build_ms(q, engine):
    """Median ms of ``make_engine`` (a one-lane ``BatchedCycleSimulator``
    for ``"batched"``) over fresh plans (cold tree caches): cold, with the
    layout memo cleared first, then warm, a second build of the same
    trees.  Also whether the memo held the layout (the warm build a hit)."""
    cold, warm = [], []
    for _ in range(BUILD_REPEATS):
        plan = build_plan(q, "low-depth")
        parts = plan.partition(28000)
        shared_layouts.cache_clear()
        for times in (cold, warm):
            t0 = time.perf_counter()
            if engine == "batched":
                BatchedCycleSimulator(
                    plan.topology, plan.trees, lanes=[LaneSpec(parts)]
                )
            else:
                make_engine(engine, plan.topology, plan.trees, parts)
            times.append((time.perf_counter() - t0) * 1e3)
    held = shared_layouts.cache_info().currsize > 0
    return (
        round(statistics.median(cold), 2), round(statistics.median(warm), 2), held
    )


def test_engine_build_cold(benchmark):
    """Cold engine construction at paper-scale radix: the index layout is
    built with array operations, so the leap engine at q=29 (N=871, 29
    trees, 50,460 flows) must build in at most 100 ms with the layout
    memo cleared.  ``<engine>_warm_ms`` builds the same trees again: a
    memo hit where the layout fits the memo (``memo_held``)."""
    cells = benchmark.pedantic(
        lambda: {q: {e: _build_ms(q, e) for e in BUILD_ENGINES} for q in BUILD_QS},
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
            **{f"{e}_ms": cold for e, (cold, _, _) in row.items()},
            **{f"{e}_warm_ms": warm for e, (_, warm, _) in row.items()},
            "memo_held": all(held for _, _, held in row.values()),
        }
        if q in PARENT_BUILD_MS:
            payload[f"q{q}"]["parent_ms"] = PARENT_BUILD_MS[q]
    record(benchmark, **payload)
    persist(BENCH_JSON, "engine-build-low-depth", payload)
    leap_q29 = cells[29]["leap"][0]
    assert leap_q29 <= LEAP_BUILD_GATE_MS, (
        f"cold leap build at q=29 took {leap_q29} ms "
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


#: the six ``solo-stream`` cells of perfbench: (q, scheme)
STEP_CELLS = [
    (q, scheme) for scheme in ("low-depth", "edge-disjoint") for q in (7, 11, 13)
]
#: cycles each grid run takes about (the message is sized to it, as
#: perfbench sizes its jobs by the scheme's aggregate bandwidth)
STEP_TARGET_CYCLES = 1000
STEP_PHASES = ("budgets", "arbitrate", "advance", "done")
#: µs per cycle of each phase (budgets, arbitrate, advance, done) before
#: the two-flow round robin, the one-child group gather and the cached
#: completion test: this file's ``_best_phase_us`` on the parent tree,
#: fastest of four runs, 2-core x86_64 host
PARENT_PHASE_US = {
    cell: dict(zip(STEP_PHASES, us))
    for cell, us in {
        "low-depth-q7": (6.2, 7.7, 4.3, 6.1),
        "low-depth-q11": (12.0, 12.6, 6.7, 6.5),
        "low-depth-q13": (17.3, 17.3, 9.1, 7.2),
        "edge-disjoint-q7": (5.6, 0.3, 3.5, 5.5),
        "edge-disjoint-q11": (11.4, 0.3, 5.1, 6.1),
        "edge-disjoint-q13": (16.1, 0.3, 6.0, 6.4),
    }.items()
}
CAPACITIES = (1, 2, 8, 64, 512)
#: water filling may cost at most this many times capacity 2 at 512
CAPACITY_GATE = 3.0
#: µs per cycle over ``CAPACITIES`` with the pass-by-pass search for the
#: pass count (this file's ``_capacity_us`` on the parent tree, fastest
#: of four runs, same host), fast engine and one lane
PARENT_CAPACITY_US = {
    "fast": dict(zip(CAPACITIES, (24.5, 61.4, 132.4, 357.2, 2663.3))),
    "lane": dict(zip(CAPACITIES, (59.4, 112.5, 183.4, 602.8, 4231.3))),
}


def _step_parts(plan, q, scheme):
    rate = q / 2 if scheme == "low-depth" else (q + 1) / 2
    return plan.partition(int(STEP_TARGET_CYCLES * rate))


def _phase_us(plan, parts):
    """µs per cycle of one fast run, split into phases: ``budgets``
    (``begin_cycle``), ``arbitrate`` (the ``round_robin`` or
    ``water_fill`` call), ``advance`` (the rest of ``finish_cycle``) and
    ``done`` (``EngineRun.tick``: the completion test and its booking),
    as {phase: µs}."""
    sim = make_engine("fast", plan.topology, plan.trees, parts)
    spent = dict.fromkeys(STEP_PHASES, 0.0)
    saved = {name: getattr(fastcycle, name) for name in ("round_robin", "water_fill")}

    def timed(fn):
        def call(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            spent["arbitrate"] += time.perf_counter() - t0
            return out
        return call

    for name, fn in saved.items():
        setattr(fastcycle, name, timed(fn))
    try:
        run = EngineRun(sim)
        clock = time.perf_counter
        while not run.finished:
            t0 = clock()
            budget = sim.begin_cycle()
            t1 = clock()
            moved = sim.finish_cycle(budget)
            t2 = clock()
            run.tick(moved)
            t3 = clock()
            spent["budgets"] += t1 - t0
            spent["advance"] += t2 - t1
            spent["done"] += t3 - t2
    finally:
        for name, fn in saved.items():
            setattr(fastcycle, name, fn)
    spent["advance"] -= spent["arbitrate"]
    return {k: round(1e6 * v / run.cycle, 1) for k, v in spent.items()}


def _best_phase_us(runs, rounds=5):
    """The phases of each ``(plan, parts)`` in ``runs`` from its round
    with the least total of :func:`_phase_us`.  Each round measures every
    run once, so a burst of host load hits them alike."""
    best = [None] * len(runs)
    for _ in range(rounds):
        for i, (plan, parts) in enumerate(runs):
            phases = _phase_us(plan, parts)
            if best[i] is None or sum(phases.values()) < sum(best[i].values()):
                best[i] = phases
    return best


def test_fast_step_grid(benchmark):
    """Per-cycle stepping cost of the fast engine's fused step on the six
    ``solo-stream`` cells, clean and faulted, with the clean runs split
    into phases next to the parent's.  Informational rows for
    EXPERIMENTS.md (``auto_us_per_cycle`` keeps its historical key: the
    whole unobserved run)."""
    runs = []
    for q, scheme in STEP_CELLS:
        plan = build_plan(q, scheme)
        runs.append((plan, _step_parts(plan, q, scheme)))
    phases = _best_phase_us(runs)
    grid = []
    for (q, scheme), (plan, parts), phase_us in zip(STEP_CELLS, runs, phases):
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
            row = {
                "q": q,
                "scheme": scheme,
                "workload": label,
                "cycles": stats.cycles,
                "auto_us_per_cycle": round(1e6 * secs / stats.cycles, 1),
            }
            if fs is None:
                row["phase_us"] = phase_us
                row["parent_phase_us"] = PARENT_PHASE_US[f"{scheme}-q{q}"]
            grid.append(row)

    plan = build_plan(7, "low-depth")
    parts = plan.partition(2_000)
    benchmark.pedantic(
        lambda: make_engine("fast", plan.topology, plan.trees, parts).run(),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    record(benchmark, grid=json.dumps(grid))
    persist(BENCH_JSON, "fast-step-grid", {"grid": grid})


def _capacity_us(plan, rounds=5):
    """µs per cycle at each of ``CAPACITIES`` of the fast engine and of a
    one-lane batch (same stats), the message scaled by the capacity so
    every run takes the same cycles.  Each round times every capacity
    once, so a burst of host load hits the capacities alike; the fastest
    round counts.  Returns {cap: (cycles, {"fast": µs, "lane": µs})}."""
    best = {cap: {"fast": float("inf"), "lane": float("inf")} for cap in CAPACITIES}
    cycles = {}
    for _ in range(rounds):
        for cap in CAPACITIES:
            parts = plan.partition(2_000 * cap)
            stats, secs = _time(
                lambda: make_engine(
                    "fast", plan.topology, plan.trees, parts, cap
                ).run()
            )
            best[cap]["fast"] = min(best[cap]["fast"], secs)
            (out,), secs = _time(
                lambda: BatchedCycleSimulator(
                    plan.topology, plan.trees, lanes=[LaneSpec(parts, cap)]
                ).run_batch()
            )
            assert out.stats == stats
            best[cap]["lane"] = min(best[cap]["lane"], secs)
            cycles[cap] = stats.cycles
    return {
        cap: (cycles[cap], {k: round(1e6 * v / cycles[cap], 1) for k, v in us.items()})
        for cap, us in best.items()
    }


def test_capacity_grid(benchmark):
    """Water filling costs about log2(capacity) channel sums a cycle:
    low-depth q=7 at capacity 512 must step at most ``CAPACITY_GATE``
    times as slowly as at capacity 2, fast engine and one lane alike."""
    plan = build_plan(7, "low-depth")
    cells = benchmark.pedantic(lambda: _capacity_us(plan), rounds=1, iterations=1)
    payload = {"scheme": "low-depth", "q": 7, "gate": CAPACITY_GATE}
    for cap, (cycles, us) in cells.items():
        payload[f"cap{cap}"] = {
            "cycles": cycles,
            "fast_us_per_cycle": us["fast"],
            "lane_us_per_cycle": us["lane"],
            "parent_fast_us": PARENT_CAPACITY_US["fast"][cap],
            "parent_lane_us": PARENT_CAPACITY_US["lane"][cap],
        }
    record(benchmark, **payload)
    persist(BENCH_JSON, "capacity-grid-low-depth-q7", payload)
    for engine in ("fast", "lane"):
        ratio = cells[512][1][engine] / cells[2][1][engine]
        assert ratio <= CAPACITY_GATE, (
            f"{engine}: capacity 512 steps {ratio:.1f}x as slowly as "
            f"capacity 2 (gate {CAPACITY_GATE}x)"
        )


def test_cold_vs_warm(benchmark):
    """First-use cost of the fused path (per-engine index-map
    construction) against the warm steady state."""
    plan = build_plan(7, "low-depth")
    parts = plan.partition(200)

    def run():
        return make_engine("fast", plan.topology, plan.trees, parts).run()

    shared_layouts.cache_clear()
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
