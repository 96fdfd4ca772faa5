"""E-A15 — the serial hot paths batching cannot reach, on their one step.

Workload: the fast engine's fused per-cycle step (land, budgets,
pointer-bit round-robin arbitration) across a q=7/q=11 clean/faulted
grid, the leap engine's ring confirmation under a transient-fault storm
(every fault window is a leap barrier followed by re-detection, so
confirmation cost dominates), and the fused step's cold-vs-warm start.
Pass criteria: bit-identical :class:`CycleStats` against the reference
engine on the smoke grid, and exact leap runs under the storm.

Each case's reproduced numbers land in ``benchmark.extra_info`` *and*
are persisted to ``BENCH_kernels.json`` at the repo root.
"""

import json
import time
from pathlib import Path

from conftest import persist, record, timed_pedantic

from repro.core import build_plan
from repro.simulator import (
    FaultSchedule,
    LeapCycleSimulator,
    make_engine,
    simulate_allreduce,
)
from repro.simulator.leap import SteadyRings

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


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


def _transient_storm(plan, windows=40):
    """Periodic transient fault windows: every window is a leap barrier
    followed by re-detection, so confirmation cost dominates the run."""
    links = _used_links(plan)
    events = []
    for i in range(windows):
        down = 100 + i * 120
        events.append((links[i % 4], down, down + 20))
    return FaultSchedule(events)


def test_engines_agree_smoke():
    """Disagreement anywhere on the smoke grid fails the whole job —
    bit-identity with the per-flit reference is the precondition for
    every number below."""
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


def test_leap_verification_windows(benchmark):
    """The cost of confirming one steady state.  The ring detector
    confirms retrospectively from snapshots it already took, with zero
    extra stepped cycles — its whole confirmation cost is the in-ring
    confirm attempts.  A transient-fault storm makes re-detection the
    dominant cost, which is exactly where batching can't help: each
    window is serial.

    A successful confirmation ends with the jump-bound computation
    (``_completion_bound`` + ``_license_bounds``); that stage is timed
    separately and excluded — the window is the cost of gathering the
    evidence, not of licensing the jump."""
    plan = build_plan(7, "low-depth")
    parts = plan.partition(20_000)
    faults = _transient_storm(plan)

    license_t = {"seconds": 0.0}
    orig_license = LeapCycleSimulator._license_bounds
    orig_completion = LeapCycleSimulator._completion_bound

    def timed_license(self, *a, **kw):
        t0 = time.perf_counter()
        out = orig_license(self, *a, **kw)
        license_t["seconds"] += time.perf_counter() - t0
        return out

    def timed_completion(self, *a, **kw):
        t0 = time.perf_counter()
        out = orig_completion(self, *a, **kw)
        license_t["seconds"] += time.perf_counter() - t0
        return out

    # time every in-ring confirm attempt: that IS the detector's
    # confirmation cost (observe() snapshots are taken on every stepped
    # cycle regardless of whether a candidate is in flight)
    confirm = {"seconds": 0.0, "attempts": 0}
    orig_confirm = SteadyRings._confirm

    def timed_confirm(self, sim, period):
        t0 = time.perf_counter()
        out = orig_confirm(self, sim, period)
        confirm["seconds"] += time.perf_counter() - t0
        confirm["attempts"] += 1
        return out

    def run():
        sim = make_engine(
            "leap", plan.topology, plan.trees, parts, faults=faults,
        )
        return sim, sim.run()

    LeapCycleSimulator._license_bounds = timed_license
    LeapCycleSimulator._completion_bound = timed_completion
    SteadyRings._confirm = timed_confirm
    try:
        (ring_sim, ring_stats), ring_s = timed_pedantic(
            benchmark, run, rounds=3, iterations=1, warmup_rounds=1
        )
    finally:
        LeapCycleSimulator._license_bounds = orig_license
        LeapCycleSimulator._completion_bound = orig_completion
        SteadyRings._confirm = orig_confirm
    rounds_timed = 4  # pedantic rounds + warmup all hit the wrapper

    fast_stats = simulate_allreduce(
        plan.topology, plan.trees, parts, faults=faults, engine="fast"
    )
    assert ring_stats == fast_stats
    leaps = len(ring_sim.leap_log)
    assert leaps > 0
    ring_window_s = (confirm["seconds"] - license_t["seconds"]) / rounds_timed
    payload = {
        "q": 7,
        "scheme": "low-depth",
        "m": 20_000,
        "fault_windows": 40,
        "cycles": ring_stats.cycles,
        "steady_states_confirmed": leaps,
        "ring_stepped_cycles": ring_sim.stepped_cycles,
        "ring_window_us_per_leap": round(1e6 * ring_window_s / leaps, 1),
        "ring_confirm_attempts": confirm["attempts"] // rounds_timed,
        "ring_run_seconds": round(ring_s, 4),
    }
    record(benchmark, **payload)
    persist(BENCH_JSON, "leap-verification-q7", payload)


def test_fast_kernel_step_grid(benchmark):
    """Per-cycle stepping cost of the fast engine's fused step across the
    E-A15 grid (q=7 and q=11, clean and faulted).  Informational rows for
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


def test_kernel_cold_vs_warm(benchmark):
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
