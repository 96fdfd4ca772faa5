"""E-A7 — leap engine: O(events) simulation at paper-scale message sizes.

Workload: identical Allreduce simulations on the leap and fast cycle
engines across a speedup-vs-m curve at q=7 (plus two large-radix
edge-disjoint points at q=19 and q=23, and the low-depth q=25/29
embeddings whose detection rings sit at the period floor of 2). Pass
criteria: the engines agree exactly on the resulting :class:`CycleStats`
everywhere they are both run, the leap engine is >= 50x faster than the
fast engine at m >= 10^6 flits per tree, the edge-disjoint points (whose
fill and drain the contention-free wavefront jump leaps) step <= 100
cycles, the floor-of-2 embeddings step <= 50 cycles at m=8000, and a
``sample_every=8`` collector costs those runs at most 1.5x their
unobserved wall time.  A last case times the ring confirmation of one
steady state under a transient-fault storm at q=7 (every fault window is
a leap barrier followed by re-detection, so confirmation cost
dominates), and requires the storm run to equal the fast engine's.

Each case's reproduced numbers land in ``benchmark.extra_info`` (for the
pytest-benchmark JSON) *and* are persisted to ``BENCH_leap.json`` at the
repo root so the perf trajectory is tracked across PRs.
"""

import time
from pathlib import Path

import pytest
from conftest import persist, record, timed_pedantic

from repro.core import build_plan
from repro.simulator import (
    FaultSchedule,
    LeapCycleSimulator,
    make_engine,
    simulate_allreduce,
)
from repro.simulator.leap import SteadyRings
from repro.telemetry import Collector

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_leap.json"
SPEEDUP_TARGET = 50.0  # leap vs fast at the largest curve point
CURVE_M = [1_000, 10_000, 100_000, 1_000_000]
FAST_M_MAX = 100_000  # largest m the O(cycles) fast engine is timed at
CLIFF_Q = (25, 29)  # low-depth embeddings whose byte budget leaves period 1
CLIFF_M = 8_000
CLIFF_STEPPED_MAX = 50
LARGE_RADIX_STEPPED_MAX = 100  # edge-disjoint depth ~N/2: 4*depth is ~760 at q=19
COLLECTOR_OVERHEAD_MAX = 1.5  # collector-on / collector-off leap wall time
CLIFF_REPEATS = 5  # interleaved best-of: the ratio divides two ~50 ms runs
# cells whose detectable period sits at the floor of 2
FLOOR_CELLS = (
    (25, "low-depth"), (27, "low-depth"), (29, "low-depth"),
    (31, "low-depth"), (31, "edge-disjoint"),
)


def _time(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_leap_agrees_with_fast_on_smoke_grid():
    """Disagreement anywhere on the smoke grid fails the whole job —
    exactness is the precondition for any speedup claim below."""
    for q, scheme in ((7, "low-depth"), (7, "edge-disjoint"), (8, "low-depth-even")):
        plan = build_plan(q, scheme)
        for m, cap, buf in ((500, 1, None), (750, 2, 3)):
            parts = plan.partition(m)
            fast = simulate_allreduce(
                plan.topology, plan.trees, parts, cap, buffer_size=buf, engine="fast"
            )
            leap = simulate_allreduce(
                plan.topology, plan.trees, parts, cap, buffer_size=buf, engine="leap"
            )
            assert leap == fast, (q, scheme, m, cap, buf)


def test_leap_speedup_curve(benchmark):
    """Speedup vs message length at q=7: the leap engine's runtime is
    O(depth + #events), so its wall time is flat in m while the fast
    engine's grows linearly; the curve quantifies the crossover."""
    plan = build_plan(7, "low-depth")
    curve = []
    for m in CURVE_M:
        flits = [m] * plan.num_trees
        sim = make_engine("leap", plan.topology, plan.trees, flits)
        (leap_stats, leap_s) = _time(lambda s=sim: s.run())
        point = {
            "m": m,
            "cycles": leap_stats.cycles,
            "leap_seconds": round(leap_s, 5),
            "stepped_cycles": sim.stepped_cycles,
            "leaps": len(sim.leap_log),
        }
        if m <= FAST_M_MAX:
            fast_stats, fast_s = _time(
                lambda: simulate_allreduce(
                    plan.topology, plan.trees, flits, engine="fast"
                )
            )
            assert fast_stats == leap_stats, f"leap diverged from fast at m={m}"
            point["fast_seconds"] = round(fast_s, 5)
            point["speedup_vs_fast"] = round(fast_s / leap_s, 1)
        else:
            # project the fast engine's linear-in-cycles cost from the
            # largest point it was actually run at
            anchor = next(p for p in curve if p["m"] == FAST_M_MAX)
            projected = anchor["fast_seconds"] * leap_stats.cycles / anchor["cycles"]
            point["fast_seconds_projected"] = round(projected, 5)
            point["speedup_vs_fast"] = round(projected / leap_s, 1)
        curve.append(point)

    # acceptance: >= 50x at m >= 1e6 flits per tree
    top = curve[-1]
    assert top["m"] >= 1_000_000

    def run():
        flits = [top["m"]] * plan.num_trees
        return simulate_allreduce(plan.topology, plan.trees, flits, engine="leap")

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    payload = {
        "scheme": "low-depth",
        "q": 7,
        "curve": curve,
        "target": SPEEDUP_TARGET,
    }
    record(benchmark, q=7, scheme="low-depth", speedup=top["speedup_vs_fast"])
    persist(BENCH_JSON, "speedup-curve-q7", payload)
    assert top["speedup_vs_fast"] >= SPEEDUP_TARGET, (
        f"leap only {top['speedup_vs_fast']:.1f}x faster than fast at "
        f"m={top['m']} (target {SPEEDUP_TARGET}x)"
    )


@pytest.mark.parametrize("q", [19, 23])
def test_leap_large_radix_point(benchmark, q):
    """Edge-disjoint q=19 (N=381 routers, 10 trees) and q=23 (N=553, 12
    trees) at m=10^6 flits per tree: every channel carries one flow, so
    the leap engine jumps the depth-~N/2 fill and drain in closed form
    and steps one cycle per distinct tree completion — the radixes the
    paper sweeps stay tractable because runtime does not scale with m or
    with tree depth."""
    scheme, m = "edge-disjoint", 1_000_000
    plan = build_plan(q, scheme)
    flits = [m] * plan.num_trees

    def run():
        sim = make_engine("leap", plan.topology, plan.trees, flits)
        stats = sim.run()
        return sim, stats

    (sim, stats), leap_s = timed_pedantic(benchmark, run, rounds=3, iterations=1)
    # exactness spot-check at a fast-affordable size on the same plan
    small = plan.partition(400)
    fast = simulate_allreduce(plan.topology, plan.trees, small, engine="fast")
    leap = simulate_allreduce(plan.topology, plan.trees, small, engine="leap")
    assert leap == fast
    payload = {
        "scheme": scheme,
        "q": q,
        "m": m,
        "num_trees": plan.num_trees,
        "depth": max(t.depth for t in plan.trees),
        "cycles": stats.cycles,
        "stepped_cycles": sim.stepped_cycles,
        "leaps": len(sim.leap_log),
        "leap_seconds": round(leap_s, 4),
        "stepped_max": LARGE_RADIX_STEPPED_MAX,
    }
    record(benchmark, **payload)
    persist(BENCH_JSON, f"large-radix-q{q}-m{m}", payload)
    assert sim.stepped_cycles <= LARGE_RADIX_STEPPED_MAX, (q, sim.stepped_cycles)
    # the whole point: paper-scale m in interactive time
    assert leap_s < 30.0


def test_leap_cliff_low_depth(benchmark):
    """Low-depth q=25/29 at m=8000: the byte budget alone leaves these
    embeddings a detectable period of 1, but their steady state has
    period 2 — the floor of 2 must leap it, with and without a collector
    attached, exactly, and the collector (``sample_every=8``) may cost at
    most ``COLLECTOR_OVERHEAD_MAX`` times the unobserved wall time. Also
    records the derived ``_p_max`` and ring bytes of every cell at the
    floor."""
    runs = {}
    for q in CLIFF_Q:
        plan = build_plan(q, "low-depth")
        parts = plan.partition(CLIFF_M)
        fast = simulate_allreduce(plan.topology, plan.trees, parts, engine="fast")
        row, best = {}, {}
        for _ in range(CLIFF_REPEATS):
            for label in ("plain", "collector"):
                tel = Collector(sample_every=8) if label == "collector" else None
                sim = make_engine(
                    "leap", plan.topology, plan.trees, parts, telemetry=tel
                )
                stats, leap_s = _time(sim.run)
                assert stats == fast, f"leap diverged from fast at q={q} ({label})"
                assert sim.stepped_cycles <= CLIFF_STEPPED_MAX, (q, label)
                if leap_s < best.get(label, float("inf")):
                    best[label] = leap_s
                    row[label] = {
                        "cycles": stats.cycles,
                        "stepped_cycles": sim.stepped_cycles,
                        "leaps": len(sim.leap_log),
                        "leap_seconds": round(leap_s, 4),
                    }
        row["collector_overhead"] = round(best["collector"] / best["plain"], 3)
        row["p_max"] = sim._p_max
        row["ring_bytes"] = sim._rings.nbytes
        runs[f"q{q}"] = row

    plan = build_plan(CLIFF_Q[-1], "low-depth")
    parts = plan.partition(CLIFF_M)
    benchmark.pedantic(
        lambda: simulate_allreduce(plan.topology, plan.trees, parts, engine="leap"),
        rounds=3, iterations=1,
    )

    rings = {}
    for q, scheme in FLOOR_CELLS:
        plan = build_plan(q, scheme)
        sim = make_engine("leap", plan.topology, plan.trees, plan.partition(CLIFF_M))
        assert sim._p_max == 2, (q, scheme)
        rings[f"{scheme}-q{q}"] = {
            "p_max": sim._p_max,
            "ring_bytes": sim._rings.nbytes,
        }
    payload = {
        "m": CLIFF_M,
        "runs": runs,
        "floor_rings": rings,
        "budget_bytes": sim._VERIFY_BUDGET,
        "stepped_max": CLIFF_STEPPED_MAX,
        "collector_overhead_max": COLLECTOR_OVERHEAD_MAX,
    }
    record(benchmark, **payload)
    persist(BENCH_JSON, "cliff-low-depth", payload)
    for q in CLIFF_Q:
        overhead = runs[f"q{q}"]["collector_overhead"]
        assert overhead <= COLLECTOR_OVERHEAD_MAX, (
            f"a collector costs the q={q} leap run {overhead:.2f}x "
            f"(bound {COLLECTOR_OVERHEAD_MAX}x)"
        )


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
