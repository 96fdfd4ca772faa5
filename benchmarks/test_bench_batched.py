"""E-A14 — batched tensor engine: whole grids and ensembles in one call.

Workloads at q=7 (N=57 routers, 7 trees): (1) the 121-cell m x buffer
simulation grid evaluated cold through the batched sweep route vs the
serial cell-at-a-time route, and (2) a 10,000-lane fault Monte Carlo
ensemble through ``run_batch``. Pass criteria: results are bit-identical
to the serial ``fast`` engine everywhere, the batched grid runs cold in
under a second, and the batched route beats serial by >= 2x wall clock.

Each case's reproduced numbers land in ``benchmark.extra_info`` *and*
are persisted to ``BENCH_batched.json`` at the repo root so the perf
trajectory is tracked across PRs.
"""

import time
from dataclasses import replace
from pathlib import Path

from conftest import persist, record, timed_pedantic

from repro.analysis import fault_monte_carlo, sim_grid_cells
from repro.core import build_plan
from repro.simulator import BatchedCycleSimulator, LaneSpec, make_engine
from repro.sweep import SweepRunner

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_batched.json"
GRID_MS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48)
GRID_BUFS = (None, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32)  # 11 x 11 = 121 cells
GRID_SPEEDUP_TARGET = 2.0
GRID_COLD_BUDGET_S = 1.0
GRID_ROUNDS = 5  # each route is timed as its fastest of this many runs
MC_LANES = 10_000
MC_BUDGET_S = 30.0  # single-digit locally; generous for shared CI runners


def _time(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0




def test_batched_agrees_with_fast_on_smoke_grid():
    """Disagreement anywhere fails the whole job — bit-identity is the
    precondition for any speedup claim below."""
    for q, scheme in ((7, "low-depth"), (7, "edge-disjoint")):
        plan = build_plan(q, scheme)
        T = plan.num_trees
        lanes = [
            LaneSpec((m,) * T, link_capacity=cap, buffer_size=buf)
            for m, cap, buf in ((5, 1, None), (12, 1, 2), (8, 2, 3))
        ]
        outs = BatchedCycleSimulator(
            plan.topology, plan.trees, lanes=lanes
        ).run_batch()
        for lane, out in zip(lanes, outs):
            fast = make_engine(
                "fast", plan.topology, plan.trees, lane.flits_per_tree,
                lane.link_capacity, lane.buffer_size,
            ).run()
            assert out.stats == fast, (q, scheme, lane)


def test_sim_grid_cold_batched_vs_serial(benchmark):
    """The 121-cell artifact grid, cold, through both sweep routes: the
    batched route must produce the identical report in < 1s and >= 2x
    faster than cell-at-a-time serial.  Each route is timed as its
    fastest of ``GRID_ROUNDS`` runs, alike with benchmarking on or off,
    and the rounds alternate between the routes, so the ratio compares
    like with like on a host whose speed drifts."""
    cells = sim_grid_cells(7, ms=GRID_MS, buffer_sizes=GRID_BUFS)
    assert len(cells) == 121

    def routes():
        report, best = {}, {False: float("inf"), True: float("inf")}
        for _ in range(GRID_ROUNDS):
            for batching in (False, True):
                runner = SweepRunner(workers=0, cache=None, batching=batching)
                report[batching], secs = _time(lambda: runner.run(cells))
                best[batching] = min(best[batching], secs)
        return report[False], best[False], report[True], best[True]

    serial, serial_s, batched, batched_s = benchmark.pedantic(
        routes, rounds=1, iterations=1
    )
    assert batched == serial  # byte-identical report output
    speedup = serial_s / batched_s
    payload = {
        "q": 7,
        "scheme": "low-depth",
        "cells": len(cells),
        "serial_seconds": round(serial_s, 4),
        "batched_seconds": round(batched_s, 4),
        "speedup": round(speedup, 1),
        "rounds": GRID_ROUNDS,
        "cold_budget_seconds": GRID_COLD_BUDGET_S,
    }
    record(benchmark, **payload)
    persist(BENCH_JSON, "sim-grid-121-q7", payload)
    assert batched_s < GRID_COLD_BUDGET_S, (
        f"cold 121-cell grid took {batched_s:.3f}s (budget {GRID_COLD_BUDGET_S}s)"
    )
    assert speedup >= GRID_SPEEDUP_TARGET, (
        f"batched route only {speedup:.1f}x faster than serial "
        f"(target {GRID_SPEEDUP_TARGET}x)"
    )


def test_fault_monte_carlo_10k_lanes(benchmark):
    """A 10,000-sample single-fault ensemble at q=7 in one call: lanes
    chunked through ``run_batch``, wall clock in interactive time."""

    def run():
        return fault_monte_carlo(7, m=8, k=MC_LANES, seed=0, engine="batched")

    res, mc_s = timed_pedantic(benchmark, run, rounds=1, iterations=1)
    assert len(res.lanes) == MC_LANES
    # spot-check bit-identity against the serial evaluator on a slice of
    # the same ensemble (full 10k serial would dominate the job's budget)
    small = fault_monte_carlo(7, m=8, k=500, seed=0, engine="fast")
    small_b = fault_monte_carlo(7, m=8, k=500, seed=0, engine="batched")
    assert replace(small_b, engine="*") == replace(small, engine="*")
    payload = {
        "q": 7,
        "scheme": "low-depth",
        "m": 8,
        "lanes": MC_LANES,
        "stall_rate": round(res.stall_rate, 4),
        "p99_slowdown": res.slowdown_quantiles["p99"],
        "mc_seconds": round(mc_s, 3),
        "budget_seconds": MC_BUDGET_S,
    }
    record(benchmark, **payload)
    persist(BENCH_JSON, "fault-monte-carlo-10k-q7", payload)
    assert mc_s < MC_BUDGET_S, (
        f"10k-lane Monte Carlo took {mc_s:.2f}s (budget {MC_BUDGET_S}s)"
    )
