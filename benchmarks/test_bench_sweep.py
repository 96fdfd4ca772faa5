"""E-A10 — sweep engine: warm-cache + multi-core artifact regeneration speedup.

Workload: the full ``results/`` artifact pipeline (the exact code path of
``scripts/regenerate_results.py``) at the paper scale (figure 5 swept to
q = 128). Three configurations:

- **serial**: workers=0, no cache — the pre-engine baseline;
- **cold**: 4 workers, empty content-addressed cache;
- **warm**: 4 workers, cache populated by the cold run.

Pass criteria: all three produce byte-identical artifacts, and the warm
run is >= 3x faster than the serial baseline (the ISSUE 2 acceptance
bar). Reproduced numbers land in ``benchmark.extra_info`` and are
persisted to ``BENCH_sweep.json`` at the repo root so the perf
trajectory is tracked across PRs.
"""

import time
from pathlib import Path

from conftest import persist, record, timed_pedantic

from repro.sweep import SweepRunner, generate_artifacts

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
SPEEDUP_TARGET = 3.0
WORKERS = 4


def test_sweep_engine_speedup(benchmark, tmp_path):
    serial_runner = SweepRunner(workers=0, cache=None)
    t0 = time.perf_counter()
    serial = generate_artifacts(serial_runner)
    serial_s = time.perf_counter() - t0

    cache_dir = tmp_path / "sweep-cache"
    cold_runner = SweepRunner(workers=WORKERS, cache=cache_dir)
    t0 = time.perf_counter()
    cold = generate_artifacts(cold_runner)
    cold_s = time.perf_counter() - t0

    warm_runner = SweepRunner(workers=WORKERS, cache=cache_dir)
    warm, warm_s = timed_pedantic(
        benchmark, lambda: generate_artifacts(warm_runner), rounds=3, iterations=1
    )

    # identical output is the precondition for the speedup to mean anything
    assert serial == cold == warm
    # a warm run must be pure cache hits
    assert warm_runner.total.misses == 0

    speedup_warm = serial_s / warm_s
    speedup_cold = serial_s / cold_s
    payload = {
        "workers": WORKERS,
        "cells": serial_runner.total.cells,
        "serial_s": round(serial_s, 4),
        "cold_parallel_s": round(cold_s, 4),
        "warm_cache_s": round(warm_s, 4),
        "speedup_cold": round(speedup_cold, 2),
        "speedup_warm": round(speedup_warm, 2),
        "speedup_target": SPEEDUP_TARGET,
        "byte_identical": True,
    }
    record(benchmark, **payload)
    persist(BENCH_JSON, "regenerate_results", payload)
    assert speedup_warm >= SPEEDUP_TARGET, (
        f"warm-cache sweep only {speedup_warm:.1f}x faster than serial "
        f"(target {SPEEDUP_TARGET}x): serial {serial_s:.2f}s vs warm {warm_s:.2f}s"
    )
