"""Shared fixtures/helpers for the benchmark harness.

Every benchmark regenerates one paper artifact (see DESIGN.md experiment
index), asserts it matches the paper, and reports the reproduced values in
``benchmark.extra_info`` so they land in the saved benchmark JSON.
"""

import time

import pytest


def record(benchmark, **info):
    """Attach reproduced values to the benchmark record."""
    for k, v in info.items():
        benchmark.extra_info[k] = v


def timed_pedantic(benchmark, target, **pedantic):
    """``benchmark.pedantic(target, **pedantic)``: returns its result and
    the fastest round in seconds per iteration, as pytest-benchmark
    records it.  Under ``--benchmark-disable`` pedantic calls ``target``
    once and keeps no stats, so that one call is timed instead — the
    suites then run as plain tests."""
    t0 = time.perf_counter()
    result = benchmark.pedantic(target, **pedantic)
    if benchmark.disabled:
        return result, time.perf_counter() - t0
    return result, benchmark.stats.stats.min
