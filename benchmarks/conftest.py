"""Shared fixtures/helpers for the benchmark harness.

Every benchmark regenerates one paper artifact (see DESIGN.md experiment
index), asserts it matches the paper, and reports the reproduced values in
``benchmark.extra_info`` so they land in the saved benchmark JSON.
"""

import json
import time
from pathlib import Path

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


def persist(bench_json: Path, case_id: str, payload) -> None:
    """Store ``payload`` under ``case_id`` in the ``BENCH_*.json`` file
    ``bench_json``, keeping its other rows (a missing or unreadable file
    starts empty); written with sorted keys, two-space indents and a
    trailing newline."""
    data = {}
    if bench_json.exists():
        try:
            data = json.loads(bench_json.read_text())
        except (ValueError, OSError):
            data = {}
        if not isinstance(data, dict):
            data = {}
    data[case_id] = payload
    bench_json.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
