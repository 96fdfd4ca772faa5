"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402
from worker import Passes  # noqa: E402

NAMES = [name for name, _ in metrics.WORKLOADS]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_list(name):
    a = workloads.make_workload(name, 5)
    b = workloads.make_workload(name, 5)
    c = workloads.make_workload(name, 6)
    assert workloads.list_hash(a.jobs) == workloads.list_hash(b.jobs)
    assert workloads.list_hash(a.jobs) != workloads.list_hash(c.jobs)


def test_metric_names_and_units():
    assert metrics.check_names() == []
    for name, _, _, bound in metrics.END_TO_END:
        assert metrics.NAME_RE.match(name)
        assert 0 < bound <= 0.25
    assert "setup_s" in {row[0] for row in metrics.END_TO_END}


def test_benchmark_json_matches_registry():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metrics.benchmark_config()


def test_tail_has_ten_samples_beyond():
    beyond = (metrics.TAIL_SAMPLES - 1) * (100 - metrics.TAIL_PERCENTILE) / 100
    assert beyond == 10
    value = metrics.hd_quantile(list(range(metrics.TAIL_SAMPLES)),
                                metrics.TAIL_PERCENTILE / 100)
    assert 89 < value < 91  # Harrell-Davis smooths around rank 90


def test_tail_reaches_p90_on_every_workload():
    for name in NAMES:
        loop = Passes(workloads.make_workload(name, 5))
        assert len(loop.wl.jobs) * loop.tail_passes >= metrics.TAIL_SAMPLES


def test_harrell_davis_matches_scipy_weights():
    scipy_stats = pytest.importorskip("scipy.stats")
    import numpy as np

    x = np.sort(np.random.default_rng(0).lognormal(size=37))
    for p in (0.5, 26 / 36):
        a, b = p * 38, (1 - p) * 38
        w = np.diff(scipy_stats.beta.cdf(np.arange(38) / 37, a, b))
        assert metrics.hd_quantile(x, p) == pytest.approx(float(w @ x), rel=1e-4)


class _Corrupting:
    """A workload whose results for chosen jobs are tampered with."""

    def __init__(self, inner, bad):
        self.inner = inner
        self.bad = bad
        self.jobs = inner.jobs

    def begin_pass(self):
        self.inner.begin_pass()

    def run(self, job):
        result = self.inner.run(job)
        if job["id"] in self.bad:
            from dataclasses import replace

            result = replace(result, flits_moved=result.flits_moved + 1)
        return result

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_corrupted_result_counts_as_failed():
    wl = workloads.make_workload("solo-stream", 3, smoke=True)
    wl.setup()
    loop = Passes(_Corrupting(wl, bad={0, 5}))
    loop.run(0, max_passes=1)
    assert loop.attempted == len(wl.jobs)
    assert loop.failed == 2
    assert loop.problems["flits_moved != m * 2(N-1)"] == 2
    # job 0 is also re-run on the leap engine, which disagrees with it
    assert loop.problems["leap engine disagrees with fast"] == 1


def test_raising_job_counts_as_failed():
    wl = workloads.make_workload("solo-stream", 3, smoke=True)
    wl.setup()
    wl.jobs[1]["m"] = -1  # the library refuses a negative size
    loop = Passes(wl)
    loop.run(0, max_passes=1)
    assert loop.failed == 1


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_is_quick_and_correct(name):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "2",
         "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(metrics.units(False))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert time.monotonic() - t0 < 60


def test_traced_smoke_reports_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "replan-storm",
         "--seed", "2", "--seconds", "1", "--trace", "1", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == set(metrics.units(True))
    assert result["metrics"]["replan.calls"]["value"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solo-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
