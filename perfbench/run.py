"""The repository's benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload solo-stream --seed 1 --seconds 26 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``. Each workload runs in fresh worker processes
(``worker.py``) with BLAS/OpenMP pinned to one thread:

- ``--trace 0``: one untimed process warms the bytecode caches, a few
  more measure set-up time only, then one process runs the timed passes.
  ``setup_s`` is the median of their host-normalised set-up times.
- ``--trace 1``: one process sets up traced, runs untraced and then
  traced passes, and reports the per-layer metrics.

Informational lines come first; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``. Any failure to run
exits non-zero without printing a result.

``--write-config`` writes ``BENCHMARK.json`` from ``metrics.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402  (the benchmark's own module, beside this file)

SETUP_SAMPLES = 3  # set-up-only processes per end-to-end run
RUN_BUDGET_S = 170  # a whole run, every worker included, ends within this


class WorkerFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_PLAN_CACHE", None)  # plans are built cold in every process
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def worker(args, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.smoke:
        cmd.append("--smoke")
    cmd.extend(["--t0", repr(time.monotonic())])
    timeout = args.deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker timed out after {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{mode} worker printed nothing:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def measure(args) -> dict:
    if args.trace:
        return worker(args, "trace")
    worker(args, "setup")  # warms bytecode and page caches
    probes = [worker(args, "setup") for _ in range(0 if args.smoke else SETUP_SAMPLES)]
    out = worker(args, "measure")
    probes.append(out)
    out["metrics"]["setup_s"] = metrics.median([p["setup_s"] for p in probes])
    out["info"]["raw_setup_samples_s"] = [round(p["raw_setup_s"], 4) for p in probes]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", choices=[n for n, _ in metrics.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few jobs, one pass, one set-up sample (tests)")
    ap.add_argument("--write-config", action="store_true",
                    help="write BENCHMARK.json from the metric registry and exit")
    args = ap.parse_args(argv)

    if args.write_config:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(metrics.benchmark_config(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.deadline = time.monotonic() + RUN_BUDGET_S

    try:
        out = measure(args)
    except (WorkerFailed, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = metrics.units(bool(args.trace))
    info = out["info"]
    print(f"# {info['summary']}")
    print(f"# seed {info['seed']} (held-out seed for claims: {metrics.HELD_OUT_SEED}), "
          f"{info['passes']} passes, trace={args.trace}")
    print("# host " + json.dumps(info["host"], sort_keys=True))
    if not args.trace:
        print(f"# job_tail_ms is p{info['tail_percentile']} of {info['tail_samples']} "
              f"per-pass job samples")
        print(f"# raw wall readings (before the host-speed index): jobs_per_s "
              f"{info['raw_jobs_per_s']:.4f}, job_p50_ms {info['raw_job_p50_ms']:.4f}, "
              f"job_tail_ms {info['raw_job_tail_ms']:.4f}, setup samples "
              f"{info['raw_setup_samples_s']}")
    else:
        print(f"# dominant layer {info['dominant_layer']}; "
              f"{info['spans']} spans in {info['spans_file']}")
    for name, count in sorted(out["problems"].items()):
        print(f"# FAILED x{count}: {name}")
    for name, value in out["metrics"].items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": out["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
