"""One workload in one process: set up, run the timed passes, report.

``run.py`` starts this file in a fresh interpreter per measurement, so
set-up time and peak memory belong to one workload. Modes:

- ``setup``: set up, print the set-up time, exit (extra set-up samples);
- ``measure``: set up, then run whole passes over the job list until
  ``--seconds`` have gone by, tracing off; prints the end-to-end metrics;
- ``trace``: set up traced, run untraced passes for half the time and
  traced passes for the other half; prints the per-layer metrics and
  writes the spans under ``.perfbench/``.

The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import slowdown  # noqa: E402


def import_library() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    where = Path(repro.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"repro imported from {where}, not from {src}")


class Passes:
    """The timed loop: whole passes over the list, one client, tracing
    optional; at least ``min_passes``, then more while time is left."""

    def __init__(self, workload, tracer=None):
        from metrics import TAIL_SAMPLES

        self.wl = workload
        # passes whose samples reach TAIL_SAMPLES (at least two, so each
        # job's median is over more than one sample)
        self.tail_passes = max(2, -(-TAIL_SAMPLES // len(workload.jobs)))
        self.tracer = tracer
        self.times: Dict[int, List[int]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()
        self.cycles: Dict[int, int] = {}
        self.gaps: Dict[int, float] = {}
        self.cache_hits = 0
        self.cache_calls = 0
        self.passes = 0
        # host slowdown sampled right after each run of each job
        self.slow: Dict[int, List[float]] = defaultdict(list)

    def run(self, seconds: float, max_passes: int = 0, min_passes: int = 0) -> None:
        from repro.core.plancache import global_plan_cache

        min_passes = min_passes or self.tail_passes
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            self.wl.begin_pass()
            before = global_plan_cache().stats()
            for job in self.wl.jobs:
                self._one(job)
            after = global_plan_cache().stats()
            hits = after["hits"] - before["hits"]
            misses = after["misses"] - before["misses"]
            self.cache_hits += hits
            self.cache_calls += hits + misses
            self.passes += 1
            if max_passes and self.passes >= max_passes:
                break
            if self.passes < min_passes:
                continue
            # stop before a pass that would end past the budget
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break

    def _one(self, job) -> None:
        tr = self.tracer
        gc.collect()
        if tr is not None:
            tr.job = job["id"]
            tr.phase = f"pass{self.passes}"
            tr.enabled = True
            span = tr.open("job")
        t0 = time.perf_counter_ns()
        try:
            result = self.wl.run(job)
        except Exception:  # a failed request counts; the loop goes on
            result = None
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        dt = time.perf_counter_ns() - t0
        if tr is not None:
            tr.close(span)
            tr.enabled = False
        self.attempted += 1
        self.times[job["id"]].append(dt)
        self.slow[job["id"]].append(slowdown())
        if result is None:
            problems = [f"raised {error}"]
        else:
            first = self.passes == 0
            try:
                problems = self.wl.check(job, result, first)
                if first:
                    self.cycles[job["id"]] = self.wl.cycles(job, result)
                    self.gaps[job["id"]] = self.wl.gap(job, result)
            except Exception:
                problems = ["check raised " + traceback.format_exc(limit=3)
                            .strip().splitlines()[-1]]
        if problems:
            self.failed += 1
            self.problems.update(problems)

    def job_ms(self) -> List[float]:
        """Each job's time: the median over passes of its wall time divided
        by the host slowdown sampled right after it (``hostspeed.py``).
        The host drifts between faster and slower states for seconds to
        minutes; scaling each sample by the state it ran in keeps the
        drift out of the comparison between runs."""
        from metrics import median

        return [
            median([t / s for t, s in zip(self.times[j], self.slow[j])]) / 1e6
            for j in self.times
        ]

    def sample_ms(self, normalised: bool = True) -> List[float]:
        """Every job's every pass (host-normalised): the tail's samples."""
        return [t / (s if normalised else 1.0) / 1e6 for j in self.times
                for t, s in zip(self.times[j], self.slow[j])]

    def tail_ms(self, normalised: bool = True) -> float:
        """TAIL_PERCENTILE of every sample: fixed, so it does not move with
        the number of passes that fit in the time."""
        from metrics import TAIL_PERCENTILE, hd_quantile

        return hd_quantile(self.sample_ms(normalised), TAIL_PERCENTILE / 100)

    def raw_job_ms(self) -> List[float]:
        from metrics import median

        return [median(ts) / 1e6 for ts in self.times.values()]


def host_fingerprint() -> Dict[str, Any]:
    import numpy

    from repro.simulator import HAVE_NUMBA, KERNEL_IMPL

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "kernel_impl": KERNEL_IMPL,
        "have_numba": bool(HAVE_NUMBA),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def end_to_end(loop: Passes, setup_s: float) -> Dict[str, Any]:
    """End-to-end metrics; the info carries the raw wall readings."""
    from metrics import TAIL_PERCENTILE, hd_quantile

    ms = loop.job_ms()
    raw = loop.raw_job_ms()
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": len(ms) / (sum(ms) / 1e3),
        "job_p50_ms": hd_quantile(ms, 0.5),
        "job_tail_ms": loop.tail_ms(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": 1 - loop.failed / loop.attempted,
        "sim_cycles": sum(loop.cycles.values()),
        "model_gap": sum(loop.gaps.values()) / max(1, len(loop.gaps)),
    }
    info = {
        "tail_percentile": TAIL_PERCENTILE,
        "tail_samples": len(loop.sample_ms()),
        "passes": loop.passes,
        "raw_jobs_per_s": len(raw) / (sum(raw) / 1e3),
        "raw_job_p50_ms": hd_quantile(raw, 0.5),
        "raw_job_tail_ms": loop.tail_ms(normalised=False),
    }
    return {"metrics": metrics, "info": info}


def per_layer(wl, tracer, loop: Passes, untraced: Passes) -> Dict[str, Any]:
    from tracer import SHARE_OF

    from metrics import PER_LAYER

    spans = tracer.spans
    own = tracer.self_ns()
    passes = max(1, loop.passes)
    named: Dict[str, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.phase.startswith("pass"):
            named[s.name].append(i)

    def total_ns(name, self_time=False):
        return sum(own[i] if self_time else spans[i].ns for i in named[name])

    def info_sum(name, key, first_only=False):
        return sum(
            spans[i].info.get(key, 0)
            for i in named[name]
            if not first_only or spans[i].phase == "pass0"
        )

    def per_call(name, scale):
        calls = len(named[name])
        return total_ns(name) / calls / scale if calls else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    builds = [s for s in spans if s.name == "plan.build"]
    setup_builds = [s for s in builds if s.phase == "setup"]
    pass_builds = [s for s in builds if s.phase != "setup"]

    # cold builds inside the passes (paper-scale) are the jobs' own work;
    # otherwise the builds are the set-up's
    cold = pass_builds or setup_builds
    per = passes if pass_builds else 1

    def stage_ms(stage):
        return sum(s.info.get(stage, 0) for s in cold) / per / 1e6

    cliff = getattr(wl, "cliff", None)
    cliff_spans = [
        i for i in named["leap.run"]
        if cliff is not None and cliff(wl.jobs[spans[i].job]["q"],
                                       wl.jobs[spans[i].job]["scheme"])
    ]
    step_stepped = info_sum("step.fused", "stepped")
    py_stepped = info_sum("step.python", "stepped")
    leap_stepped = info_sum("leap.run", "stepped")
    job_ns = total_ns("job")
    shares = Counter()
    for name, idx in named.items():
        shares[SHARE_OF.get(name, name)] += sum(own[i] for i in idx)
    traced_rate = len(wl.jobs) / (sum(loop.job_ms()) / 1e3)
    untraced_rate = len(wl.jobs) / (sum(untraced.job_ms()) / 1e3)

    metrics = {
        "plan.graph_ms": stage_ms("graph build"),
        "plan.trees_ms": stage_ms("tree construction"),
        "plan.fill_ms": stage_ms("bandwidth fill"),
        "plan.builds": len(cold) / per,
        "plancache.hit_ratio": ratio(loop.cache_hits, loop.cache_calls),
        "replan.ms": total_ns("replan.surgery") / passes / 1e6,
        "replan.calls": len(named["replan.surgery"]) / passes,
        "replan.memo_hit_ratio": 1 - ratio(len(named["replan.surgery"]),
                                           len(named["replan.cached"]))
        if named["replan.cached"] else 0.0,
        "replan.greedy_share": ratio(total_ns("trees.greedy"),
                                     total_ns("replan.surgery")),
        "partition.us_per_call": per_call("partition", 1e3),
        "partition.calls": len(named["partition"]) / passes,
        "engine.build_ms": per_call("engine.build", 1e6),
        "engine.builds": len(named["engine.build"]) / passes,
        "step.us_per_cycle": ratio(total_ns("step.fused", True), step_stepped) / 1e3,
        "step.python_us_per_cycle": ratio(total_ns("step.python", True),
                                          py_stepped) / 1e3,
        "leap.stepped_ratio": ratio(leap_stepped, info_sum("leap.run", "cycles")),
        "leap.cliff_stepped_ratio": ratio(
            sum(spans[i].info["stepped"] for i in cliff_spans),
            sum(spans[i].info["cycles"] for i in cliff_spans)),
        "leap.leaps": info_sum("leap.run", "leaps") / passes,
        "leap.us_per_stepped_cycle": ratio(total_ns("leap.run", True),
                                           leap_stepped) / 1e3,
        "batched.ns_per_lane_cycle": ratio(total_ns("batched.run"),
                                           info_sum("batched.run", "lane_cycles")),
        "batched.lane_cycles": info_sum("batched.run", "lane_cycles") / passes,
        "adaptive.windows": len(named["adaptive.window"]) / passes,
        "adaptive.us_per_window": per_call("adaptive.window", 1e3),
        "adaptive.episodes": info_sum("replan.loop", "congestion_episodes") / passes,
        "recovery.episodes": info_sum("replan.loop", "fault_episodes") / passes,
        "recovery.redone_ratio": ratio(info_sum("replan.loop", "redone"),
                                       info_sum("replan.loop", "flits_total")),
        "tenancy.place_ms": per_call("tenancy.place", 1e6),
        "tenancy.us_per_fabric_cycle": ratio(total_ns("tenancy.fabric"),
                                             info_sum("tenancy.fabric", "cycles")) / 1e3,
        "tenancy.blocked_ratio": ratio(info_sum("tenancy.fabric", "blocked"),
                                       info_sum("tenancy.fabric", "local")),
        "sim.flits_moved": sum(info_sum(n, "flits", True) for n in
                               ("step.fused", "step.python", "leap.run",
                                "tenancy.fabric")),
        "sim.stepped_cycles": info_sum("step.fused", "stepped", True)
        + info_sum("step.python", "stepped", True)
        + info_sum("leap.run", "stepped", True)
        + info_sum("tenancy.fabric", "cycles", True),
        "trace.jobs_per_s": traced_rate,
        "trace.untraced_jobs_per_s": untraced_rate,
        "trace.overhead_ratio": untraced_rate / traced_rate - 1,
    }
    for name, _, _ in PER_LAYER:
        if name.startswith("share."):
            metrics[name] = ratio(shares[name[len("share."):]], job_ns)
    layers = {k: v for k, v in metrics.items() if k.startswith("share.") and k != "share.job"}
    info = {"dominant_layer": max(layers, key=layers.get), "passes": loop.passes}
    return {"metrics": metrics, "info": info}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    max_passes = 1 if args.smoke else 0

    import_library()
    from workloads import describe, list_hash, make_workload

    wl = make_workload(args.workload, args.seed, args.smoke)
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
    wl.setup()
    wl.warmup()
    raw_setup_s = time.monotonic() - args.t0
    setup_s = raw_setup_s / slowdown(calls=10)
    out: Dict[str, Any] = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if tracer is None:
        loop = Passes(wl)
        loop.run(args.seconds, max_passes)
        out.update(end_to_end(loop, setup_s))
    else:
        # half the time untraced, half traced: the two rates compared are
        # each a median-of-passes estimate over a like number of passes
        tracer.enabled = False
        tracer.uninstall()
        untraced = Passes(wl)
        untraced.run(args.seconds / 2, max_passes, min_passes=1)
        tracer.install()
        loop = Passes(wl, tracer)
        loop.run(args.seconds / 2, max_passes, min_passes=1)
        out.update(per_layer(wl, tracer, loop, untraced))
        loop.failed += untraced.failed
        loop.attempted += untraced.attempted
        loop.problems.update(untraced.problems)
    out["attempted"] = loop.attempted
    out["failed"] = loop.failed
    out["problems"] = dict(loop.problems)
    out["info"].update(
        workload=wl.name,
        seed=args.seed,
        jobs=len(wl.jobs),
        list_sha256=list_hash(wl.jobs),
        summary=describe(wl),
        host=host_fingerprint(),
    )
    if tracer is not None:
        path = ROOT / ".perfbench" / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.dump(path, {"info": out["info"], "metrics": out["metrics"]})
        out["info"]["spans_file"] = str(path.relative_to(ROOT))
        out["info"]["spans"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
