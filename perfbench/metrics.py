"""Metric registry and the small statistics the benchmark reports.

The registry is the single source of the metric names: ``run.py`` prints
exactly these keys and ``BENCHMARK.json`` is generated from them
(``python3 perfbench/run.py --write-config``).
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

RUN_SECONDS = 26
#: ``job_tail_ms`` is this percentile of at least TAIL_SAMPLES samples,
#: the fewest that leave ten samples beyond it.
TAIL_PERCENTILE = 90
TAIL_SAMPLES = 101
#: A seed kept out of every tuning run; later claims must also hold on it.
HELD_OUT_SEED = 9973

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("solo-stream",
     "single allreduces on warm plans, fast engine, a quarter with transient "
     "faults: the fused serial step does the work"),
    ("paper-scale",
     "one request per (q, scheme) cell: cold planning to q=29, leap runs at "
     "paper-scale m, batched fault ensembles at q<=11"),
    ("replan-storm",
     "skewed splits under the congestion controller, permanent link failures "
     "under recovery, balanced controls: re-plan surgery does the work"),
    ("tenant-mix",
     "Poisson tenant mixes, K=2-8, placed shared and partitioned under three "
     "arbitration policies: the only workload that touches tenancy"),
)

# (name, unit, better, bound). The wall-time bounds are the widest allowed:
# even after the host-speed index (hostspeed.py) the shared 2-core host the
# benchmark was built on leaves a seed-to-seed spread of up to ~15% on
# tenant-mix. sim_cycles and model_gap are exact for a seed but vary
# across seeds (up to about 8%); memory varies with job order on
# paper-scale (about 10%).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_p50_ms", "ms", "lower", 0.25),
    ("job_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("ok_rate", "ratio", "higher", 0.01),
    ("sim_cycles", "cycles", "lower", 0.25),
    ("model_gap", "ratio", "lower", 0.25),
)

# (name, unit, better)
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("plan.graph_ms", "ms", "lower"),
    ("plan.trees_ms", "ms", "lower"),
    ("plan.fill_ms", "ms", "lower"),
    ("plan.builds", "count", "lower"),
    ("plancache.hit_ratio", "ratio", "higher"),
    ("replan.ms", "ms", "lower"),
    ("replan.calls", "count", "lower"),
    ("replan.memo_hit_ratio", "ratio", "higher"),
    ("replan.greedy_share", "ratio", "lower"),
    ("partition.us_per_call", "us", "lower"),
    ("partition.calls", "count", "lower"),
    ("engine.build_ms", "ms", "lower"),
    ("engine.builds", "count", "lower"),
    ("step.us_per_cycle", "us", "lower"),
    ("step.python_us_per_cycle", "us", "lower"),
    ("leap.stepped_ratio", "ratio", "lower"),
    ("leap.cliff_stepped_ratio", "ratio", "lower"),
    ("leap.leaps", "count", "higher"),
    ("leap.us_per_stepped_cycle", "us", "lower"),
    ("batched.ns_per_lane_cycle", "ns", "lower"),
    ("batched.lane_cycles", "cycles", "lower"),
    ("adaptive.windows", "count", "lower"),
    ("adaptive.us_per_window", "us", "lower"),
    ("adaptive.episodes", "count", "lower"),
    ("recovery.episodes", "count", "lower"),
    ("recovery.redone_ratio", "ratio", "lower"),
    ("tenancy.place_ms", "ms", "lower"),
    ("tenancy.us_per_fabric_cycle", "us", "lower"),
    ("tenancy.blocked_ratio", "ratio", "lower"),
    ("sim.flits_moved", "flits", "lower"),
    ("sim.stepped_cycles", "cycles", "lower"),
    ("share.job", "ratio", "lower"),
    ("share.plan", "ratio", "lower"),
    ("share.plancache", "ratio", "lower"),
    ("share.replan", "ratio", "lower"),
    ("share.greedy", "ratio", "lower"),
    ("share.partition", "ratio", "lower"),
    ("share.engine_build", "ratio", "lower"),
    ("share.step", "ratio", "lower"),
    ("share.step_python", "ratio", "lower"),
    ("share.controller", "ratio", "lower"),
    ("share.leap", "ratio", "lower"),
    ("share.batched", "ratio", "lower"),
    ("share.replan_loop", "ratio", "lower"),
    ("share.tenancy_place", "ratio", "lower"),
    ("share.tenancy_fabric", "ratio", "lower"),
    ("trace.jobs_per_s", "1/s", "higher"),
    ("trace.untraced_jobs_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def benchmark_config() -> Dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def units(trace: bool) -> Dict[str, str]:
    rows = PER_LAYER if trace else END_TO_END
    return {row[0]: row[1] for row in rows}


def median(values: Sequence[float]) -> float:
    s = sorted(values)
    if not s:
        raise ValueError("median of no values")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def hd_quantile(values: Sequence[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a Beta-weighted mean of
    every order statistic, centred on rank ``p(n+1)``. With a few dozen
    heterogeneous jobs it does not jump when the quantile falls between
    two size classes, as a single order statistic does."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("quantile of no values")
    a, b = p * (n + 1), (1 - p) * (n + 1)
    if n == 1 or a < 1 or b < 1:
        return float(x[min(n - 1, max(0, round(p * (n - 1))))])
    # Beta(a, b) mass of each rank's interval [(i-1)/n, i/n]
    t = (np.arange(n * 200) + 0.5) / (n * 200)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    w = pdf.reshape(n, 200).sum(axis=1)
    return float(np.dot(w / w.sum(), x))


def check_names() -> List[str]:
    """Every registry problem (an empty list when the registry is valid)."""
    problems = []
    seen = set()
    for name, _ in WORKLOADS:
        if not NAME_RE.match(name):
            problems.append(f"bad workload name {name!r}")
    for name, unit, *_ in END_TO_END + PER_LAYER:
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        if not UNIT_RE.match(unit):
            problems.append(f"bad unit {unit!r} on {name}")
        if name in seen:
            problems.append(f"duplicate metric {name}")
        seen.add(name)
    return problems
