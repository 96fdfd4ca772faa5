"""The four closed-loop workloads: seeded job lists, the jobs, their checks.

A workload's job list is plain JSON-able data made from ``--seed`` alone
(numpy's ``default_rng``); only ``tenant-mix`` calls the library to draw
it, through :func:`repro.tenancy.poisson_jobs`, as its definition says.
Sizes (and the tenant-mix arrival gaps) are stratified, one draw per
equal-mass stratum (jittered Latin-hypercube draws; on ``solo-stream``
one randomly shifted lattice over the whole list), so two seeds give
different inputs with the same size distribution and the list-level
percentiles do not jump between size classes.

Each workload object owns everything a run needs: ``setup`` cold-builds
what the jobs use, ``begin_pass`` restores the per-pass starting state,
``run(job)`` is the timed request, and ``check`` / ``cycles`` / ``gap``
judge its result outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import replace
from fractions import Fraction
from typing import Any, Dict, List, Sequence

import numpy as np

LD, ED = "low-depth", "edge-disjoint"


def lhs(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` stratified uniforms in [0, 1): one per stratum, shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def log_uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return lo * (hi / lo) ** u


def agg_rate(q: int, scheme: str) -> float:
    """Theorem 5.1 aggregate bandwidth of the scheme (links of bandwidth
    1): q/2 for the low-depth trees, (q+1)/2 for the edge-disjoint ones.
    Used only to turn a target cycle count into a message size, so the
    job list does not depend on the code under test."""
    return q / 2 if scheme == LD else (q + 1) / 2


def list_hash(jobs: Sequence[Dict[str, Any]]) -> str:
    blob = json.dumps(list(jobs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def reset_caches() -> None:
    """Forget every plan, re-plan and memoized construction, so the next
    ``get_plan`` pays the full cold cost."""
    import sys

    from repro.core.plancache import reset_global_plan_cache

    reset_global_plan_cache()
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro") or mod is None:
            continue
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)) and hasattr(
                obj, "cache_info"
            ):
                obj.cache_clear()


def flits_identity(n: int, m: int) -> int:
    """Directed flit-hops of an ``m``-element allreduce on ``n`` nodes: every
    element crosses each of the N-1 tree edges once up and once down."""
    return m * 2 * (n - 1)


def same_pickle(a: Any, b: Any) -> bool:
    return pickle.dumps(a) == pickle.dumps(b)


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.jobs: List[Dict[str, Any]] = self.generate(np.random.default_rng(seed))
        for i, job in enumerate(self.jobs):
            job["id"] = i
        self._first: Dict[int, bytes] = {}

    # -------------------------------------------------------------- inputs

    def generate(self, rng: np.random.Generator) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    #: the untimed warm-up request: fixed and outside the list, so set-up
    #: time does not depend on the seed
    warm_job: Dict[str, Any] = {}

    def warmup(self) -> None:
        self.run(dict(self.warm_job, id=-1))

    def begin_pass(self) -> None:
        """Restore the state every pass starts from (untimed)."""

    def run(self, job: Dict[str, Any]) -> Any:
        raise NotImplementedError

    # ------------------------------------------------------------- judging

    def check(self, job: Dict[str, Any], result: Any, first_pass: bool) -> List[str]:
        """Failed checks of one result. Every pass must reproduce the
        first pass's result exactly; the heavier checks run on the first."""
        problems: List[str] = []
        blob = pickle.dumps(self.summary(result))
        ref = self._first.setdefault(job["id"], blob)
        if ref != blob:
            problems.append("result differs from the first pass")
        if first_pass:
            problems.extend(self.deep_check(job, result))
        return problems

    def summary(self, result: Any) -> Any:
        return result

    def deep_check(self, job: Dict[str, Any], result: Any) -> List[str]:
        raise NotImplementedError

    def cycles(self, job: Dict[str, Any], result: Any) -> int:
        raise NotImplementedError

    def gap(self, job: Dict[str, Any], result: Any) -> float:
        raise NotImplementedError


def _resolve_fault(plan, spec):
    """``(rank fraction, down, up)`` -> a one-link FaultSchedule on a link
    the plan routes flits over."""
    from repro.analysis.recovery import used_links
    from repro.simulator import FaultSchedule

    links = used_links(plan)
    frac, down, up = spec
    return FaultSchedule.single(links[int(frac * len(links))], down, up)


# ------------------------------------------------------------ solo-stream


class SoloStream(Workload):
    """Single allreduces on warm plans through ``simulate_allreduce``."""

    name = "solo-stream"
    cells = ((7, LD), (7, ED), (11, LD), (11, ED), (13, LD), (13, ED))
    per_cell = 5
    rerun_every = 4  # every k-th job is re-run on the leap engine
    warm_job = {"q": 7, "scheme": LD, "m": 3500, "fault": None}

    def generate(self, rng):
        per = 2 if self.smoke else self.per_cell
        n = per * len(self.cells)
        # one stratified design over the whole list: the n size strata are
        # dealt round-robin to the cells in a random order, and one random
        # shift moves every draw inside its stratum (a randomised lattice)
        deal = rng.permutation(len(self.cells))
        shift = rng.random()
        jobs = []
        for c, (q, scheme) in enumerate(self.cells):
            u = (np.arange(per) * len(self.cells) + deal[c] + shift) / n
            target = log_uniform(rng.permutation(u), 300, 3000)
            # about a quarter of the jobs carry a transient fault: two in
            # each q=7 cell, one elsewhere; each outage is 4% of the job
            faulted = rng.permutation(per)[: 1 + (q == 7 and per > 2)]
            for j in range(per):
                m = int(round(target[j] * agg_rate(q, scheme)))
                fault = None
                if j in faulted:
                    down = max(1, int(target[j] * (0.1 + 0.5 * rng.random())))
                    fault = [float(rng.random()), down, down + max(2, int(0.04 * target[j]))]
                jobs.append({"q": q, "scheme": scheme, "m": m, "fault": fault})
        order = rng.permutation(len(jobs))
        return [jobs[i] for i in order]

    def setup(self):
        from repro.core import get_plan

        plans = {cell: get_plan(*cell) for cell in self.cells}
        self.faults = {
            job["id"]: _resolve_fault(plans[job["q"], job["scheme"]], job["fault"])
            for job in self.jobs
            if job["fault"] is not None
        }

    def run(self, job):
        from repro.core import get_plan
        from repro.simulator import simulate_allreduce

        plan = get_plan(job["q"], job["scheme"])
        return simulate_allreduce(
            plan.topology,
            plan.trees,
            plan.partition(job["m"]),
            engine="fast",
            faults=self.faults.get(job["id"]),
        )

    def deep_check(self, job, stats):
        from repro.core import get_plan
        from repro.simulator import simulate_allreduce

        plan = get_plan(job["q"], job["scheme"])
        problems = []
        if stats.flits_moved != flits_identity(plan.num_nodes, job["m"]):
            problems.append("flits_moved != m * 2(N-1)")
        if job["id"] % self.rerun_every == 0:
            leap = simulate_allreduce(
                plan.topology,
                plan.trees,
                plan.partition(job["m"]),
                engine="leap",
                faults=self.faults.get(job["id"]),
            )
            if not same_pickle(leap, stats):
                problems.append("leap engine disagrees with fast")
        return problems

    def cycles(self, job, stats):
        return stats.cycles

    def gap(self, job, stats):
        from repro.core import get_plan

        est = get_plan(job["q"], job["scheme"]).estimated_time(job["m"], hop_latency=1)
        return abs(float(Fraction(stats.cycles) / est) - 1)


# ------------------------------------------------------------ paper-scale


class PaperScale(Workload):
    """One request per (q, scheme) cell, the way ``report`` and
    ``montecarlo`` evaluate cells: cold plan, leap run, batched ensemble."""

    name = "paper-scale"
    cells = tuple((q, LD) for q in (7, 9, 11, 13, 17, 19, 23, 25, 27, 29)) + tuple(
        (q, ED) for q in (7, 9, 11, 13, 17, 19)
    )
    # cells with q below this are requested twice, and so are the cliff
    # cells: the second request hits the plan cache. Other large cells stay
    # single, to keep a pass short; the cliff cells are about a fifth of
    # the list, so the p90 tail falls among them, not between them and
    # the rest
    repeat_below = 17
    mc_lanes = {7: 64, 9: 32, 11: 16}

    @staticmethod
    def cliff(q, scheme):
        """Cells where the leap engine's verify budget never lets it leap."""
        return scheme == LD and q >= 25

    def generate(self, rng):
        cells = self.cells[::4] if self.smoke else self.cells
        requests = [
            cell for cell in cells
            for _ in range(2 if cell[0] < self.repeat_below or self.cliff(*cell) else 1)
        ]
        # sizes stratified jointly over the cliff requests (their size sets
        # their wall time) and over the rest (where it sets only cycles)
        cliffs = [i for i, cell in enumerate(requests) if self.cliff(*cell)]
        others = [i for i in range(len(requests)) if i not in cliffs]
        m = np.zeros(len(requests))
        m[cliffs] = 1200 + 800 * lhs(rng, len(cliffs))
        m[others] = log_uniform(lhs(rng, len(others)), 2e5, 1e6)
        jobs = []
        for (q, scheme), size in zip(requests, m):
            job = {"q": q, "scheme": scheme, "m": int(round(size)), "mc": None}
            if q in self.mc_lanes:
                job["mc"] = [self.mc_lanes[q] // (4 if self.smoke else 1),
                             int(rng.integers(2**31))]
            jobs.append(job)
        order = rng.permutation(len(jobs))
        return [jobs[i] for i in order]

    def setup(self):
        # imports and one request on a cell outside the list; planning is
        # the jobs' own work here, so every pass starts cold
        self.run({"q": 5, "scheme": LD, "m": 10**5, "mc": [16, 0]})
        self.run({"q": 5, "scheme": ED, "m": 10**5, "mc": [16, 0]})

    def warmup(self):
        """The setup request was the warm-up."""

    def begin_pass(self):
        reset_caches()

    def run(self, job):
        from repro.analysis.montecarlo import fault_monte_carlo
        from repro.core import get_plan
        from repro.simulator import simulate_allreduce

        plan = get_plan(job["q"], job["scheme"])
        stats = simulate_allreduce(
            plan.topology, plan.trees, plan.partition(job["m"]), engine="leap"
        )
        mc = None
        if job["mc"] is not None:
            lanes, seed = job["mc"]
            mc = fault_monte_carlo(
                job["q"], job["scheme"], m=8, k=lanes, seed=seed, engine="batched"
            )
        return plan, stats, mc

    def summary(self, result):
        _, stats, mc = result
        return stats, None if mc is None else (mc.lanes, mc.clean_cycles)

    def deep_check(self, job, result):
        plan, stats, mc = result
        problems = []
        if Fraction(job["m"], stats.cycles) > plan.aggregate_bandwidth:
            problems.append("measured bandwidth above Theorem 5.1")
        if stats.flits_moved != flits_identity(plan.num_nodes, job["m"]):
            problems.append("flits_moved != m * 2(N-1)")
        if mc is not None and len(mc.lanes) != job["mc"][0]:
            problems.append("ensemble lost lanes")
        return problems

    def cycles(self, job, result):
        return result[1].cycles

    def gap(self, job, result):
        plan, stats, _ = result
        est = plan.estimated_time(job["m"], hop_latency=1)
        return abs(float(Fraction(stats.cycles) / est) - 1)


# ----------------------------------------------------------- replan-storm


class ReplanStorm(Workload):
    """Re-planning under congestion and under permanent link failures."""

    name = "replan-storm"
    qs = (7, 11)
    # kind, scheme, policy, jobs per q
    mix = (
        ("skew", LD, None, 10),
        ("fault", LD, "degraded", 3),
        ("fault", LD, "repaired", 3),
        ("fault", ED, "degraded", 3),
        ("fault", ED, "repaired", 3),
        ("control", LD, None, 6),
    )
    warm_job = {"q": 7, "kind": "skew", "scheme": LD, "policy": None, "m": 1000,
                "fault": None}

    def generate(self, rng):
        jobs = []
        for q in self.qs:
            for kind, scheme, policy, count in self.mix:
                count = 1 if self.smoke else count
                ms = log_uniform(lhs(rng, count), 500, 2500)
                for m in ms:
                    m = int(round(m))
                    job = {"q": q, "kind": kind, "scheme": scheme, "policy": policy,
                           "m": m, "fault": None}
                    if kind == "fault":
                        span = m / agg_rate(q, scheme)
                        down = int(span * (0.1 + 0.4 * rng.random()))
                        job["fault"] = [float(rng.random()), max(1, down), None]
                    jobs.append(job)
        order = rng.permutation(len(jobs))
        return [jobs[i] for i in order]

    def setup(self):
        self.begin_pass()

    def begin_pass(self):
        # a fresh re-plan memo: every pass pays the same surgery
        from repro.core import get_plan
        from repro.core.plancache import reset_global_plan_cache

        reset_global_plan_cache()
        self.plans = {(q, s): get_plan(q, s) for q in self.qs for s in (LD, ED)}
        self.faults = {
            job["id"]: _resolve_fault(self.plans[job["q"], job["scheme"]], job["fault"])
            for job in self.jobs
            if job["fault"] is not None
        }

    def run(self, job):
        from repro.analysis.adaptive import skewed_partition
        from repro.simulator import run_adaptive, run_with_recovery

        plan = self.plans[job["q"], job["scheme"]]
        if job["kind"] == "skew":
            parts = skewed_partition(plan, job["m"], 1.0)
            return run_adaptive(plan, m_per_tree=parts, engine="fast")
        if job["kind"] == "control":
            return run_adaptive(plan, job["m"], engine="fast")
        return run_with_recovery(
            plan, job["m"], self.faults[job["id"]], policy=job["policy"], engine="fast"
        )

    def summary(self, res):
        return res.stats, res.episodes, res.total_cycles

    def deep_check(self, job, res):
        problems = []
        # every element is delivered in one leg: the floors each episode
        # kept plus the final leg's workload cover m exactly
        delivered = sum(e.flits_delivered for e in res.episodes)
        if delivered + sum(res.stats.flits_per_tree) != job["m"]:
            problems.append("flits not conserved across re-plans")
        if job["kind"] == "control" and res.episodes:
            problems.append("balanced control fired an episode")
        if job["kind"] != "control" and not res.episodes:
            problems.append("no episode fired")
        return problems

    def cycles(self, job, res):
        return res.total_cycles

    def gap(self, job, res):
        # the oracle: the balanced Equation 2 split on the original plan
        est = self.plans[job["q"], job["scheme"]].estimated_time(job["m"], hop_latency=1)
        return abs(float(Fraction(res.total_cycles) / est) - 1)


# ------------------------------------------------------------- tenant-mix


class TenantMix(Workload):
    """Poisson tenant mixes on one fabric, every placement mode and policy."""

    name = "tenant-mix"
    scheme = LD
    # (q, K) of each mix; partitioned placement must fit q trees. Every
    # (q, K) is there twice: with one mix each, the list's time and its
    # tail were set by the one K=8 mix
    mixes = ((7, 2), (7, 3), (7, 4), (7, 5), (7, 6), (7, 7), (11, 4), (11, 8)) * 2
    modes = ("shared", "partitioned")
    mean_m = 24
    mean_gap = 16.0  # poisson_jobs' default mean inter-arrival time
    warm_job = {"q": 7, "mix": -1, "tenants": [[0, 0, 24, 1], [1, 4, 24, 1]],
                "mode": "shared", "policy": "fair-share"}

    def generate(self, rng):
        from repro.tenancy import POLICIES, poisson_jobs

        mixes = self.mixes[:2] if self.smoke else self.mixes
        drawn = []
        for q, k in mixes:
            choices = (1, 2) if 2 * k <= q else (1,)
            for _ in range(20):
                tenants = poisson_jobs(k, rng=rng, mean_m=self.mean_m,
                                       tree_count_choices=choices)
                if sum(t.tree_count for t in tenants) <= q:
                    break
            else:
                tenants = poisson_jobs(k, rng=rng, mean_m=self.mean_m,
                                       tree_count_choices=(1,))
            drawn.append((q, list(tenants)))
        # stratify over every tenant of the list the inter-arrival gaps
        # (the exponential law of poisson_jobs) and the message sizes (its
        # geometric law), each truncated at 4x its mean
        total = sum(len(t) for _, t in drawn)
        gaps = iter(-self.mean_gap * np.log1p(-lhs(rng, total) * (1 - np.exp(-4))))
        p = 1 / self.mean_m
        cap = 1 - (1 - p) ** (4 * self.mean_m)
        sizes = np.ceil(np.log1p(-lhs(rng, total) * cap) / np.log1p(-p))
        it = iter(int(max(1, s)) for s in sizes)
        jobs = []
        for mix, (q, tenants) in enumerate(drawn):
            arrivals = np.floor(np.cumsum([next(gaps) for _ in tenants]))
            tenants = [replace(t, arrival=int(a), m=next(it))
                       for t, a in zip(tenants, arrivals)]
            spec = [[t.tenant, t.arrival, t.m, t.tree_count] for t in tenants]
            for mode in self.modes:
                for policy in POLICIES:
                    jobs.append({"q": q, "mix": mix, "tenants": spec,
                                 "mode": mode, "policy": policy})
        order = rng.permutation(len(jobs))
        return [jobs[i] for i in order]

    def setup(self):
        from repro.core import get_plan

        for q in sorted({job["q"] for job in self.jobs}):
            get_plan(q, self.scheme)

    @staticmethod
    def tenant_jobs(job):
        from repro.tenancy import TenantJob

        return [TenantJob(*t) for t in job["tenants"]]

    def run(self, job):
        from repro.tenancy import place_jobs, simulate_tenants

        fplan = place_jobs(job["q"], self.tenant_jobs(job), self.scheme,
                           mode=job["mode"])
        return fplan, simulate_tenants(fplan, policy=job["policy"])

    def summary(self, result):
        return result[1]

    def deep_check(self, job, result):
        fplan, stats = result
        problems = []
        if len(stats.completed) != len(job["tenants"]):
            problems.append("a tenant did not complete")
        if job["mode"] == "shared" and job["policy"] == "fair-share":
            problems.extend(self.solo_parity(job))
        return problems

    def solo_parity(self, job):
        """A K=1 mix of the mix's first tenant equals its solo fast run."""
        from repro.simulator import make_engine
        from repro.tenancy import TenantJob, place_jobs, simulate_tenants

        first = self.tenant_jobs(job)[0]
        solo_job = TenantJob(tenant=0, arrival=0, m=first.m, tree_count=first.tree_count)
        fplan = place_jobs(job["q"], [solo_job], self.scheme, mode=job["mode"])
        (placement,) = fplan.placements
        (outcome,) = simulate_tenants(fplan, policy=job["policy"]).outcomes
        solo = make_engine(
            "fast", fplan.topology, list(fplan.tenant_trees(placement)),
            list(placement.flits),
        ).run()
        if outcome.status != "completed" or not same_pickle(outcome.stats, solo):
            return ["K=1 fabric run differs from the solo fast run"]
        return []

    def cycles(self, job, result):
        return result[1].cycles

    def gap(self, job, result):
        """|Σ tenants' local cycles ÷ Σ their solo Eq. 2 estimates - 1|: the
        job's simulated time against the time each tenant would take alone
        on its own trees (a sum, so tiny tenants that waited long do not
        swamp the figure)."""
        from repro.core import AllreducePlan, get_plan, tree_bandwidths

        fplan, stats = result
        base = get_plan(job["q"], self.scheme)
        est = local = 0
        for placement in fplan.placements:
            trees = fplan.tenant_trees(placement)
            solo = AllreducePlan(
                q=base.q, scheme=base.scheme, topology=base.topology,
                trees=trees,
                bandwidths=tuple(tree_bandwidths(base.topology, trees,
                                                 base.link_bandwidth)),
                link_bandwidth=base.link_bandwidth,
            )
            est += solo.estimated_time(placement.job.m, hop_latency=1)
            local += stats.outcome(placement.job.tenant).local_cycles
        return abs(float(Fraction(local) / est) - 1)


WORKLOADS = {w.name: w for w in (SoloStream, PaperScale, ReplanStorm, TenantMix)}


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    try:
        return WORKLOADS[name](seed, smoke)
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None


def describe(workload: Workload) -> str:
    return f"{workload.name}: {len(workload.jobs)} jobs, list sha256 {list_hash(workload.jobs)}"
