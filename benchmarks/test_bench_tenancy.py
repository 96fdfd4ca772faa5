"""E-A17 — multi-tenant fabric throughput vs serialized solo runs.

Workload at q=7 (N=57 routers): K identical tenants sharing the fabric
under the fair-share policy, versus running the same K collectives one
after another on a dedicated fabric (K x the solo fast-engine run). The
shared fabric interleaves tenants onto idle channels, so its makespan
must beat the serial schedule. Pass criteria: the K=1 fabric run stays
bit-identical to the solo engine (isolation differential, re-asserted
here as the speedup precondition) and the K-tenant fabric completes in
less wall-cycles than K serialized solos.

A second case records the fabric's wall-time curve over K (fair-share,
capacity 1, buffer 2, m=64): q=7 K=4 partitioned, q=7 K=8 shared and
q=11 K=16/K=32 shared — fabric seconds against serialized-solo seconds,
the fabric cycles and the µs per fabric cycle.  Each row also counts
``full_steps``, the tenant ``finish_cycle`` calls of the fabric run,
next to ``local_cycles``, the sum of the tenants' local cycles: a tenant
whose last cycle moved nothing is parked and skips its full step, so at
q=11 K=32 at most a quarter of the tenant cycles may be full steps.
(q=13 K=64 takes tens of seconds and is left out.)

Each case's numbers land in ``benchmark.extra_info`` *and* are persisted
to ``BENCH_tenancy.json`` at the repo root so the trajectory is tracked
across PRs.
"""

import pickle
import time
from pathlib import Path
from unittest import mock

from conftest import persist, record, timed_pedantic

from repro.core import build_plan
from repro.simulator import FastCycleSimulator, make_engine
from repro.tenancy import FabricSimulator, TenantJob, place_jobs

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_tenancy.json"
Q = 7
M = 64
TENANTS = 4
TREES_EACH = 1  # partitioned: distinct trees, overlapping links (cong. 2)
BUDGET_S = 30.0  # shared-CI generous; single-digit locally


def test_k1_fabric_bit_identical_to_solo():
    """Precondition for any throughput claim: the fabric adds nothing to
    a lone tenant — pickle-equal CycleStats."""
    plan = build_plan(Q, "low-depth")
    job = TenantJob(tenant=0, arrival=0, m=M, tree_count=plan.num_trees)
    fplan = place_jobs(Q, [job])
    solo = make_engine(
        "fast", plan.topology, plan.trees, plan.partition(M), 1, 2
    ).run()
    stats = FabricSimulator(fplan, 1, 2).run()
    assert pickle.dumps(stats.outcomes[0].stats) == pickle.dumps(solo)


def test_k_tenant_throughput_vs_serial_solo(benchmark):
    """K concurrent tenants vs K serialized solos: the shared fabric's
    makespan (global cycles) must beat the serial schedule (each tenant
    run alone, one after another)."""
    jobs = [
        TenantJob(tenant=t, arrival=0, m=M, tree_count=TREES_EACH)
        for t in range(TENANTS)
    ]
    fplan = place_jobs(Q, jobs, mode="partitioned")

    def solo_engines():
        return [
            make_engine(
                "fast",
                fplan.topology,
                [fplan.trees[i] for i in p.tree_ids],
                list(p.flits),
                1,
                2,
            )
            for p in fplan.placements
        ]

    t0 = time.perf_counter()
    solos = [eng.run() for eng in solo_engines()]
    serial_s = time.perf_counter() - t0
    serial_cycles = sum(s.cycles for s in solos)

    def run():
        return FabricSimulator(fplan, 1, 2, policy="fair-share").run()

    stats, fabric_s = timed_pedantic(
        benchmark, run, rounds=3, iterations=1, warmup_rounds=1
    )
    assert all(o.status == "completed" for o in stats.outcomes)
    cycle_speedup = serial_cycles / stats.cycles
    payload = {
        "q": Q,
        "scheme": "low-depth",
        "k": TENANTS,
        "m": M,
        "trees_each": TREES_EACH,
        "solo_cycles": [s.cycles for s in solos],
        "serial_cycles": serial_cycles,
        "fabric_cycles": stats.cycles,
        "cycle_speedup": round(cycle_speedup, 2),
        "p99_local_cycles": max(o.local_cycles for o in stats.outcomes),
        "serial_seconds": round(serial_s, 4),
        "fabric_seconds": round(fabric_s, 4),
        "budget_seconds": BUDGET_S,
    }
    record(benchmark, **payload)
    persist(BENCH_JSON, "tenancy-throughput-q7-k4", payload)
    assert cycle_speedup > 1.0, (
        f"shared fabric makespan {stats.cycles} not better than "
        f"{serial_cycles} serialized cycles"
    )
    assert fabric_s < BUDGET_S, (
        f"fabric run took {fabric_s:.2f}s (budget {BUDGET_S}s)"
    )


#: (q, K, placement mode) cells of the wall-time curve over K
K_CURVE = ((7, 4, "partitioned"), (7, 8, "shared"), (11, 16, "shared"),
           (11, 32, "shared"))


def test_k_curve_fabric_vs_serial_solo(benchmark):
    """Fabric wall time per K, next to the same K tenants run one after
    another alone.  Partitioned tenants take one tree each; shared
    tenants take every tree of the plan (maximal link overlap)."""

    def cell(q, k, mode):
        plan = build_plan(q, "low-depth")
        trees_each = 1 if mode == "partitioned" else plan.num_trees
        jobs = [
            TenantJob(tenant=t, arrival=0, m=M, tree_count=trees_each)
            for t in range(k)
        ]
        fplan = place_jobs(q, jobs, mode=mode)
        t0 = time.perf_counter()
        solos = [
            make_engine(
                "fast",
                fplan.topology,
                [fplan.trees[i] for i in p.tree_ids],
                list(p.flits),
                1,
                2,
            ).run()
            for p in fplan.placements
        ]
        serial_s = time.perf_counter() - t0
        full_steps = 0
        finish = FastCycleSimulator.finish_cycle

        def counted(self, *args):
            nonlocal full_steps
            full_steps += 1
            return finish(self, *args)

        with mock.patch.object(FastCycleSimulator, "finish_cycle", counted):
            t0 = time.perf_counter()
            stats = FabricSimulator(fplan, 1, 2, policy="fair-share").run()
            fabric_s = time.perf_counter() - t0
        assert all(o.status == "completed" for o in stats.outcomes)
        return {
            "q": q,
            "k": k,
            "mode": mode,
            "trees_each": trees_each,
            "fabric_cycles": stats.cycles,
            "serial_cycles": sum(s.cycles for s in solos),
            "full_steps": full_steps,
            "local_cycles": sum(o.local_cycles for o in stats.outcomes),
            "fabric_seconds": round(fabric_s, 4),
            "serial_seconds": round(serial_s, 4),
            "us_per_fabric_cycle": round(fabric_s / stats.cycles * 1e6, 1),
        }

    curve = benchmark.pedantic(
        lambda: {f"q{q}-k{k}-{mode}": cell(q, k, mode) for q, k, mode in K_CURVE},
        rounds=1,
        iterations=1,
    )
    record(benchmark, **curve)
    persist(BENCH_JSON, "tenancy-k-curve", curve)
    k32 = curve["q11-k32-shared"]
    assert k32["fabric_seconds"] < BUDGET_S
    assert k32["full_steps"] <= 0.25 * k32["local_cycles"], (
        f"{k32['full_steps']} full tenant steps in {k32['local_cycles']} "
        "tenant cycles: parked tenants are stepping"
    )
