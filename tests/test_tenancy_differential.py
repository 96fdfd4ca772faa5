"""Isolation-differential suite for the multi-tenant fabric.

The correctness story of ``repro.tenancy`` is an isolation guarantee,
pinned here as pickle-equality of :class:`CycleStats`:

- a K=1 fabric run is **bit-identical** to today's single-job
  ``engine="fast"`` run, under every arbitration policy and for the
  reference fabric engine too;
- K tenants on link-disjoint embeddings (partitioned placement of an
  edge-disjoint scheme) are each bit-identical to their solo runs, with
  zero blocked cycles, across policies;
- tenants on *shared* links never complete earlier than solo
  (contention can only hurt);
- the fast and reference fabric engines are bit-identical to each
  other on contended mixes, trace rows included;
- the two-phase ``finish_cycle(budget, blocked)`` gate: an all-False
  mask is the ungated ``step()``, and both engines gate a mask alike;
- a K=1 tenant hitting a permanent fault records a per-tenant stall at
  the exact cycle, with the exact pending set, of the solo engine's
  ``SimulationStalled`` — and a one-tenant fault storm under
  isolated-slice leaves every other tenant's outcome byte-identical to
  the storm-free run (the single-job-assumption regression).
"""

import pickle

import numpy as np
import pytest

from repro.core import build_plan
from repro.simulator import (
    EngineRun,
    FaultSchedule,
    SimulationStalled,
    make_engine,
)
from repro.tenancy import (
    POLICIES,
    FabricSimulator,
    TenantJob,
    place_jobs,
)

def _solo_stats(fplan, placement, capacity=1, buffer_size=2):
    trees = [fplan.trees[i] for i in placement.tree_ids]
    eng = make_engine(
        "fast", fplan.topology, trees, list(placement.flits), capacity,
        buffer_size,
    )
    return eng.run()


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("q,scheme", [(3, "low-depth"), (5, "edge-disjoint")])
def test_k1_bit_identical_to_fast(q, scheme, policy):
    plan = build_plan(q, scheme)
    m = 40
    job = TenantJob(tenant=0, arrival=0, m=m, tree_count=plan.num_trees)
    fplan = place_jobs(q, [job], scheme)
    solo = make_engine(
        "fast", plan.topology, plan.trees, plan.partition(m), 1, 2
    ).run()
    stats = FabricSimulator(fplan, 1, 2, policy=policy).run()
    (outcome,) = stats.outcomes
    assert outcome.status == "completed"
    assert pickle.dumps(outcome.stats) == pickle.dumps(solo)
    assert stats.cycles == solo.cycles


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_k1_reference_fabric_matches(engine):
    plan = build_plan(3, "low-depth")
    m = 30
    job = TenantJob(tenant=0, arrival=0, m=m, tree_count=plan.num_trees)
    fplan = place_jobs(3, [job])
    solo = make_engine(
        "fast", plan.topology, plan.trees, plan.partition(m), 1, 2
    ).run()
    stats = FabricSimulator(fplan, 1, 2, engine=engine).run()
    assert pickle.dumps(stats.outcomes[0].stats) == pickle.dumps(solo)


@pytest.mark.parametrize("policy", POLICIES)
def test_k1_nonzero_arrival_shifts_global_clock_only(policy):
    plan = build_plan(3, "low-depth")
    m = 24
    arrival = 7
    job = TenantJob(tenant=0, arrival=arrival, m=m, tree_count=plan.num_trees)
    fplan = place_jobs(3, [job])
    solo = make_engine(
        "fast", plan.topology, plan.trees, plan.partition(m), 1, 2
    ).run()
    (outcome,) = FabricSimulator(fplan, 1, 2, policy=policy).run().outcomes
    assert pickle.dumps(outcome.stats) == pickle.dumps(solo)
    assert outcome.global_cycle == arrival + solo.cycles


@pytest.mark.parametrize("policy", POLICIES)
def test_link_disjoint_tenants_bit_identical(policy):
    """Acceptance criterion: q=7 link-disjoint K-tenant differential."""
    jobs = [
        TenantJob(tenant=0, arrival=0, m=44, tree_count=2),
        TenantJob(tenant=1, arrival=5, m=28, tree_count=2),
    ]
    fplan = place_jobs(7, jobs, "edge-disjoint", mode="partitioned")
    # partitioned blocks of an edge-disjoint scheme share no links at all
    assert not FabricSimulator(fplan, 1, 2, policy=policy).shared
    stats = FabricSimulator(fplan, 1, 2, policy=policy).run()
    for outcome, placement in zip(stats.outcomes, fplan.placements):
        solo = _solo_stats(fplan, placement)
        assert outcome.status == "completed"
        assert pickle.dumps(outcome.stats) == pickle.dumps(solo)
        assert outcome.blocked_cycles == 0


@pytest.mark.parametrize("policy", POLICIES)
def test_shared_links_never_complete_earlier(policy):
    jobs = [TenantJob(tenant=t, arrival=3 * t, m=24, tree_count=2)
            for t in range(3)]
    fplan = place_jobs(7, jobs, mode="shared")
    stats = FabricSimulator(fplan, 1, 2, policy=policy).run()
    for outcome, placement in zip(stats.outcomes, fplan.placements):
        solo = _solo_stats(fplan, placement)
        assert outcome.status == "completed"
        assert outcome.local_cycles >= solo.cycles


_Q5_MIX = tuple(
    TenantJob(tenant=t, arrival=4 * t, m=18, tree_count=2) for t in range(3)
)
_STAGGERED_Q7_MIX = (
    TenantJob(tenant=0, arrival=0, m=30, tree_count=3),
    TenantJob(tenant=1, arrival=3, m=9, tree_count=2),
    TenantJob(tenant=2, arrival=11, m=22, tree_count=4),
    TenantJob(tenant=3, arrival=40, m=14, tree_count=1),
)


@pytest.mark.parametrize("policy", POLICIES)
def test_fabric_engines_bit_identical(policy):
    """Equal outcomes and equal trace rows, at capacity 1 and 2, on a q=5
    mix and a q=7 mix with staggered arrivals."""
    for q, jobs in ((5, _Q5_MIX), (7, _STAGGERED_Q7_MIX)):
        fplan = place_jobs(q, list(jobs), mode="shared")
        for capacity in (1, 2):
            sims = [
                FabricSimulator(
                    fplan, capacity, 2, policy=policy, engine=engine,
                    record_trace=True,
                )
                for engine in ("fast", "reference")
            ]
            fast, ref = (sim.run() for sim in sims)
            assert pickle.dumps(fast) == pickle.dumps(ref), (q, capacity)
            assert sims[0].trace == sims[1].trace, (q, capacity)


# --------------------------------------------- the two-phase blocked= gate


def _gate_engines(capacity, faults=None):
    plan = build_plan(5, "low-depth")
    return [
        make_engine(
            engine, plan.topology, plan.trees, plan.partition(30), capacity, 2,
            faults=faults,
        )
        for engine in ("fast", "reference")
    ]


@pytest.mark.parametrize("capacity", [1, 2])
def test_all_false_mask_is_the_ungated_step(capacity):
    plain = [eng.run() for eng in _gate_engines(capacity)]
    for eng, solo in zip(_gate_engines(capacity), plain):
        run = EngineRun(eng)
        none = np.zeros(len(eng.channels()), dtype=bool)
        while not run.finished:
            run.tick(eng.finish_cycle(eng.begin_cycle(), none))
        assert pickle.dumps(run.stats()) == pickle.dumps(solo)


@pytest.mark.parametrize("capacity", [1, 2])
def test_engines_gate_a_mask_identically(capacity):
    """Both engines, gated by the same channels each cycle, move the same
    flits on every channel; a gated channel moves nothing."""
    plan = build_plan(5, "low-depth")
    edge = sorted(plan.trees[0].edges)[0]
    faults = FaultSchedule([(edge, 5, 9)])
    engines = _gate_engines(capacity, faults)
    chs = sorted(engines[0].channels())
    assert sorted(engines[1].channels()) == chs
    rng = np.random.default_rng(7)
    prev = dict.fromkeys(chs, 0)
    for _ in range(400):
        gated = {ch for ch in chs if rng.random() < 0.3}
        moved, counts = [], []
        for eng in engines:
            mask = np.array([ch in gated for ch in eng.channels()])
            moved.append(eng.finish_cycle(eng.begin_cycle(), mask))
            counts.append(dict(zip(eng.channels(), eng.channel_flit_counts())))
        assert moved[0] == moved[1]
        assert counts[0] == counts[1]
        assert all(counts[0][ch] == prev[ch] for ch in gated)
        prev = counts[0]
        if all(eng.done() for eng in engines):
            break
    assert all(eng.done() for eng in engines)
    assert engines[0].delivered_floor() == engines[1].delivered_floor()


def test_gate_rejects_a_mask_of_the_wrong_length():
    for eng in _gate_engines(1):
        with pytest.raises(ValueError, match="boolean mask"):
            eng.finish_cycle(eng.begin_cycle(), np.zeros(3, dtype=bool))


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_k1_stall_parity_with_solo(engine):
    plan = build_plan(5, "edge-disjoint")
    job = TenantJob(tenant=0, arrival=0, m=40, tree_count=plan.num_trees)
    fplan = place_jobs(5, [job], "edge-disjoint")
    edge = sorted(fplan.trees[0].edges)[0]
    faults = FaultSchedule.single(edge, down=6)
    stats = FabricSimulator(
        fplan, 1, 2, engine=engine, faults={0: faults}
    ).run()
    (outcome,) = stats.outcomes
    assert outcome.status == "stalled"
    solo = make_engine(
        "fast", plan.topology, plan.trees, list(fplan.placements[0].flits),
        1, 2, faults=faults,
    )
    with pytest.raises(SimulationStalled) as exc:
        solo.run()
    assert outcome.local_cycles == exc.value.cycle
    assert list(outcome.stall_pending) == list(exc.value.pending)


def test_fault_storm_leaves_other_tenants_unaffected():
    """Satellite regression: one tenant's fault storm must not perturb
    the others under isolated-slice — byte-identical outcomes."""
    jobs = [TenantJob(tenant=t, arrival=0, m=24, tree_count=3)
            for t in range(3)]
    fplan = place_jobs(7, jobs, mode="shared")
    # storm: kill several of tenant 0's links permanently, early
    links = sorted(
        {e for i in fplan.placements[0].tree_ids for e in fplan.trees[i].edges}
    )
    storm = FaultSchedule([(e, 4, None) for e in links[:5]])
    clean = FabricSimulator(fplan, 1, 2, policy="isolated-slice").run()
    stormy = FabricSimulator(
        fplan, 1, 2, policy="isolated-slice", faults={0: storm}
    ).run()
    assert stormy.outcomes[0].status == "stalled"
    for t in (1, 2):
        assert pickle.dumps(stormy.outcomes[t]) == pickle.dumps(
            clean.outcomes[t]
        )
    # and the whole fabric still ran to a result — no global abort
    assert all(o.status == "completed" for o in stormy.outcomes[1:])
