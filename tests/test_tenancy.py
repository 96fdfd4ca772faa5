"""Hypothesis invariant suite for the multi-tenant fabric.

Property-tests the physical invariants the shared-fabric engine must
never violate, over random seeded tenant mixes
(``tests.strategies.tenant_mixes``):

- per-cycle usage of every directed channel, summed over all tenants,
  never exceeds ``link_capacity``;
- admission never places more reduction work on a switch than its slot
  limit (and the ledger matches an independent recount);
- a fixed seed reproduces the exact Poisson job mix (arrival
  determinism), and a whole fabric run is deterministic;
- work conservation: under the work-conserving policies a shared
  channel with a pending eligible flit is never left idle;
- the matrix arbiter agrees, row by row of the trace, with a literal
  per-channel reading of the three policies, and each tenant's
  ``blocked_cycles`` matches a recount from the trace;
- fair-share slowdown of a completed tenant is bounded by ~K.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tenancy import (
    AdmissionError,
    FabricSimulator,
    TenantJob,
    place_jobs,
    poisson_jobs,
)
from tests.strategies import (
    arbitration_policies,
    materialize_jobs,
    placement_modes,
    seeds,
    tenant_mixes,
)

# small radix keeps each fabric run fast; q=3 has 3 low-depth trees
Q = 3
NUM_TREES = 3


def _fabric(mix, mode, policy, capacity=1, buffer_size=2, record_trace=False):
    jobs = materialize_jobs(mix, NUM_TREES, mode)
    fplan = place_jobs(Q, jobs, mode=mode)
    return fplan, FabricSimulator(
        fplan,
        capacity,
        buffer_size,
        policy=policy,
        record_trace=record_trace,
    )


class TestCapacityInvariant:
    @settings(max_examples=25, deadline=None)
    @given(
        mix=tenant_mixes(max_tenants=3, max_m=10, max_arrival=10),
        policy=arbitration_policies(),
        capacity=st.integers(min_value=1, max_value=2),
    )
    def test_per_cycle_link_usage_within_capacity(self, mix, policy, capacity):
        _, sim = _fabric(
            mix, "shared", policy, capacity=capacity, record_trace=True
        )
        sim.run()
        for row in sim.trace:
            totals = {}
            for deltas in row.get("moved", {}).values():
                for ch, cnt in deltas.items():
                    totals[ch] = totals.get(ch, 0) + cnt
            for ch, cnt in totals.items():
                assert 0 < cnt <= capacity, (row["cycle"], ch, cnt)


class TestAdmission:
    @settings(max_examples=25, deadline=None)
    @given(mix=tenant_mixes(max_tenants=3), mode=placement_modes())
    def test_switch_ledger_matches_recount(self, mix, mode):
        jobs = materialize_jobs(mix, NUM_TREES, mode)
        fplan = place_jobs(Q, jobs, mode=mode)
        recount = {}
        for p in fplan.placements:
            for i in p.tree_ids:
                t = fplan.trees[i]
                for v in t.vertices:
                    if t.children(v):
                        recount[v] = recount.get(v, 0) + 1
        assert recount == fplan.switch_load

    @settings(max_examples=25, deadline=None)
    @given(
        mix=tenant_mixes(max_tenants=3),
        mode=placement_modes(),
        slots=st.integers(min_value=1, max_value=6),
    )
    def test_switch_slots_never_exceeded(self, mix, mode, slots):
        jobs = materialize_jobs(mix, NUM_TREES, mode)
        try:
            fplan = place_jobs(Q, jobs, mode=mode, switch_slots=slots)
        except AdmissionError:
            return  # correctly rejected
        assert all(v <= slots for v in fplan.switch_load.values())

    @settings(max_examples=25, deadline=None)
    @given(
        mix=tenant_mixes(max_tenants=3),
        budget=st.integers(min_value=1, max_value=4),
    )
    def test_link_budget_never_exceeded(self, mix, budget):
        jobs = materialize_jobs(mix, NUM_TREES, "shared")
        try:
            fplan = place_jobs(Q, jobs, link_budget=budget)
        except AdmissionError:
            return
        assert all(v <= budget for v in fplan.link_load.values())

    @pytest.mark.parametrize("field,bad", [
        ("tenant", "a"), ("arrival", 1.5), ("m", 5.0), ("tree_count", 1.5),
    ])
    def test_job_fields_are_exact_ints(self, field, bad):
        # 1.5 must not run as a fractional arrival (global cycle 12.5)
        spec = dict(tenant=0, arrival=0, m=5, tree_count=1)
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            TenantJob(**dict(spec, **{field: bad}))
        job = TenantJob(**{k: np.int64(v) for k, v in spec.items()})
        assert job == TenantJob(**spec)
        assert all(type(getattr(job, k)) is int for k in spec)

    def test_oversubscribed_tree_count_rejected(self):
        jobs = [TenantJob(tenant=0, arrival=0, m=4, tree_count=NUM_TREES + 1)]
        with pytest.raises(AdmissionError):
            place_jobs(Q, jobs)


class TestDeterminism:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds(), k=st.integers(min_value=1, max_value=6))
    def test_fixed_seed_arrival_determinism(self, seed, k):
        a = poisson_jobs(k, rng=np.random.default_rng(seed))
        b = poisson_jobs(k, rng=np.random.default_rng(seed))
        assert a == b
        assert all(x.arrival <= y.arrival for x, y in zip(a, a[1:]))

    @settings(max_examples=10, deadline=None)
    @given(
        mix=tenant_mixes(max_tenants=3, max_m=8, max_arrival=8),
        policy=arbitration_policies(),
    )
    def test_fabric_run_is_deterministic(self, mix, policy):
        _, sim_a = _fabric(mix, "shared", policy)
        _, sim_b = _fabric(mix, "shared", policy)
        assert pickle.dumps(sim_a.run()) == pickle.dumps(sim_b.run())


class TestWorkConservation:
    @settings(max_examples=20, deadline=None)
    @given(
        mix=tenant_mixes(max_tenants=3, max_m=10, max_arrival=8),
        policy=arbitration_policies(subset=("fair-share", "strict-priority")),
    )
    def test_no_idle_shared_channel_with_pending_demand(self, mix, policy):
        """Under the work-conserving policies, a shared channel where any
        running tenant holds an eligible flit must grant that cycle."""
        _, sim = _fabric(mix, "shared", policy, record_trace=True)
        sim.run()
        for row in sim.trace:
            moved = row.get("moved", {})
            for ch, info in row["channels"].items():
                if not any(d > 0 for d in info["demand"].values()):
                    continue
                winner = info["winner"]
                assert winner is not None, (row["cycle"], ch)
                assert moved.get(winner, {}).get(ch, 0) > 0, (
                    row["cycle"],
                    ch,
                    info,
                )


def _oracle_winner(policy, cycle, sharers, cands, rr, ch):
    """The per-channel arbiter, read literally off the policy rules."""
    if policy == "isolated-slice":
        # static slots over all placed sharers, demand or not
        return sharers[cycle % len(sharers)]
    if not cands:
        return None
    if policy == "strict-priority":
        return min(cands)
    # fair-share: next candidate at or after the rotating pointer
    ptr = rr[ch]
    k = len(sharers)
    for i in range(k):
        s = sharers[(ptr + i) % k]
        if s in cands:
            rr[ch] = (sharers.index(s) + 1) % k
            return s
    return None


def _replay_arbiter(sim, stats):
    """Replay every trace row through :func:`_oracle_winner`, carrying the
    fair-share pointers across cycles.  Returns why each isolated-slice
    grant went to a slot owner that was not running: ``"waiting"`` (not
    arrived yet) or ``"done"`` (completed or stalled)."""
    arrival = {o.tenant: o.arrival for o in stats.outcomes}
    rr = dict.fromkeys(sim.shared, 0)
    recount = dict.fromkeys(arrival, 0)
    idle_owners = set()
    for row in sim.trace:
        cycle, running = row["cycle"], set(row["moved"])
        blocked = set()
        for ch, sharers in sim.shared.items():
            info = row["channels"].get(ch)
            if info is None:
                # only a row without candidates skips arbitration: no
                # running sharer had demand, so none moved a flit on it
                assert sim.policy != "isolated-slice", (cycle, ch)
                assert all(
                    row["moved"][tid].get(ch, 0) == 0
                    for tid in sharers
                    if tid in running
                ), (cycle, ch)
                continue
            demand = info["demand"]
            assert list(demand) == [t for t in sharers if t in running]
            cands = [t for t in sharers if demand.get(t, 0) > 0]
            winner = _oracle_winner(sim.policy, cycle, sharers, cands, rr, ch)
            assert winner is not None, (cycle, ch)
            assert info["winner"] == winner, (cycle, ch, info)
            if winner not in running:
                idle_owners.add("waiting" if cycle <= arrival[winner] else "done")
            blocked.update(t for t in cands if t != winner)
        for tid in blocked:
            recount[tid] += 1
    for o in stats.outcomes:
        assert o.blocked_cycles == recount[o.tenant], o.tenant
    return idle_owners


class TestArbiterOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        mix=tenant_mixes(max_tenants=4, max_m=10, max_arrival=12),
        mode=placement_modes(),
        policy=arbitration_policies(),
        capacity=st.integers(min_value=1, max_value=2),
    )
    def test_trace_replays_through_the_per_channel_rules(
        self, mix, mode, policy, capacity
    ):
        _, sim = _fabric(mix, mode, policy, capacity=capacity, record_trace=True)
        _replay_arbiter(sim, sim.run())

    def test_isolated_slice_grants_slots_of_absent_owners(self):
        """Tenant 1 arrives after tenant 0 and outlives it, so its slot is
        granted while it has not arrived and tenant 0's slot once tenant 0
        has finished — the slices never move to a running tenant."""
        mix = ((0, 4, 3), (9, 16, 3))
        _, sim = _fabric(mix, "shared", "isolated-slice", record_trace=True)
        stats = sim.run()
        assert all(o.status == "completed" for o in stats.outcomes)
        assert _replay_arbiter(sim, stats) == {"waiting", "done"}


class TestAnalysisAndCli:
    """Deterministic smoke coverage for the E-A17 analysis layer, the
    telemetry counters, the sweep-task registration, and the CLI."""

    def test_tenancy_row_shape_and_determinism(self):
        from repro.analysis import tenancy_row

        kwargs = dict(k=2, seed=1, mean_interarrival=4.0, mean_m=8.0)
        row = tenancy_row(Q, **kwargs)
        assert row["q"] == Q and row["k"] == 2
        assert len(row["tenants"]) == 2
        assert row["completed"] + row["stalled"] == 2
        for t in row["tenants"]:
            if t["status"] == "completed":
                assert t["slowdown"] >= 1.0
        assert row == tenancy_row(Q, **kwargs)

    def test_fairness_data_and_render(self):
        from repro.analysis import fairness_data, render_fairness
        from repro.tenancy import POLICIES

        rows = fairness_data(
            Q, k=2, seed=2, mean_interarrival=4.0, mean_m=8.0
        )
        assert [r["policy"] for r in rows] == list(POLICIES)
        text = render_fairness(rows)
        for policy in POLICIES:
            assert policy in text

    def test_ablation_and_render(self):
        from repro.analysis import render_tenancy_ablation, tenancy_ablation
        from repro.tenancy import PLACEMENT_MODES

        rows = tenancy_ablation(
            Q, k=2, seed=0, mean_interarrival=4.0, mean_m=8.0
        )
        assert {r["mode"] for r in rows} == set(PLACEMENT_MODES)
        # partitioned placement of an edge-disjoint scheme is contention
        # free: every completed tenant runs at solo speed
        for r in rows:
            if r["mode"] == "partitioned" and r["completed"]:
                assert r["max_slowdown"] == 1.0
        text = render_tenancy_ablation(rows)
        assert "partitioned" in text and "shared" in text

    def test_sweep_task_registered(self):
        from repro.sweep.tasks import resolve

        fn = resolve("tenancy_row")
        row = fn(Q, k=1, seed=0, mean_m=6.0)
        assert row["k"] == 1 and row["tenants"][0]["slowdown"] == 1.0

    def test_telemetry_counters(self):
        from repro.telemetry import TenantCounters, fabric_counters

        mix = ((0, 6, 2), (1, 4, 1))
        _, sim = _fabric(mix, "shared", "fair-share")
        stats = sim.run()
        counters = fabric_counters(stats)
        assert len(counters) == len(stats.outcomes)
        for c, o in zip(counters, stats.outcomes):
            assert isinstance(c, TenantCounters)
            assert c.tenant == o.tenant
            rec = c.to_record()
            assert rec["t"] == "tenant" and rec["status"] == o.status

    def test_cli_tenants(self, capsys):
        from repro.cli import main

        args = ["tenants", str(Q), "-k", "2", "--seed", "1",
                "--mean-interarrival", "4", "--mean-m", "8"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "fair-share" in out and "isolated-slice" in out

    def test_cli_tenants_ablate_and_policy(self, capsys):
        from repro.cli import main

        args = ["tenants", str(Q), "-k", "2", "--seed", "1",
                "--mean-interarrival", "4", "--mean-m", "8",
                "--policy", "fair-share", "--engine", "reference",
                "--ablate"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "congestion vs isolation" in out


class TestFairShareBound:
    @settings(max_examples=15, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=3),
        m=st.integers(min_value=2, max_value=12),
    )
    def test_fair_share_slowdown_bounded_by_k(self, k, m):
        """K identical tenants arriving together each finish within ~K
        times their solo run (round-robin gives each at least a 1/K
        channel share whenever it has demand)."""
        jobs = [
            TenantJob(tenant=t, arrival=0, m=m, tree_count=NUM_TREES)
            for t in range(k)
        ]
        fplan = place_jobs(Q, jobs, mode="shared")
        from repro.simulator import make_engine

        p0 = fplan.placements[0]
        solo = make_engine(
            "fast",
            fplan.topology,
            [fplan.trees[i] for i in p0.tree_ids],
            list(p0.flits),
            1,
            2,
        ).run()
        stats = FabricSimulator(fplan, 1, 2, policy="fair-share").run()
        for outcome in stats.outcomes:
            assert outcome.status == "completed"
            assert outcome.local_cycles <= k * solo.cycles + k
