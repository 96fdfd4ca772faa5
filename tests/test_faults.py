"""Tests for link-failure handling (degraded/repaired plans)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_plan
from repro.core.faults import (
    affected_trees,
    degraded_plan,
    remove_links,
    repaired_plan,
)
from repro.simulator import execute_plan, verify_plan
from repro.topology.graph import Graph, canonical_edge

from tests.strategies import PLANS, plan_keys, plan_used_links


def pick_tree_edge(plan, tree_index=0):
    return sorted(plan.trees[tree_index].edges)[0]


class TestAffectedTrees:
    def test_edge_disjoint_loses_at_most_one(self):
        plan = build_plan(5, "edge-disjoint")
        for t in plan.trees:
            for e in sorted(t.edges)[:3]:
                assert len(affected_trees(plan.trees, [e])) == 1

    def test_low_depth_loses_at_most_two(self):
        # Theorem 7.6: congestion <= 2
        plan = build_plan(5, "low-depth")
        for e in sorted(plan.topology.edges):
            assert len(affected_trees(plan.trees, [e])) <= 2

    def test_unused_link_affects_nothing(self):
        plan = build_plan(4, "edge-disjoint")  # q=4 leaves one color unused
        used = set()
        for t in plan.trees:
            used |= t.edges
        unused = sorted(set(plan.topology.edges) - used)
        assert unused
        assert affected_trees(plan.trees, [unused[0]]) == []


class TestRemoveLinks:
    def test_removal(self):
        plan = build_plan(3, "single")
        e = pick_tree_edge(plan)
        g = remove_links(plan.topology, [e])
        assert not g.has_edge(*e)
        assert g.num_edges == plan.topology.num_edges - 1
        assert g.self_loops == plan.topology.self_loops

    def test_invalid_link(self):
        plan = build_plan(3, "single")
        with pytest.raises(ValueError):
            remove_links(plan.topology, [(0, 0)])
        non_edge = next(
            (u, v)
            for u in range(plan.num_nodes)
            for v in range(u + 1, plan.num_nodes)
            if not plan.topology.has_edge(u, v)
        )
        with pytest.raises(ValueError):
            remove_links(plan.topology, [non_edge])

    def test_rejects_duplicate_entries(self):
        # listing a link twice is a caller bug (e.g. double-counting the
        # Theorem 7.6 bound), not a request to remove it once
        plan = build_plan(3, "single")
        u, v = pick_tree_edge(plan)
        with pytest.raises(ValueError, match="duplicate"):
            remove_links(plan.topology, [(u, v), (u, v)])
        # the swapped spelling is the same physical link
        with pytest.raises(ValueError, match="duplicate"):
            remove_links(plan.topology, [(u, v), (v, u)])

    def test_self_loops_preserved_regression(self):
        # PolarFly quadrics carry self-loops; removing a link must not
        # drop them (they are the per-node injection ports, not links)
        plan = build_plan(5, "low-depth")
        assert plan.topology.self_loops  # the regression's precondition
        g = remove_links(plan.topology, [pick_tree_edge(plan)])
        assert g.self_loops == plan.topology.self_loops

    @pytest.mark.parametrize("q", [3, 7])
    def test_residual_equals_edge_by_edge_build(self, q):
        # the residual must equal the graph built one add_edge per
        # surviving link, down to its pickle, and leave the source untouched
        topo = build_plan(q, "low-depth").topology
        before = {v: topo.neighbors(v) for v in range(topo.n)}
        links = sorted(topo.edges)
        for failed in (links[:1], links[::7], [(v, u) for u, v in links[3:9]]):
            g = remove_links(topo, failed)
            bad = {canonical_edge(*e) for e in failed}
            want = Graph(topo.n)
            for e in topo.edges:
                if e not in bad:
                    want.add_edge(*e)
            for v in topo.self_loops:
                want.add_self_loop(v)
            assert g.edges == want.edges
            assert g.self_loops == want.self_loops
            assert all(g.neighbors(v) == want.neighbors(v) for v in range(topo.n))
            assert g.num_edges == want.num_edges
            assert pickle.dumps(g) == pickle.dumps(want)
        assert {v: topo.neighbors(v) for v in range(topo.n)} == before
        assert topo.num_edges == len(links)


class TestDegradedPlan:
    @pytest.mark.parametrize("scheme", ["low-depth", "edge-disjoint"])
    def test_survivors_still_correct(self, scheme):
        plan = build_plan(5, scheme)
        e = pick_tree_edge(plan)
        deg = degraded_plan(plan, [e])
        assert deg.num_trees < plan.num_trees
        assert verify_plan(deg)
        # no surviving tree uses the failed link
        for t in deg.trees:
            assert e not in t.edges

    def test_bandwidth_shrinks_but_positive(self):
        plan = build_plan(7, "edge-disjoint")
        e = pick_tree_edge(plan)
        deg = degraded_plan(plan, [e])
        assert 0 < deg.aggregate_bandwidth < plan.aggregate_bandwidth

    def test_single_tree_cannot_degrade(self):
        plan = build_plan(3, "single")
        e = pick_tree_edge(plan)
        with pytest.raises(ValueError):
            degraded_plan(plan, [e])

    def test_multiple_failures(self):
        plan = build_plan(7, "edge-disjoint")
        edges = [pick_tree_edge(plan, 0), pick_tree_edge(plan, 1)]
        deg = degraded_plan(plan, edges)
        assert deg.num_trees == plan.num_trees - 2
        assert verify_plan(deg)


class TestRepairedPlan:
    @pytest.mark.parametrize("scheme", ["low-depth", "edge-disjoint", "single"])
    def test_tree_count_restored(self, scheme):
        plan = build_plan(5, scheme)
        e = pick_tree_edge(plan)
        rep = repaired_plan(plan, [e])
        assert rep.num_trees == plan.num_trees
        assert verify_plan(rep)
        for t in rep.trees:
            assert e not in t.edges

    def test_roots_preserved(self):
        plan = build_plan(5, "low-depth")
        e = pick_tree_edge(plan, 2)
        rep = repaired_plan(plan, [e])
        assert sorted(t.root for t in rep.trees) == sorted(t.root for t in plan.trees)

    def test_bandwidth_at_least_degraded(self):
        plan = build_plan(7, "low-depth")
        e = pick_tree_edge(plan)
        rep = repaired_plan(plan, [e])
        deg = degraded_plan(plan, [e])
        assert rep.aggregate_bandwidth >= deg.aggregate_bandwidth

    def test_functional_execution_after_repair(self):
        plan = build_plan(5, "edge-disjoint")
        e = pick_tree_edge(plan, 1)
        rep = repaired_plan(plan, [e])
        rng = np.random.default_rng(0)
        x = rng.integers(0, 50, size=(rep.num_nodes, 29))
        out = execute_plan(rep, x)
        assert np.array_equal(out, np.broadcast_to(x.sum(axis=0), out.shape))

    def test_scheme_label(self):
        plan = build_plan(5, "low-depth")
        e = pick_tree_edge(plan)
        assert repaired_plan(plan, [e]).scheme == "low-depth+repaired"
        assert degraded_plan(plan, [e]).scheme == "low-depth+degraded"


# ---------------------------------------------------------------------------
# property-based invariants over the whole (q, scheme) plan zoo


def _pick_links(plan, ranks):
    """Distinct used links selected by (wrapping) ranks — deterministic."""
    links = plan_used_links(plan)
    out = []
    for r in ranks:
        e = links[r % len(links)]
        if e not in out:
            out.append(e)
    return out


class TestFaultProperties:
    @given(
        key=plan_keys(),
        ranks=st.lists(
            st.integers(min_value=0, max_value=63), min_size=1, max_size=3
        ),
        policy=st.sampled_from(["degraded", "repaired"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_recovered_tree_uses_a_failed_link(self, key, ranks, policy):
        plan = PLANS[key]
        failed = _pick_links(plan, ranks)
        rebuild = degraded_plan if policy == "degraded" else repaired_plan
        try:
            new = rebuild(plan, failed)
        except ValueError:
            return  # no survivors / disconnected: rejection is the contract
        bad = set(failed)
        for t in new.trees:
            assert not (t.edges & bad)
        assert verify_plan(new)

    @given(
        key=plan_keys(),
        ranks=st.lists(
            st.integers(min_value=0, max_value=63),
            min_size=2,
            max_size=4,
            unique=True,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_degraded_bandwidth_monotone_under_more_failures(self, key, ranks):
        # adding a failure can only shrink (or keep) the degraded
        # aggregate bandwidth: the survivor set only loses trees
        plan = PLANS[key]
        failed = _pick_links(plan, ranks)
        if len(failed) < 2:
            return
        prefix, full = failed[:-1], failed
        try:
            wide = degraded_plan(plan, prefix)
        except ValueError:
            return
        try:
            narrow = degraded_plan(plan, full)
        except ValueError:
            return  # losing every tree is the extreme of "non-increasing"
        assert narrow.aggregate_bandwidth <= wide.aggregate_bandwidth
        assert narrow.num_trees <= wide.num_trees

    @given(
        key=plan_keys(),
        ranks=st.lists(
            st.integers(min_value=0, max_value=63),
            min_size=1,
            max_size=3,
            unique=True,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_trees_lost_per_link_bounded_by_congestion(self, key, ranks):
        # Theorem 7.6: a failed link kills at most congestion-many trees —
        # exactly <= 1 for the edge-disjoint scheme, <= 2 for Algorithm 3
        plan = PLANS[key]
        failed = _pick_links(plan, ranks)
        lost = len(affected_trees(plan.trees, failed))
        per_link = plan.max_congestion
        if key[1] == "edge-disjoint":
            assert per_link <= 1  # the scheme's defining property
        assert lost <= per_link * len(failed)


# --------------------------------------------------------- fault Monte Carlo


class TestFaultMonteCarlo:
    """The batched ensemble entry point (repro.analysis.montecarlo)."""

    def test_batched_ensemble_bit_identical_to_serial(self):
        # the headline claim: a 1000-lane ensemble at q=7 routed through
        # the batched engine reproduces the serial per-lane results
        # exactly — every lane dict, the stall rate, every quantile
        from repro.analysis import fault_monte_carlo

        kw = dict(q=7, m=8, k=1000, seed=42, transient_fraction=0.5)
        bat = fault_monte_carlo(engine="batched", **kw)
        ser = fault_monte_carlo(engine="fast", **kw)
        assert bat.lanes == ser.lanes
        assert bat.stall_rate == ser.stall_rate
        assert bat.slowdown_quantiles == ser.slowdown_quantiles
        assert bat.mean_slowdown == ser.mean_slowdown
        assert bat.clean_cycles == ser.clean_cycles

    def test_deterministic_under_fixed_seed(self):
        from repro.analysis import fault_monte_carlo

        a = fault_monte_carlo(7, k=64, seed=7)
        b = fault_monte_carlo(7, k=64, seed=7)
        assert a == b
        # chunking is an implementation detail, not part of the ensemble
        c = fault_monte_carlo(7, k=64, seed=7, chunk=5)
        assert c == a
        assert fault_monte_carlo(7, k=64, seed=8) != a

    def test_ensemble_statistics_are_consistent(self):
        from repro.analysis import fault_monte_carlo

        res = fault_monte_carlo(7, k=128, seed=1)
        assert len(res.lanes) == 128
        stalled = [l for l in res.lanes if l["stalled"]]
        assert res.stall_rate == pytest.approx(len(stalled) / 128)
        slows = sorted(l["slowdown"] for l in res.lanes if not l["stalled"])
        assert slows, "seed 1 at q=7 must leave some lanes completing"
        assert res.slowdown_quantiles["max"] == pytest.approx(slows[-1])
        assert all(s >= 1.0 for s in slows)  # faults never speed a run up
        assert res.render()  # human-readable summary renders

    @pytest.mark.parametrize("engine", ["batched", "fast"])
    @pytest.mark.parametrize("m", [1.5, "3"])
    def test_non_integer_m_named_on_both_evaluators(self, engine, m):
        # m reaches the engines' argument check as given: no int() cast
        from repro.analysis import fault_monte_carlo

        with pytest.raises(TypeError, match=r"flits_per_tree\[0\] must be an integer"):
            fault_monte_carlo(3, m=m, k=4, engine=engine)

    def test_input_validation(self):
        from repro.analysis import fault_monte_carlo

        with pytest.raises(ValueError, match="'batched' or 'fast'"):
            fault_monte_carlo(7, k=4, engine="leap")
        with pytest.raises(ValueError, match="k"):
            fault_monte_carlo(7, k=0)
        with pytest.raises(ValueError, match="num_faults"):
            fault_monte_carlo(7, k=4, num_faults=0)

    @pytest.mark.parametrize("field", ["k", "chunk", "num_faults", "seed"])
    def test_non_integer_counts_named(self, field):
        from repro.analysis import fault_monte_carlo

        kw = {"k": 4, field: 1.5}
        with pytest.raises(TypeError, match=f"{field} must be an integer; got 1.5"):
            fault_monte_carlo(3, **kw)

    @pytest.mark.parametrize("field", ["down_window", "outage_window"])
    def test_windows_named(self, field):
        from repro.analysis import fault_monte_carlo

        with pytest.raises(TypeError, match=rf"{field}\[0\] must be an integer"):
            fault_monte_carlo(3, k=4, **{field: (1.5, 3)})
        with pytest.raises(TypeError, match=rf"{field}\[1\] must be an integer"):
            fault_monte_carlo(3, k=4, **{field: (1, "3")})
        with pytest.raises(ValueError, match=f"{field} must have lo <= hi"):
            fault_monte_carlo(3, k=4, **{field: (5, 1)})
        # a one-cycle window is legal
        assert len(fault_monte_carlo(3, k=4, **{field: (3, 3)}).lanes) == 4

    @pytest.mark.parametrize("frac", [-0.1, 1.5, 2])
    def test_transient_fraction_named(self, frac):
        from repro.analysis import fault_monte_carlo

        with pytest.raises(ValueError, match="transient_fraction must be in"):
            fault_monte_carlo(3, k=4, transient_fraction=frac)
