"""Tests for the AllreducePlan public API."""

from fractions import Fraction

import pytest

from repro.core import SCHEMES, build_plan, optimal_bandwidth
from repro.utils.errors import UnsupportedRadixError


class TestBuildPlan:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            build_plan(5, scheme="magic")

    def test_schemes_constant(self):
        assert set(SCHEMES) == {"low-depth", "low-depth-even", "edge-disjoint", "single"}

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
    def test_low_depth_metrics(self, q):
        plan = build_plan(q, "low-depth")
        assert plan.num_trees == q
        assert plan.num_nodes == q * q + q + 1
        assert plan.max_depth <= 3
        assert plan.max_congestion == 2
        assert plan.vcs_required == 2
        assert plan.aggregate_bandwidth == Fraction(q, 2)
        assert plan.normalized_bandwidth == Fraction(q, q + 1)

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
    def test_edge_disjoint_metrics(self, q):
        plan = build_plan(q, "edge-disjoint")
        assert plan.num_trees == (q + 1) // 2
        assert plan.max_congestion == 1
        assert plan.max_depth == (q * q + q) // 2
        assert plan.aggregate_bandwidth == Fraction((q + 1) // 2)
        assert plan.normalized_bandwidth == 1  # optimal for odd q

    @pytest.mark.parametrize("q", [4, 8])
    def test_edge_disjoint_even_q(self, q):
        plan = build_plan(q, "edge-disjoint")
        assert plan.num_trees == (q + 1) // 2
        assert plan.normalized_bandwidth == Fraction(q, q + 1)

    def test_single_metrics(self):
        plan = build_plan(7, "single")
        assert plan.num_trees == 1
        assert plan.max_congestion == 1
        assert plan.max_depth <= 2
        assert plan.aggregate_bandwidth == 1
        assert plan.normalized_bandwidth == Fraction(2, 8)

    def test_low_depth_even_q_rejected(self):
        with pytest.raises(UnsupportedRadixError):
            build_plan(4, "low-depth")

    def test_link_bandwidth_scales(self):
        plan = build_plan(5, "edge-disjoint", link_bandwidth=100)
        assert plan.aggregate_bandwidth == 300
        assert plan.normalized_bandwidth == 1

    def test_custom_starter(self):
        from repro.topology import polarfly_graph

        w = polarfly_graph(5).quadrics[1]
        plan = build_plan(5, "low-depth", starter=w)
        assert plan.aggregate_bandwidth == Fraction(5, 2)


class TestPlanPlanning:
    def test_partition_sums(self):
        plan = build_plan(5, "low-depth")
        for m in (0, 1, 7, 100, 1001):
            parts = plan.partition(m)
            assert sum(parts) == m
            assert len(parts) == plan.num_trees

    def test_partition_uniform_when_bandwidths_equal(self):
        plan = build_plan(5, "low-depth")
        parts = plan.partition(500)
        assert parts == [100] * 5

    def test_estimated_time_streaming_term(self):
        plan = build_plan(5, "edge-disjoint")
        # 3 trees at B=1 -> m/3 each (m divisible by 3), zero latency
        assert plan.estimated_time(300) == 100

    def test_estimated_time_includes_fill(self):
        plan = build_plan(5, "edge-disjoint")
        t0 = plan.estimated_time(300, hop_latency=0)
        t1 = plan.estimated_time(300, hop_latency=1)
        assert t1 == t0 + 2 * plan.max_depth

    def test_low_depth_beats_edge_disjoint_at_small_m(self):
        # the latency/bandwidth trade-off of Section 7.3
        ld = build_plan(11, "low-depth")
        ed = build_plan(11, "edge-disjoint")
        small = 4
        assert ld.estimated_time(small, hop_latency=1) < ed.estimated_time(
            small, hop_latency=1
        )

    def test_edge_disjoint_beats_low_depth_at_large_m(self):
        ld = build_plan(11, "low-depth")
        ed = build_plan(11, "edge-disjoint")
        big = 10**6
        assert ed.estimated_time(big, hop_latency=1) < ld.estimated_time(
            big, hop_latency=1
        )

    def test_multi_tree_beats_single_tree(self):
        single = build_plan(11, "single")
        ld = build_plan(11, "low-depth")
        m = 10**6
        assert ld.estimated_time(m) < single.estimated_time(m)
        # speedup approaches q/2 = 5.5x
        ratio = single.estimated_time(m) / ld.estimated_time(m)
        assert ratio > 5

    def test_repr_smoke(self):
        assert "low-depth" in repr(build_plan(3, "low-depth"))

    def test_subset_bandwidths_are_memoized_and_not_pickled(self):
        import pickle

        from repro.core import tree_bandwidths

        plan = build_plan(7, "low-depth")
        before = pickle.dumps(plan)
        for ids in ((0,), (1, 2), (6, 0, 3), tuple(range(7))):
            bws = plan.subset_bandwidths(ids)
            expect = tree_bandwidths(plan.topology, [plan.trees[i] for i in ids])
            assert bws == tuple(expect)
            assert plan.subset_bandwidths(ids) is bws
        assert plan.subset_bandwidths(tuple(range(7))) == plan.bandwidths
        assert pickle.dumps(plan) == before
        back = pickle.loads(pickle.dumps(plan))
        assert back.subset_bandwidths((1, 2)) == plan.subset_bandwidths((1, 2))


class TestMaxTrees:
    def test_cap_applied(self):
        plan = build_plan(7, "edge-disjoint", max_trees=2)
        assert plan.num_trees == 2
        assert plan.aggregate_bandwidth == 2  # disjoint trees at full B

    def test_cap_larger_than_available_is_noop(self):
        full = build_plan(5, "edge-disjoint")
        capped = build_plan(5, "edge-disjoint", max_trees=100)
        assert capped.num_trees == full.num_trees

    def test_capped_lowdepth_redistributes(self):
        # dropping trees frees congested links: survivors can beat B/2
        capped = build_plan(7, "low-depth", max_trees=1)
        assert capped.num_trees == 1
        assert capped.bandwidths[0] == 1  # lone tree gets full link rate

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            build_plan(5, "edge-disjoint", max_trees=0)

    def test_capped_plan_still_correct(self):
        from repro.simulator import verify_plan

        assert verify_plan(build_plan(5, "low-depth", max_trees=2))


class TestVectorSizeBoundary:
    """The vector size at the partition and re-plan boundary follows the
    engines' ``operator.index`` rule: NumPy integers become exact Python
    ints, floats and strings raise a TypeError naming the argument."""

    @pytest.fixture(scope="class")
    def plan(self):
        return build_plan(3, "low-depth")

    @pytest.mark.parametrize("bad", [8.0, 7.9, "8"])
    def test_partition_names_non_integer_m(self, plan, bad):
        from repro.core import optimal_partition
        from repro.core.bandwidth import latency_aware_partition

        with pytest.raises(TypeError, match="m must be an integer"):
            plan.partition(bad)
        with pytest.raises(TypeError, match="m must be an integer"):
            optimal_partition(bad, [1, 2, 3])
        with pytest.raises(TypeError, match="m must be an integer"):
            latency_aware_partition(bad, [1, 2], [0, 1])

    def test_numpy_m_is_exact(self, plan):
        import numpy as np

        from repro.core import optimal_partition

        m = 2**62
        parts = optimal_partition(np.int64(m), [1, 2, 3])
        assert parts == optimal_partition(m, [1, 2, 3])
        assert sum(parts) == m and all(type(p) is int and p > 0 for p in parts)
        assert plan.partition(np.int64(8)) == plan.partition(8)

    @pytest.mark.parametrize("runner", ["recovery", "adaptive"])
    @pytest.mark.parametrize("bad", [7.9, "8"])
    def test_runners_name_non_integer_m(self, plan, runner, bad):
        from repro.simulator.adaptive import run_adaptive
        from repro.simulator.recovery import run_with_recovery

        run = run_with_recovery if runner == "recovery" else run_adaptive
        with pytest.raises(TypeError, match="m must be an integer"):
            run(plan, bad)

    @pytest.mark.parametrize("bad", [2.7, 1.5, "3"])
    def test_per_tree_split_is_not_truncated(self, plan, bad):
        from repro.simulator.adaptive import run_adaptive
        from repro.simulator.recovery import run_replan_loop

        split = [2] * plan.num_trees
        split[1] = bad
        with pytest.raises(TypeError, match=r"m_per_tree\[1\] must be an integer"):
            run_replan_loop(plan, split, lambda *a: None, engine="fast")
        with pytest.raises(TypeError, match=r"m_per_tree\[1\] must be an integer"):
            run_adaptive(plan, m_per_tree=split)

    def test_numpy_per_tree_split_runs(self, plan):
        import numpy as np

        from repro.simulator.recovery import run_replan_loop

        split = [2] * plan.num_trees
        res = run_replan_loop(
            plan, np.array(split), lambda *a: None, engine="fast"
        )
        ref = run_replan_loop(plan, split, lambda *a: None, engine="fast")
        assert res.stats == ref.stats
