"""Tests for the cycle-level flit simulator, incl. validation of Algorithm 1."""

import pytest

from repro.core import build_plan
from repro.simulator import (
    BatchedCycleSimulator,
    CycleLimitExceeded,
    CycleSimulator,
    LaneSpec,
    fluid_simulate,
    make_engine,
    simulate_allreduce,
)
from repro.tenancy import FabricSimulator, TenantJob, place_jobs
from repro.topology import Graph, polarfly_graph
from repro.trees import SpanningTree, single_tree

from tests.strategies import CYCLE_ENGINES


class TestMechanics:
    def test_single_edge_tree(self):
        g = Graph.from_edges(2, [(0, 1)])
        t = SpanningTree(0, {1: 0})
        stats = simulate_allreduce(g, [t], [5])
        # reduce: 1 fill + 5 flits; broadcast overlaps: flit k back at leaf
        # two hops after it is sent; completion = m + 2 * depth
        assert stats.cycles == 5 + 2 * t.depth
        assert stats.flits_moved == 10  # 5 up + 5 down

    def test_default_run_walks_its_own_counters(self):
        # the reference engine is the oracle: a default-argument run must
        # step its own per-flow and per-channel counters, never hand the
        # run to another engine
        plan = build_plan(5, "low-depth")
        sim = CycleSimulator(plan.topology, plan.trees, plan.partition(40))
        stats = sim.run()
        assert stats.flits_moved > 0
        assert sum(fl.sent for fl in sim.flows) == stats.flits_moved
        assert sum(sim.channel_flits.values()) == stats.flits_moved

    def test_star_tree_parallel_links(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        t = SpanningTree(0, {1: 0, 2: 0, 3: 0})
        stats = simulate_allreduce(g, [t], [8])
        assert stats.cycles == 8 + 2  # links are independent, depth 1

    def test_chain_pipeline_fill(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        t = SpanningTree(0, {1: 0, 2: 1, 3: 2})  # depth 3 path
        stats = simulate_allreduce(g, [t], [10])
        assert stats.cycles == 10 + 2 * 3

    def test_zero_flits_complete_immediately(self):
        g = Graph.from_edges(2, [(0, 1)])
        t = SpanningTree(0, {1: 0})
        stats = simulate_allreduce(g, [t], [0])
        assert stats.cycles == 0

    def test_capacity_speeds_up(self):
        g = Graph.from_edges(2, [(0, 1)])
        t = SpanningTree(0, {1: 0})
        slow = simulate_allreduce(g, [t], [20], link_capacity=1)
        fast = simulate_allreduce(g, [t], [20], link_capacity=4)
        assert fast.cycles < slow.cycles
        assert fast.cycles == 20 // 4 + 2

    def test_two_trees_share_link(self):
        # both trees use edge (0,1) in the same reduce direction -> B/2 each
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        t1 = SpanningTree(0, {1: 0, 2: 1})
        t2 = SpanningTree(0, {1: 0, 2: 0})
        m = 30
        stats = simulate_allreduce(g, [t1, t2], [m, m])
        # shared direction 1->0 carries both reduce streams: 2m flits at 1/cycle
        assert stats.cycles >= 2 * m
        assert stats.cycles <= 2 * m + 8

    def test_stats_accessors(self):
        g = Graph.from_edges(2, [(0, 1)])
        t = SpanningTree(0, {1: 0})
        stats = simulate_allreduce(g, [t], [10])
        assert stats.tree_bandwidth(0) == pytest.approx(10 / stats.cycles)
        assert stats.aggregate_bandwidth == pytest.approx(10 / stats.cycles)

    def test_channel_utilization(self):
        g = Graph.from_edges(2, [(0, 1)])
        t = SpanningTree(0, {1: 0})
        m = 50
        stats = simulate_allreduce(g, [t], [m])
        # each direction moves m flits over m + 2 cycles
        assert stats.max_channel_utilization == pytest.approx(m / (m + 2))
        assert stats.mean_channel_utilization == pytest.approx(m / (m + 2))
        assert 0 < stats.mean_channel_utilization <= stats.max_channel_utilization <= 1

    def test_utilization_higher_on_congested_scheme(self):
        ld = build_plan(5, "low-depth")
        ed = build_plan(5, "edge-disjoint")
        m = 600
        s_ld = simulate_allreduce(ld.topology, ld.trees, ld.partition(m))
        s_ed = simulate_allreduce(ed.topology, ed.trees, ed.partition(m))
        assert 0 < s_ld.max_channel_utilization <= 1
        assert 0 < s_ed.max_channel_utilization <= 1

    def test_input_validation(self):
        g = Graph.from_edges(2, [(0, 1)])
        t = SpanningTree(0, {1: 0})
        with pytest.raises(ValueError):
            CycleSimulator(g, [t], [1, 2])
        with pytest.raises(ValueError):
            CycleSimulator(g, [t], [-1])
        with pytest.raises(ValueError):
            CycleSimulator(g, [t], [1], link_capacity=0)

    def test_max_cycles_guard(self):
        g = Graph.from_edges(2, [(0, 1)])
        t = SpanningTree(0, {1: 0})
        with pytest.raises(RuntimeError):
            simulate_allreduce(g, [t], [100], max_cycles=3)

    def test_cycle_guard_is_one_typed_error(self):
        # every engine, a batched lane and a K=1 fabric stop at the same
        # cycle with the same CycleLimitExceeded
        plan = build_plan(3, "low-depth")
        flits = plan.partition(60)
        n = 7
        msg = f"simulation exceeded {n} cycles"
        for engine in CYCLE_ENGINES:
            sim = make_engine(engine, plan.topology, plan.trees, flits)
            with pytest.raises(CycleLimitExceeded) as exc:
                sim.run(max_cycles=n)
            assert (str(exc.value), sim.cycle) == (msg, n + 1), engine
        (out,) = BatchedCycleSimulator(
            plan.topology, plan.trees, lanes=[LaneSpec(flits)]
        ).run_batch(max_cycles=n)
        with pytest.raises(CycleLimitExceeded) as exc:
            out.result()
        assert str(exc.value) == msg
        job = TenantJob(tenant=0, arrival=0, m=60, tree_count=plan.num_trees)
        fabric = FabricSimulator(place_jobs(3, [job]))
        with pytest.raises(CycleLimitExceeded) as exc:
            fabric.run(max_cycles=n)
        # the fabric guards its global clock, so the message names it
        assert (str(exc.value), fabric.cycle) == (f"fabric exceeded {n} cycles", n + 1)


class TestModelValidation:
    """The measured behavior must match Algorithm 1 + the fluid model."""

    @pytest.mark.parametrize("scheme,q", [
        ("single", 5),
        ("low-depth", 5),
        ("low-depth", 7),
        ("edge-disjoint", 5),
    ])
    def test_completion_matches_fluid_model(self, scheme, q):
        plan = build_plan(q, scheme)
        m = 240
        parts = plan.partition(m)
        stats = simulate_allreduce(plan.topology, plan.trees, parts)
        fluid = fluid_simulate(plan.topology, plan.trees, m, hop_latency=1)
        # measured completion within 10% of the analytic 2*depth + m_i/B_i
        assert stats.cycles <= float(fluid.makespan) * 1.02 + 2
        assert stats.cycles >= float(fluid.makespan) * 0.85

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_lowdepth_steady_state_bandwidth(self, q):
        plan = build_plan(q, "low-depth")
        m = 60 * plan.num_trees
        parts = plan.partition(m)
        stats = simulate_allreduce(plan.topology, plan.trees, parts)
        measured = stats.aggregate_bandwidth
        predicted = float(plan.aggregate_bandwidth)
        assert measured >= 0.85 * predicted
        assert measured <= predicted * 1.02  # cannot beat the bound

    def test_edge_disjoint_full_link_rate(self):
        # with no congestion, each tree must stream at B once filled
        plan = build_plan(5, "edge-disjoint")
        m = 3000  # >> 2*depth = 30 so fill is amortized
        parts = plan.partition(m)
        stats = simulate_allreduce(plan.topology, plan.trees, parts)
        predicted = float(plan.aggregate_bandwidth)
        assert stats.aggregate_bandwidth >= 0.95 * predicted

    def test_single_tree_exact(self):
        plan = build_plan(5, "single")
        m = 100
        stats = simulate_allreduce(plan.topology, plan.trees, [m])
        t = plan.trees[0]
        assert stats.cycles == m + 2 * t.depth

    def test_multi_tree_beats_single_in_simulation(self):
        q, m = 5, 300
        single = build_plan(q, "single")
        ld = build_plan(q, "low-depth")
        s_stats = simulate_allreduce(single.topology, single.trees, [m])
        l_stats = simulate_allreduce(ld.topology, ld.trees, ld.partition(m))
        # low-depth aggregate q/2 = 2.5x the single-tree bandwidth
        assert l_stats.cycles < s_stats.cycles / 2

    def test_congestion_free_beats_congested_at_scale(self):
        q = 5
        m = 4000
        ld = build_plan(q, "low-depth")
        ed = build_plan(q, "edge-disjoint")
        l_stats = simulate_allreduce(ld.topology, ld.trees, ld.partition(m))
        e_stats = simulate_allreduce(ed.topology, ed.trees, ed.partition(m))
        assert e_stats.cycles < l_stats.cycles


class TestFluidModel:
    def test_rates_are_algorithm1(self):
        plan = build_plan(5, "low-depth")
        fluid = fluid_simulate(plan.topology, plan.trees, 100)
        assert fluid.rates == plan.bandwidths

    def test_partition_default_is_optimal(self):
        plan = build_plan(5, "low-depth")
        fluid = fluid_simulate(plan.topology, plan.trees, 100)
        assert list(fluid.partition) == plan.partition(100)

    def test_makespan_formula(self):
        plan = build_plan(5, "edge-disjoint")
        fluid = fluid_simulate(plan.topology, plan.trees, 300, hop_latency=1)
        depth = plan.max_depth
        assert fluid.makespan == 2 * depth + 100  # 300/3 trees at B=1

    def test_custom_partition(self):
        plan = build_plan(5, "edge-disjoint")
        fluid = fluid_simulate(plan.topology, plan.trees, 300, partition=[300, 0, 0])
        assert fluid.completion[0] > fluid.completion[1]

    def test_partition_mismatch(self):
        plan = build_plan(5, "edge-disjoint")
        with pytest.raises(ValueError):
            fluid_simulate(plan.topology, plan.trees, 10, partition=[10])

    def test_aggregate_bandwidth_property(self):
        plan = build_plan(5, "edge-disjoint")
        fluid = fluid_simulate(plan.topology, plan.trees, 3000, hop_latency=0)
        assert fluid.aggregate_bandwidth == plan.aggregate_bandwidth
