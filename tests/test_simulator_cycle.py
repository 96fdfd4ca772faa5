"""Tests for the cycle-level flit simulator, incl. validation of Algorithm 1."""

import pickle

import numpy as np
import pytest

from repro.core import build_plan
from repro.simulator import (
    BatchedCycleSimulator,
    CycleLimitExceeded,
    CycleSimulator,
    FaultSchedule,
    LaneSpec,
    SimulationStalled,
    fluid_simulate,
    make_engine,
    run_adaptive,
    run_with_recovery,
    simulate_allreduce,
    trace_allreduce,
)
from repro.tenancy import FabricSimulator, TenantJob, place_jobs, simulate_tenants
from repro.topology import Graph, polarfly_graph
from repro.trees import SpanningTree, single_tree

from tests.strategies import CYCLE_ENGINES, RUN_ENGINES, get_plan, run_engine


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


class TestArgumentCheck:
    """Every engine runs one argument check with named errors: no silent
    truncation, no NumPy or ``range`` errors from deep inside a
    constructor, no int64 wrap-around."""

    @staticmethod
    def _plan():
        plan = get_plan(5, "low-depth")
        return plan.topology, plan.trees

    @pytest.mark.parametrize("engine", RUN_ENGINES)
    @pytest.mark.parametrize("bad", [1.5, "3"])
    def test_non_integer_flits_rejected(self, engine, bad):
        g, trees = self._plan()
        m = [bad] + [2] * (len(trees) - 1)
        with pytest.raises(TypeError, match=r"flits_per_tree\[0\] must be an integer"):
            run_engine(engine, g, trees, m)

    @pytest.mark.parametrize("engine", RUN_ENGINES)
    def test_non_integer_capacity_rejected(self, engine):
        g, trees = self._plan()
        with pytest.raises(TypeError, match="link_capacity must be an integer"):
            run_engine(engine, g, trees, [2] * len(trees), link_capacity=1.5)

    @pytest.mark.parametrize("engine", RUN_ENGINES)
    def test_non_integer_buffer_rejected(self, engine):
        g, trees = self._plan()
        with pytest.raises(TypeError, match="buffer_size must be an integer"):
            run_engine(engine, g, trees, [2] * len(trees), buffer_size=1.5)

    @pytest.mark.parametrize("engine", RUN_ENGINES)
    @pytest.mark.parametrize("bad", [2.5, "7"])
    def test_non_integer_max_cycles_rejected(self, engine, bad):
        g, trees = self._plan()
        with pytest.raises(TypeError, match="max_cycles must be an integer"):
            run_engine(engine, g, trees, [2] * len(trees), max_cycles=bad)

    @pytest.mark.parametrize("engine", RUN_ENGINES)
    def test_negative_max_cycles_rejected(self, engine):
        g, trees = self._plan()
        with pytest.raises(ValueError, match="max_cycles must be >= 0; got -1"):
            run_engine(engine, g, trees, [2] * len(trees), max_cycles=-1)

    def test_run_budgets_named_on_every_front_end(self):
        plan = get_plan(5, "low-depth")
        g, trees, flits = plan.topology, plan.trees, plan.partition(40)
        job = TenantJob(tenant=0, arrival=0, m=40, tree_count=plan.num_trees)
        fplan = place_jobs(5, [job])
        runs = {
            "simulate_allreduce": lambda mc: simulate_allreduce(
                g, trees, flits, max_cycles=mc, engine="fast"
            ),
            "trace_allreduce": lambda mc: trace_allreduce(
                g, trees, flits, max_cycles=mc, engine="leap"
            ),
            "run_with_recovery": lambda mc: run_with_recovery(
                plan, 40, max_cycles=mc
            ),
            "run_adaptive": lambda mc: run_adaptive(plan, 40, max_cycles=mc),
            "FabricSimulator.run": lambda mc: FabricSimulator(fplan).run(mc),
            "simulate_tenants": lambda mc: simulate_tenants(fplan, max_cycles=mc),
        }
        for name, run in runs.items():
            for bad in (2.5, "7"):
                with pytest.raises(TypeError, match="max_cycles must be an integer"):
                    run(bad)
            with pytest.raises(ValueError, match="max_cycles must be >= 0"):
                run(-1)
            run(10_000)  # a whole budget still runs
        for bad in (1.5, "2"):
            with pytest.raises(TypeError, match="max_episodes must be an integer"):
                run_with_recovery(plan, 10, max_episodes=bad)

    @pytest.mark.parametrize("engine", RUN_ENGINES)
    @pytest.mark.parametrize("bad", ["str", "event-list"])
    def test_non_schedule_faults_rejected(self, engine, bad):
        g, trees = self._plan()
        bad = "x" if bad == "str" else [(sorted(trees[0].edges)[0], 3)]
        message = f"faults must be a FaultSchedule or None; got {type(bad).__name__}"
        with pytest.raises(TypeError, match=message):
            run_engine(engine, g, trees, [2] * len(trees), faults=bad)

    @pytest.mark.parametrize(
        "faults,message",
        [
            ("value", r"faults\[0\] must be a FaultSchedule or None; got list"),
            ("schedule", "faults must be a mapping of tenant id -> "
                         "FaultSchedule; got FaultSchedule"),
        ],
        ids=["value", "schedule"],
    )
    def test_fabric_non_schedule_faults_rejected(self, faults, message):
        fplan = place_jobs(5, [TenantJob(tenant=0, arrival=0, m=8, tree_count=2)])
        edge = sorted(fplan.trees[0].edges)[0]
        if faults == "value":
            faults = {0: [(edge, 3, None)]}
        else:
            faults = FaultSchedule.single(edge, 3)
        with pytest.raises(TypeError, match=message):
            FabricSimulator(fplan, faults=faults)

    @pytest.mark.parametrize("engine", RUN_ENGINES)
    def test_empty_schedule_is_no_faults(self, engine):
        g, trees = self._plan()
        m = [3] * len(trees)
        plain = run_engine(engine, g, trees, m)
        empty = run_engine(engine, g, trees, m, faults=FaultSchedule([]))
        assert pickle.dumps(empty) == pickle.dumps(plain)

    @pytest.mark.parametrize("engine", RUN_ENGINES)
    def test_numpy_integers_pass(self, engine):
        g, trees = self._plan()
        m = [3] * len(trees)
        plain = run_engine(engine, g, trees, m, 2, 3)
        numpy = run_engine(
            engine, g, trees, np.asarray(m, dtype=np.int64), np.int64(2), np.int32(3)
        )
        assert pickle.dumps(numpy) == pickle.dumps(plain)

    @pytest.mark.parametrize("engine", RUN_ENGINES)
    @pytest.mark.parametrize("m", [1 << 57, 1 << 58])
    def test_int64_flit_overflow_rejected(self, engine, m):
        g, trees = self._plan()
        limit = "at most 153722867280912930"  # (2**63 - 1) // (2 * 30)
        with pytest.raises(ValueError, match=f"int64 headroom: .* {limit}"):
            run_engine(engine, g, trees, [m] * len(trees))

    def test_leap_at_the_int64_limit_counts_every_flit(self):
        g, trees = self._plan()
        hops = 2 * (g.n - 1)
        m = [((1 << 63) - 1) // hops // len(trees)] * len(trees)
        stats = make_engine("leap", g, trees, m).run()
        assert stats.flits_moved == hops * sum(m)
        assert stats.cycles > max(m)

    def test_delivered_floor_past_2_30_flits(self):
        # a tree that completed delivered all m_i flits to every node, also
        # when m_i exceeds the old 2**30 root pin of the broadcast plane
        plan = get_plan(3, "low-depth")
        T = len(plan.trees)
        link = sorted(plan.trees[0].edges)[0]
        faults = FaultSchedule([(link, 3 << 30)])  # permanent, mid-run
        sim = make_engine(
            "leap", plan.topology, plan.trees, [1 << 32] * T, faults=faults
        )
        with pytest.raises(SimulationStalled):
            sim.run()
        done = np.flatnonzero(sim.done_mask()).tolist()
        assert done
        floor = sim.delivered_floor()
        assert all(floor[i] == 1 << 32 for i in done)
        assert all(floor[i] > 1 << 30 for i in range(T))


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
