"""Tests for credit-based flow control in the cycle simulator (Section 4.4)."""

import pytest

from repro.core import build_plan
from repro.simulator import CycleSimulator, simulate_allreduce
from repro.topology import Graph
from repro.trees import SpanningTree


def chain(n):
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    t = SpanningTree(0, {i: i - 1 for i in range(1, n)})
    return g, t


class TestCreditSemantics:
    def test_buffer_one_halves_throughput(self):
        g, t = chain(2)
        m = 40
        b1 = simulate_allreduce(g, [t], [m], buffer_size=1)
        binf = simulate_allreduce(g, [t], [m])
        # credit loop is 2 cycles: one flit every other cycle
        assert b1.cycles >= 2 * m - 2
        assert binf.cycles == m + 2

    def test_latency_bandwidth_product_suffices(self):
        # buffer = 2 * capacity restores full throughput
        g, t = chain(4)
        m = 60
        full = simulate_allreduce(g, [t], [m])
        lbp = simulate_allreduce(g, [t], [m], buffer_size=2)
        assert lbp.cycles == full.cycles

    @pytest.mark.parametrize("cap", [1, 2, 4])
    def test_scaled_capacity_needs_scaled_buffer(self, cap):
        g, t = chain(3)
        m = 96
        full = simulate_allreduce(g, [t], [m], link_capacity=cap)
        ok = simulate_allreduce(g, [t], [m], link_capacity=cap, buffer_size=2 * cap)
        small = simulate_allreduce(g, [t], [m], link_capacity=cap, buffer_size=cap)
        assert ok.cycles == full.cycles
        assert small.cycles > full.cycles

    def test_monotone_in_buffer_size(self):
        plan = build_plan(5, "low-depth")
        m = 200
        parts = plan.partition(m)
        cycles = [
            simulate_allreduce(plan.topology, plan.trees, parts, buffer_size=b).cycles
            for b in (1, 2, 4, 8)
        ]
        assert cycles == sorted(cycles, reverse=True)

    def test_no_deadlock_with_minimal_buffers(self):
        # acyclic tree dependencies: buffer 1 must still complete
        for scheme in ("low-depth", "edge-disjoint", "single"):
            plan = build_plan(5, scheme)
            parts = plan.partition(60)
            stats = simulate_allreduce(plan.topology, plan.trees, parts, buffer_size=1)
            assert stats.cycles > 0

    def test_results_unaffected_by_buffering(self):
        # flow control changes timing, never flit counts
        plan = build_plan(5, "edge-disjoint")
        parts = plan.partition(90)
        a = simulate_allreduce(plan.topology, plan.trees, parts, buffer_size=1)
        b = simulate_allreduce(plan.topology, plan.trees, parts)
        assert a.flits_moved == b.flits_moved

    def test_invalid_buffer(self):
        g, t = chain(2)
        with pytest.raises(ValueError):
            CycleSimulator(g, [t], [1], buffer_size=0)

    def test_stats_carry_buffer_size(self):
        g, t = chain(2)
        stats = simulate_allreduce(g, [t], [4], buffer_size=3)
        assert stats.buffer_size == 3
        assert simulate_allreduce(g, [t], [4]).buffer_size is None


class TestCreditAccounting:
    def test_occupancy_never_exceeds_buffer(self):
        # step manually and check the invariant each cycle against the
        # reference engine's own per-flow counters
        plan = build_plan(3, "low-depth")
        parts = plan.partition(30)
        sim = CycleSimulator(plan.topology, plan.trees, parts, buffer_size=2)
        for _ in range(300):
            sim.step()
            for fid, flow in enumerate(sim.flows):
                outstanding = flow.sent - sim._consumed(flow)
                assert outstanding <= 2 + 1  # +1: consumption visible next cycle
            if all(sim._tree_done(i) for i in range(len(sim.trees))):
                break
        assert all(sim._tree_done(i) for i in range(len(sim.trees)))
