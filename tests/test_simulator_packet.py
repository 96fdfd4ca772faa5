"""Tests for the packet-level (payload-carrying) in-network simulator."""

import numpy as np
import pytest

from repro.core import build_plan
from repro.simulator import (
    CycleLimitExceeded,
    SimulationStalled,
    simulate_allreduce,
)
from repro.simulator.packet import PacketLevelSimulator, packet_allreduce
from repro.topology import Graph
from repro.trees import SpanningTree


class TestNumericalCorrectness:
    @pytest.mark.parametrize("scheme", ["low-depth", "edge-disjoint", "single"])
    @pytest.mark.parametrize("q", [3, 5])
    def test_sum_allreduce(self, q, scheme):
        plan = build_plan(q, scheme)
        rng = np.random.default_rng(q)
        x = rng.integers(-40, 40, size=(plan.num_nodes, 57))
        out, stats = packet_allreduce(plan.topology, plan.trees, x)
        assert np.array_equal(out, np.broadcast_to(x.sum(axis=0), out.shape))
        assert stats.cycles > 0

    @pytest.mark.parametrize("op,npop", [("max", np.max), ("min", np.min),
                                         ("prod", np.prod)])
    def test_other_ops(self, op, npop):
        plan = build_plan(3, "low-depth")
        rng = np.random.default_rng(1)
        x = rng.integers(1, 4, size=(plan.num_nodes, 12))
        out, _ = packet_allreduce(plan.topology, plan.trees, x, op=op)
        assert np.array_equal(out, np.broadcast_to(npop(x, axis=0), out.shape))

    def test_float_payloads(self):
        plan = build_plan(3, "edge-disjoint")
        rng = np.random.default_rng(2)
        x = rng.standard_normal((plan.num_nodes, 20))
        out, _ = packet_allreduce(plan.topology, plan.trees, x)
        # in-order streaming reduction: same association as the functional
        # executor per tree, so agreement is within float tolerance
        np.testing.assert_allclose(out, np.broadcast_to(x.sum(axis=0), out.shape),
                                   rtol=1e-10)

    def test_reduction_happens_at_routers(self):
        # a two-level chain: the midpoint router must fold the leaf's value
        # into its own before forwarding — observable in its partial state
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        t = SpanningTree(0, {1: 0, 2: 1})
        x = np.array([[1.0], [10.0], [100.0]])
        sim = PacketLevelSimulator(g, [t], x, partition=[1])
        out, _ = sim.run()
        assert sim.partial[0][1, 0] == 110.0  # router 1 aggregated 10+100
        assert np.all(out == 111.0)


class TestTimingAgreement:
    @pytest.mark.parametrize("scheme", ["low-depth", "edge-disjoint", "single"])
    def test_matches_cycle_simulator_exactly(self, scheme):
        # identical arbitration => identical cycle counts
        plan = build_plan(5, scheme)
        m = 90
        parts = plan.partition(m)
        x = np.ones((plan.num_nodes, m))
        _, pstats = packet_allreduce(plan.topology, plan.trees, x, partition=parts)
        cstats = simulate_allreduce(plan.topology, plan.trees, parts)
        assert pstats.cycles == cstats.cycles
        assert pstats.flits_moved == cstats.flits_moved

    def test_capacity_speedup(self):
        plan = build_plan(3, "single")
        x = np.ones((plan.num_nodes, 64))
        _, slow = packet_allreduce(plan.topology, plan.trees, x, link_capacity=1)
        _, fast = packet_allreduce(plan.topology, plan.trees, x, link_capacity=4)
        assert fast.cycles < slow.cycles

    def test_aggregate_bandwidth_property(self):
        plan = build_plan(3, "single")
        x = np.ones((plan.num_nodes, 50))
        _, stats = packet_allreduce(plan.topology, plan.trees, x)
        assert stats.aggregate_bandwidth == pytest.approx(50 / stats.cycles)


class TestValidation:
    def test_bad_inputs_shape(self):
        plan = build_plan(3, "single")
        with pytest.raises(ValueError):
            packet_allreduce(plan.topology, plan.trees, np.ones(5))
        with pytest.raises(ValueError):
            packet_allreduce(plan.topology, plan.trees, np.ones((4, 4)))

    def test_bad_partition(self):
        plan = build_plan(3, "edge-disjoint")
        x = np.ones((plan.num_nodes, 10))
        with pytest.raises(ValueError):
            packet_allreduce(plan.topology, plan.trees, x, partition=[10])
        with pytest.raises(ValueError):
            packet_allreduce(plan.topology, plan.trees, x, partition=[4, 4])

    def test_bad_op(self):
        plan = build_plan(3, "single")
        x = np.ones((plan.num_nodes, 4))
        with pytest.raises(ValueError):
            packet_allreduce(plan.topology, plan.trees, x, op="xor")

    def test_bad_capacity(self):
        plan = build_plan(3, "single")
        x = np.ones((plan.num_nodes, 4))
        with pytest.raises(ValueError):
            packet_allreduce(plan.topology, plan.trees, x, link_capacity=0)

    def test_empty_vector(self):
        plan = build_plan(3, "single")
        x = np.ones((plan.num_nodes, 0))
        out, stats = packet_allreduce(plan.topology, plan.trees, x)
        assert out.shape == x.shape
        assert stats.cycles == 0


class _FrozenTree0(PacketLevelSimulator):
    """Tree 0's flows never become eligible: a deadlock on that tree."""

    def _eligible(self, fl):
        return 0 if fl.tree == 0 else super()._eligible(fl)


class TestNamedErrors:
    def test_cycle_limit_exceeded(self):
        plan = build_plan(3, "low-depth")
        x = np.ones((plan.num_nodes, 12))
        sim = PacketLevelSimulator(plan.topology, plan.trees, x)
        with pytest.raises(CycleLimitExceeded, match="simulation exceeded 2 cycles"):
            sim.run(max_cycles=2)
        assert issubclass(CycleLimitExceeded, RuntimeError)

    def test_stall_names_the_cycle_and_the_pending_trees(self):
        """The stall lands on the cycle the other trees complete — the
        run with tree 0's share emptied — and names tree 0 alone."""
        plan = build_plan(3, "low-depth")
        x = np.ones((plan.num_nodes, 12))
        _, rest = PacketLevelSimulator(
            plan.topology, plan.trees, x[:, :8], partition=[0, 4, 4]
        ).run()
        sim = _FrozenTree0(plan.topology, plan.trees, x, partition=[4, 4, 4])
        with pytest.raises(SimulationStalled) as exc:
            sim.run()
        assert exc.value.cycle == rest.cycles
        assert exc.value.pending == (0,)
        assert isinstance(exc.value, RuntimeError)
