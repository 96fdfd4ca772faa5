"""The fast step's closed forms against their oracles.

The vectorized step (fast, leap and batched engines, and the fabric's
tenants) takes three shortcuts, each checked here against the general
form it replaces:

- the two-flow round robin (one gather, on plans with at most two flows
  per channel) against the predecessor walk
  :func:`~repro.simulator.fastcycle.round_robin_walk`;
- :meth:`EngineLayout.group_mins`, which gathers one-child aggregation
  groups and reduces only the multi-child ones, against
  ``np.minimum.reduceat`` over every member;
- the cached completion test (``done_mask`` runs
  :func:`~repro.simulator.fastcycle.trees_done` again only once a tree
  can have finished) against the uncached test at every read;

plus :func:`~repro.simulator.fastcycle.water_fill`'s bitwise search for
the pass count against the pass-by-pass search it replaced.  Random
draws run with and without a trailing lane axis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import BatchedCycleSimulator, LaneSpec, make_engine
from repro.simulator import fastcycle
from repro.simulator.engine_layout import EngineLayout
from repro.simulator.fastcycle import (
    round_robin,
    round_robin_walk,
    trees_done,
    water_fill,
)

from tests.strategies import (
    batch_specs,
    engine_layouts,
    fault_specs,
    get_plan,
    link_capacities,
    materialize_faults,
    materialize_lanes,
    plan_keys,
    pointer_bits,
    random_embedding,
    seeds,
)

#: no lane axis, or 1-4 lanes
LANES = st.one_of(st.none(), st.integers(min_value=1, max_value=4))


def _shape(lay, lanes):
    return (lay.num_flows,) + (() if lanes is None else (lanes,))


def _plan_layout(q, scheme):
    plan = get_plan(q, scheme)
    return EngineLayout.build(plan.topology, plan.trees)


# --------------------------------------------------------- round robin


#: layouts with at most two flows per channel, some channels shared:
#: the low-depth plans and pairs of random spanning trees
TWO_FLOW_LAYOUTS = engine_layouts(
    min_trees=2, max_trees=2, schemes=("low-depth", "low-depth-even")
)


class TestTwoFlowRoundRobin:
    @given(lay=TWO_FLOW_LAYOUTS, seed=seeds(), lanes=LANES)
    @settings(max_examples=150, deadline=None)
    def test_equals_the_predecessor_walk(self, lay, seed, lanes):
        """On every layout with at most two flows per channel, the
        one-gather form grants and moves pointers as the walk does."""
        assert lay.rr_hops == 1
        rng = np.random.default_rng(seed)
        pos = rng.random(_shape(lay, lanes)) < rng.random()
        ptr = pointer_bits(lay, rng, lanes)
        grant, moved = round_robin(lay, pos, ptr)
        want_grant, want_moved = round_robin_walk(lay, pos, ptr)
        assert np.array_equal(grant, want_grant)
        assert np.array_equal(moved, want_moved)

    @pytest.mark.parametrize("q", (7, 11, 13))
    def test_polarfly_plans(self, q):
        """The workloads' plans take no arbitration at all (edge-disjoint)
        or the two-flow form (low-depth), which agrees with the walk on
        random eligibility and pointers."""
        assert _plan_layout(q, "edge-disjoint").rr_hops == 0
        lay = _plan_layout(q, "low-depth")
        assert lay.rr_hops == 1
        rng = np.random.default_rng(q)
        for lanes in (None, 3):
            pos = rng.random(_shape(lay, lanes)) < 0.5
            ptr = pointer_bits(lay, rng, lanes)
            for got, want in zip(
                round_robin(lay, pos, ptr), round_robin_walk(lay, pos, ptr)
            ):
                assert np.array_equal(got, want)


# ---------------------------------------------------------- group mins


class TestGroupMins:
    @given(lay=engine_layouts(), seed=seeds(), lanes=LANES)
    @settings(max_examples=150, deadline=None)
    def test_equals_reduceat_over_every_member(self, lay, seed, lanes):
        rng = np.random.default_rng(seed)
        per_flow = rng.integers(-5, 50, size=_shape(lay, lanes))
        for members in (lay.child_up, lay.child_bc):
            want = np.minimum.reduceat(per_flow[members.fid], lay.grp_off)
            got = lay.group_mins(per_flow, members)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("scheme", ["low-depth", "edge-disjoint"])
    def test_maps_split_one_child_from_multi_child_groups(self, scheme):
        """Every group's first member is gathered, and the multi-child
        groups list their members in group order for the reduction."""
        lay = _plan_layout(5, scheme)
        groups = np.split(lay.child_up.fid, lay.grp_off[1:])
        assert lay.grp_size.tolist() == [len(g) for g in groups]
        assert lay.multi_grp.tolist() == np.flatnonzero(lay.grp_size > 1).tolist()
        multi = [groups[i] for i in lay.multi_grp]
        offsets = np.cumsum([0] + [len(g) for g in multi])[:-1]
        assert lay.multi_off.tolist() == offsets.tolist()
        first = [g[0] for g in groups]
        members = np.concatenate(multi).tolist() if multi else []
        # a broadcast flow's id is its reduce flow's plus one
        for maps, bump in ((lay.child_up, 0), (lay.child_bc, 1)):
            assert maps.first.tolist() == [f + bump for f in first]
            assert maps.multi.tolist() == [f + bump for f in members]


# ---------------------------------------------------------- water fill


def _water_fill_by_passes(lay, budget, capacity, ptr):
    """:func:`water_fill` with the pass count ``T`` searched one pass at
    a time (one ``channel_totals`` per pass), the search the bitwise one
    replaced."""
    b = np.maximum(budget, 0)
    S = np.minimum(lay.channel_totals(b), capacity)
    T = np.zeros_like(S)
    for p in range(1, int(S.max(initial=0))):
        below = lay.channel_totals(np.minimum(b, p)) < S
        if not below.any():
            break
        T += below
    T = T[lay.flow_ch]
    grant = np.minimum(b, T)
    R = (S - lay.channel_totals(grant))[lay.flow_ch]
    want = b > T
    prev = lay.flow_prev
    r = np.zeros_like(grant)
    for _ in range(lay.rr_hops):
        r = np.where(ptr, 0, (r + want)[prev])
    grant += want & (r < R)
    last = want & (r == R - 1)
    return grant, np.where(R > 0, last[prev], ptr)


def _oracle_layouts():
    out = []
    for key in ((5, "low-depth"), (5, "edge-disjoint"), (4, "low-depth-even")):
        out.append(_plan_layout(*key))
    for name, k, seed in (("pf3", 3, 1), ("pf3", 6, 2), ("pf5", 2, 3), ("pf5", 8, 4)):
        g, trees = random_embedding(name, k, seed)
        out.append(EngineLayout.build(g, trees))
    return out


def test_water_fill_matches_the_pass_by_pass_search():
    """2 000 seeded draws: layouts with one to eight flows per channel,
    capacities 2-512 (one per lane or shared), budgets from negative to
    twice the capacity, random pointers, with and without lanes."""
    layouts = _oracle_layouts()
    assert max(lay.rr_hops for lay in layouts) >= 2
    rng = np.random.default_rng(2024)
    caps = np.array([2, 3, 4, 8, 64, 512])
    for draw in range(2000):
        lay = layouts[draw % len(layouts)]
        lanes = (None, 1, 3)[draw % 3]
        shape = _shape(lay, lanes)
        if lanes is not None and draw % 2:
            capacity = rng.choice(caps, size=lanes)
            top = int(capacity.max())
        else:
            capacity = int(rng.choice(caps))
            top = capacity
        budget = rng.integers(-3, 2 * top + 1, size=shape)
        budget[rng.random(shape) < 0.3] = 0
        ptr = pointer_bits(lay, rng, lanes)
        grant, moved = water_fill(lay, budget, capacity, ptr)
        want_grant, want_moved = _water_fill_by_passes(lay, budget, capacity, ptr)
        assert np.array_equal(grant, want_grant), draw
        assert np.array_equal(moved, want_moved), draw


# ----------------------------------------------------- completion test


def _check_every_read(sim, sent, grant, m):
    """Wrap ``sim.done_mask`` so every read is compared with the
    uncached :func:`trees_done` of the engine's state at that moment;
    returns the list the reads are counted in."""
    cached = sim.done_mask
    reads = []

    def done_mask():
        got = cached()
        want = trees_done(sent(), grant(), m())
        assert np.array_equal(got, want), (sim.cycle, got, want)
        reads.append(sim.cycle)
        return got

    sim.done_mask = done_mask
    return reads


def _serial_checked(sim):
    return _check_every_read(
        sim, lambda: sim.sent, lambda: sim._grant, lambda: sim._m_arr
    )


class TestCompletionCache:
    @given(
        key=plan_keys(),
        m=st.integers(min_value=0, max_value=400),
        cap=link_capacities(max_value=3),
        buf=st.sampled_from([None, 1, 2]),
        spec=st.one_of(
            st.none(),
            fault_specs(max_events=1, max_down=40, max_window=30, transient_only=True),
        ),
        engine=st.sampled_from(["fast", "leap"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_stepwise_trajectory_equals_uncached(
        self, key, m, cap, buf, spec, engine
    ):
        """Every ``done_mask`` read a run makes — after each stepped
        cycle, leap, wave jump and idle skip — equals the uncached test,
        and the run's stats equal the fast engine's."""
        plan = get_plan(*key)
        parts = plan.partition(m)
        faults = None if spec is None else materialize_faults(plan, spec)
        args = (plan.topology, plan.trees, parts, cap, buf, faults)
        sim = make_engine(engine, *args)
        reads = _serial_checked(sim)
        stats = sim.run()
        assert reads and reads[-1] == stats.cycles
        assert stats == make_engine("fast", *args).run()

    @pytest.mark.parametrize("scheme", ["low-depth", "edge-disjoint"])
    def test_leaps_and_wave_jumps(self, scheme):
        """Long runs that leap (low-depth) and jump in closed form
        (edge-disjoint: one flow per channel) read the same masks."""
        plan = get_plan(5, scheme)
        sim = make_engine("leap", plan.topology, plan.trees, plan.partition(6000))
        reads = _serial_checked(sim)
        sim.run()
        assert sim.leap_log
        assert sim.stepped_cycles < sim.cycle
        assert reads

    @given(key=plan_keys(), spec=batch_specs(max_lanes=20, max_m=30))
    @settings(max_examples=30, deadline=None)
    def test_lanes_equal_uncached(self, key, spec):
        """Every lane's mask at every read, through lane freezes and
        compactions (batches of 16 or more lanes), equals the uncached
        per-lane test."""
        plan = get_plan(*key)
        batch = BatchedCycleSimulator(
            plan.topology, plan.trees, lanes=materialize_lanes(plan, spec)
        )
        reads = _check_every_read(
            batch, lambda: batch._sent, lambda: batch._grant, lambda: batch._m_arr
        )
        batch.run_batch()
        assert reads

    def test_lanes_through_compaction(self):
        """Twenty lanes of staggered lengths: the batch compacts its live
        lanes as they finish, and the cached mask follows every column
        change."""
        plan = get_plan(5, "low-depth")
        lanes = [
            LaneSpec(plan.partition(30 * i), link_capacity=1 + i % 3)
            for i in range(20)
        ]
        batch = BatchedCycleSimulator(plan.topology, plan.trees, lanes=lanes)
        reads = _check_every_read(
            batch, lambda: batch._sent, lambda: batch._grant, lambda: batch._m_arr
        )
        outcomes = batch.run_batch()
        assert batch._B < len(lanes)  # compacted at least once
        assert reads
        for lane, out in zip(lanes, outcomes):
            serial = make_engine(
                "fast", plan.topology, plan.trees, lane.flits_per_tree,
                lane.link_capacity,
            ).run()
            assert out.stats == serial

    def test_completion_is_tested_only_when_a_tree_can_finish(self, monkeypatch):
        """The uncached test runs on a small fraction of the cycles: a
        tree ``r`` flits short of its message is not retested for
        ``ceil(r / capacity)`` cycles."""
        calls = []

        def counted(*args):
            calls.append(1)
            return trees_done(*args)

        monkeypatch.setattr(fastcycle, "trees_done", counted)
        plan = get_plan(5, "low-depth")
        parts = plan.partition(3000)
        for cap in (1, 2):
            calls.clear()
            stats = make_engine("fast", plan.topology, plan.trees, parts, cap).run()
            assert len(calls) * 10 < stats.cycles, (cap, len(calls), stats.cycles)
            calls.clear()
            (out,) = BatchedCycleSimulator(
                plan.topology, plan.trees, lanes=[LaneSpec(parts, cap)]
            ).run_batch()
            assert out.stats == stats
            assert len(calls) * 10 < stats.cycles, (cap, len(calls), stats.cycles)
