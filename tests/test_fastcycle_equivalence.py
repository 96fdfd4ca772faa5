"""Differential harness: the optimized engines must be *cycle-exact*.

``FastCycleSimulator`` replaces the reference simulator's per-flit Python
round robin with closed-form vectorized arbitration, and
``LeapCycleSimulator`` layers steady-state detection on top so it can jump
thousands of cycles in one update. None of the three engines share
stepping code, so agreement on every observable is the correctness
argument for the optimized pair:

- per-channel **per-cycle** flit counts (the full ``ChannelTrace``), which
  pins the round-robin pointer trajectory, the credit loop and the
  one-cycle hop latency — not just aggregate totals;
- per-tree completion cycles and the entire :class:`CycleStats` (flit
  conservation, utilization statistics, ...);

across the (q, scheme, flow-control, message-size) matrix of the paper's
embeddings plus hypothesis-randomized workloads on random embeddings.
"""

import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import build_plan
from repro.simulator import (
    BatchedCycleSimulator,
    CycleSimulator,
    CycleStats,
    FastCycleSimulator,
    FaultSchedule,
    LaneSpec,
    LeapCycleSimulator,
    make_engine,
    simulate_allreduce,
    trace_allreduce,
)
from repro.topology import Graph
from repro.trees import SpanningTree, random_spanning_trees

from tests.strategies import (
    CYCLE_ENGINES,
    RUN_ENGINES,
    buffer_sizes,
    fault_specs,
    get_plan,
    link_capacities,
    materialize_faults,
    message_sizes,
    observables,
    plan_keys,
    plan_used_links,
    random_embedding,
    run_engine,
    seeds,
    topology_names,
)

# the full equivalence matrix of the acceptance criteria: every scheme at
# every radix the constructions support, with and without credit flow
# control
MATRIX_KEYS = sorted(
    (q, scheme)
    for q in (3, 4, 5, 7)
    for scheme in ("low-depth", "low-depth-even", "edge-disjoint", "single")
    if not (scheme == "low-depth" and q % 2 == 0)
    and not (scheme == "low-depth-even" and q % 2 == 1)
)


def assert_cycle_exact(g, trees, flits, link_capacity=1, buffer_size=None):
    """All three engines must produce identical traces and identical stats."""
    ref = trace_allreduce(
        g, trees, flits, link_capacity, buffer_size, engine="reference"
    )
    for engine in ("fast", "leap"):
        got = trace_allreduce(g, trees, flits, link_capacity, buffer_size, engine=engine)
        assert ref.cycles == got.cycles, engine
        assert ref.activity.keys() == got.activity.keys(), engine
        for ch in ref.activity:
            assert ref.activity[ch] == got.activity[ch], f"{engine}: channel {ch} diverged"
    sref = simulate_allreduce(
        g, trees, flits, link_capacity, buffer_size=buffer_size, engine="reference"
    )
    for engine in ("fast", "leap"):
        got = simulate_allreduce(
            g, trees, flits, link_capacity, buffer_size=buffer_size, engine=engine
        )
        assert sref == got, engine  # completion, per-tree cycles, flits, utilization


@pytest.mark.parametrize("flow_control", [None, 2], ids=["credit-off", "credit-on"])
@pytest.mark.parametrize(
    "q,scheme", MATRIX_KEYS, ids=[f"{s}-q{q}" for q, s in MATRIX_KEYS]
)
def test_equivalence_matrix(q, scheme, flow_control):
    """Cycle-exact on every (q, scheme, flow-control) acceptance cell."""
    plan = get_plan(q, scheme)
    m = 8 * plan.num_trees + 3
    assert_cycle_exact(
        plan.topology, plan.trees, plan.partition(m), buffer_size=flow_control
    )


@given(
    key=plan_keys(),
    m=message_sizes(max_value=60),
    buf=buffer_sizes(),
    cap=link_capacities(max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_equivalence_randomized_workloads(key, m, buf, cap):
    """Hypothesis sweep over message sizes, buffer sizes and capacities."""
    plan = get_plan(*key)
    assert_cycle_exact(
        plan.topology, plan.trees, plan.partition(m), link_capacity=cap, buffer_size=buf
    )


@given(
    name=topology_names(["pf3", "hc4", "torus33", "rr"]),
    k=st.integers(min_value=1, max_value=5),
    seed=seeds(50),
    m=message_sizes(max_value=30),
    buf=buffer_sizes(max_value=4),
    cap=link_capacities(max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_equivalence_random_embeddings(name, k, seed, m, buf, cap):
    """Random overlapping embeddings exercise contended round robin far
    harder than the paper's low-congestion constructions."""
    g, trees = random_embedding(name, k, seed)
    flits = [m + i for i in range(k)]  # unequal per-tree loads
    assert_cycle_exact(g, trees, flits, link_capacity=cap, buffer_size=buf)


class TestEngineParity:
    """Beyond traces: the engines' public surfaces must agree."""

    def test_zero_flit_trees(self):
        g = Graph.from_edges(2, [(0, 1)])
        t = SpanningTree(0, {1: 0})
        for engine in ("reference", "fast", "leap"):
            stats = simulate_allreduce(g, [t], [0], engine=engine)
            assert stats.cycles == 0
            assert stats.flits_moved == 0

    def test_mixed_zero_and_nonzero_trees(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        t1 = SpanningTree(0, {1: 0, 2: 1})
        t2 = SpanningTree(0, {1: 0, 2: 0})
        assert_cycle_exact(g, [t1, t2], [0, 9])

    def test_channels_enumerate_identically(self):
        plan = get_plan(5, "low-depth")
        parts = plan.partition(10)
        ref = CycleSimulator(plan.topology, plan.trees, parts)
        fast = FastCycleSimulator(plan.topology, plan.trees, parts)
        leap = LeapCycleSimulator(plan.topology, plan.trees, parts)
        assert ref.channels() == fast.channels() == leap.channels()
        assert (
            ref.channel_flit_counts()
            == fast.channel_flit_counts()
            == leap.channel_flit_counts()
        )

    def test_input_validation_parity(self):
        g = Graph.from_edges(2, [(0, 1)])
        t = SpanningTree(0, {1: 0})
        for cls in (CycleSimulator, FastCycleSimulator, LeapCycleSimulator):
            with pytest.raises(ValueError):
                cls(g, [t], [1, 2])
            with pytest.raises(ValueError):
                cls(g, [t], [-1])
            with pytest.raises(ValueError):
                cls(g, [t], [1], link_capacity=0)
            with pytest.raises(ValueError):
                cls(g, [t], [1], buffer_size=0)

    def test_max_cycles_guard(self):
        g = Graph.from_edges(2, [(0, 1)])
        t = SpanningTree(0, {1: 0})
        for engine in ("reference", "fast", "leap"):
            with pytest.raises(RuntimeError):
                simulate_allreduce(g, [t], [100], max_cycles=3, engine=engine)

    @pytest.mark.parametrize("max_cycles", [1, 3, 7, 20, 50])
    def test_max_cycles_semantics_identical(self, max_cycles):
        """run(max_cycles=...) must stop at the same cycle with the same
        partial state in all three engines — the guard either raises in
        every engine or in none, and the observable state after the raise
        (flits moved, per-channel totals) matches exactly."""
        plan = get_plan(5, "low-depth")
        parts = plan.partition(40)
        outcomes = {}
        for engine in ("reference", "fast", "leap"):
            sim = make_engine(engine, plan.topology, plan.trees, parts)
            try:
                stats = sim.run(max_cycles=max_cycles)
                outcomes[engine] = ("done", stats.cycles)
            except RuntimeError as exc:
                outcomes[engine] = ("raise", str(exc))
            outcomes[engine] += (sim.flits_moved, sim.channel_flit_counts())
        assert outcomes["fast"] == outcomes["reference"]
        assert outcomes["leap"] == outcomes["reference"]

    def test_unknown_engine_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        t = SpanningTree(0, {1: 0})
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_allreduce(g, [t], [1], engine="warp")
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine("warp", g, [t], [1])

    @given(
        key=plan_keys(),
        m=message_sizes(max_value=24),
        cap=link_capacities(max_value=3),
        buf=st.sampled_from([None, 1, 2]),
        spec=st.one_of(
            st.none(), fault_specs(max_events=1, max_down=20, max_window=20)
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_stepwise_tree_done_trajectory(self, key, m, cap, buf, spec):
        """At every stepped cycle the completion test that the fast and
        leap engines and a batched lane read as ``done_mask()`` (every
        flow of the tree sent ``m_i``, none in flight) equals the
        reference's per-tree ``_tree_done`` (root aggregate AND landed
        broadcast floor)."""
        plan = get_plan(*key)
        parts = plan.partition(m)
        faults = None if spec is None else materialize_faults(plan, spec)
        ref, *sims = (
            make_engine(e, plan.topology, plan.trees, parts, cap, buf, faults)
            for e in CYCLE_ENGINES
        )
        batch = BatchedCycleSimulator(
            plan.topology, plan.trees, lanes=[LaneSpec(parts, cap, buf, faults)]
        )
        while True:
            want = [ref._tree_done(i) for i in range(len(plan.trees))]
            for sim in sims:
                assert sim.done_mask().tolist() == want, (sim.engine_name, ref.cycle)
            assert batch.done_mask()[:, 0].tolist() == want, ref.cycle
            if all(want):
                break
            moved = ref.step()
            assert [sim.step() for sim in sims] == [moved] * len(sims)
            batch.step()
            if not moved and (
                faults is None or faults.next_revival_after(ref.cycle) is None
            ):
                break  # stalled for good: every engine agreed up to here


class TestFusedStep:
    """The fast engine's one fused step (pointer-bit round robin, dense
    grants landing by assignment, landed-broadcast-floor done check)
    against the per-flit reference, observable by observable, cycle by
    cycle."""

    CASES = [
        # (q, scheme, m, capacity, buffer, faulted)
        (3, "low-depth", 25, 1, None, False),
        (5, "edge-disjoint", 18, 1, 2, False),
        (5, "low-depth", 16, 3, None, False),
        (5, "low-depth", 21, 2, 2, True),
    ]

    @pytest.mark.parametrize("q,scheme,m,cap,buf,faulted", CASES)
    def test_stepwise_parity(self, q, scheme, m, cap, buf, faulted):
        plan = get_plan(q, scheme)
        parts = plan.partition(m)

        def build(cls):
            faults = (
                FaultSchedule([(plan_used_links(plan)[0], 6, 20)])
                if faulted else None
            )
            return cls(plan.topology, plan.trees, parts, cap, buf,
                       faults=faults)

        ref, fast = build(CycleSimulator), build(FastCycleSimulator)
        assert fast.channels() == ref.channels()
        while not ref.done_mask().all():
            assert ref.step() == fast.step()
            assert observables(ref) == observables(fast)
            assert _pointers(fast) == list(ref._rr.values())
        assert fast.done_mask().all()

    def test_done_counts_track_reference_done(self):
        plan = get_plan(5, "low-depth")
        parts = plan.partition(14)
        fast = FastCycleSimulator(plan.topology, plan.trees, parts)
        ref = CycleSimulator(plan.topology, plan.trees, parts)
        while not ref.done_mask().all():
            fast.step(), ref.step()
            assert fast.done_mask().tolist() == ref.done_mask().tolist()
        assert fast.done_mask().all()

    def test_zero_flit_trees_complete_immediately(self):
        plan = get_plan(3, "low-depth")
        parts = [0] * plan.num_trees
        for engine in RUN_ENGINES:
            stats = run_engine(engine, plan.topology, plan.trees, parts)
            assert stats.cycles == 0, engine

    def test_heterogeneous_parts_exact(self):
        plan = get_plan(5, "edge-disjoint")
        rng = np.random.default_rng(3)
        parts = [int(x) for x in rng.integers(0, 9, plan.num_trees)]
        base = simulate_allreduce(plan.topology, plan.trees, parts,
                                  engine="reference")
        for engine in RUN_ENGINES[1:]:
            got = run_engine(engine, plan.topology, plan.trees, parts)
            assert got == base, engine


class TestStatsFold:
    """``CycleStats.fold`` takes the reference engine's channel list and
    the vectorized engines' int64 array alike; both must fold to
    pickle-equal stats, equal to the per-channel Python fold."""

    CHANNELS = [
        [],
        [0, 0, 0],
        [5, 0, 3, 7],
        [1],
        [2**40, 0, 2**40 + 3, 9],
    ]

    @pytest.mark.parametrize("channels", CHANNELS, ids=lambda c: f"n{len(c)}")
    @pytest.mark.parametrize(
        "completion,capacity", [((7, 11), 1), ((0, 0), 1), ((9,), 3)]
    )
    def test_list_and_array_fold_alike(self, channels, completion, capacity):
        args = (completion, [4] * len(completion), capacity, 17, None)
        from_list = CycleStats.fold(*args, channels)
        from_array = CycleStats.fold(*args, np.array(channels, dtype=np.int64))
        assert pickle.dumps(from_list) == pickle.dumps(from_array)
        loads = [c for c in channels if c > 0]
        denom = max(completion) * capacity
        busy = bool(loads and denom)
        assert from_array.max_channel_utilization == (
            max(loads) / denom if busy else 0.0
        )
        assert from_array.mean_channel_utilization == (
            sum(loads) / (len(loads) * denom) if busy else 0.0
        )


# ------------------------------------------------- K >= 3 round robin

#: a lane's draw: per-tree flits (zeros included; sliced to the tree
#: count), a credit buffer and a link capacity (above 1: water filling)
_LANE = st.tuples(
    st.lists(st.integers(min_value=0, max_value=12), min_size=8, max_size=8),
    st.sampled_from([None, 1, 2, 4]),
    st.integers(min_value=1, max_value=4),
)


def _pointers(sim):
    """The round-robin pointers the fast engine's pointer bits encode."""
    return sim._lay.pointers(sim._ptr).tolist()


class TestManyFlowChannels:
    """PolarFly plans put at most two flows on a channel, so only random
    overlapping embeddings (3-8 random spanning trees of PolarFly q = 3,
    5) drive the pointer-bit arbitration through more than one
    predecessor hop: the round robin at capacity 1, water filling at
    capacities 2-4.  Each cycle, the fast engine's observables and the
    pointers its bits encode must equal the per-flit reference's, and
    every lane of a batch must equal a serial fast engine."""

    @staticmethod
    def _embedding(name, k, seed):
        g, trees = random_embedding(name, k, seed)
        fast = FastCycleSimulator(g, trees, [0] * k)
        assume(fast._lay.rr_hops >= 2)
        return g, trees

    @given(
        name=topology_names(["pf3", "pf5"]),
        k=st.integers(min_value=3, max_value=8),
        seed=seeds(200),
        lane=_LANE,
    )
    @settings(max_examples=60, deadline=None)
    def test_stepwise_against_reference(self, name, k, seed, lane):
        g, trees = self._embedding(name, k, seed)
        flits, buf, cap = lane[0][:k], lane[1], lane[2]
        ref = CycleSimulator(g, trees, flits, link_capacity=cap, buffer_size=buf)
        fast = FastCycleSimulator(g, trees, flits, link_capacity=cap, buffer_size=buf)
        assert _pointers(fast) == list(ref._rr.values())
        while not ref.done_mask().all():
            moved = ref.step()
            assert fast.step() == moved
            assert observables(ref) == observables(fast)
            assert _pointers(fast) == list(ref._rr.values()), ref.cycle
            if not moved:
                break  # stalled: both engines agree up to here
        assert fast.done_mask().tolist() == ref.done_mask().tolist()

    @given(
        name=topology_names(["pf3", "pf5"]),
        k=st.integers(min_value=3, max_value=8),
        seed=seeds(200),
        lanes=st.sampled_from([1, 4]).flatmap(
            lambda b: st.lists(_LANE, min_size=b, max_size=b)
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_lanes_against_fast(self, name, k, seed, lanes):
        g, trees = self._embedding(name, k, seed)
        specs = [
            LaneSpec(flits[:k], link_capacity=cap, buffer_size=buf)
            for flits, buf, cap in lanes
        ]
        batch = BatchedCycleSimulator(g, trees, lanes=specs)
        serial = [
            FastCycleSimulator(
                g, trees, s.flits_per_tree, s.link_capacity, s.buffer_size
            )
            for s in specs
        ]
        while not all(f.done_mask().all() for f in serial):
            batch.step()
            moved = [f.step() for f in serial]
            rr = batch._lay.pointers(batch._ptr)
            for b, fast in enumerate(serial):
                where = (batch.cycle, b)
                assert batch.lane_channel_flits(b).tolist() == (
                    fast.channel_flit_counts()
                ), where
                assert np.array_equal(batch._sent[:, b], fast.sent), where
                assert rr[:, b].tolist() == _pointers(fast), where
            if not any(moved):
                break  # every unfinished lane stalled
