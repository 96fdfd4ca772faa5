"""Batch-differential layer: every batched lane bit-identical to ``fast``.

The batched engine's entire value rests on one claim: lane ``i`` of a
``run_batch`` over heterogeneous :class:`LaneSpec` s produces *exactly*
what a serial ``engine="fast"`` run with lane ``i``'s knobs would have —
the same :class:`CycleStats` down to float utilization (pickle-byte
equality), the same :class:`SimulationStalled` cycle and pending set on
the faulted lanes only, the same cycle-guard ``RuntimeError``.  This
module is that claim as a test suite, deterministic grids first (q=7,
real PolarFly radix) and a hypothesis sweep over random heterogeneous
batches after.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.simulator import (
    ENGINES,
    BatchedCycleSimulator,
    LaneSpec,
    SimulationStalled,
    make_engine,
    simulate_allreduce,
    trace_allreduce,
)
from repro.simulator.batched import lanes_moved

from tests.strategies import (
    batch_specs,
    get_plan,
    materialize_faults,
    materialize_lanes,
    plan_keys,
)

Q = 7


def _plan():
    return get_plan(Q, "low-depth")


def _serial_outcome(plan, lane: LaneSpec):
    """What engine="fast" does with this lane's knobs, as a comparable."""
    try:
        stats = make_engine(
            "fast",
            plan.topology,
            plan.trees,
            lane.flits_per_tree,
            lane.link_capacity,
            lane.buffer_size,
            faults=lane.faults,
        ).run()
        return ("done", stats)
    except SimulationStalled as e:
        return ("stalled", e.cycle, tuple(e.pending))
    except RuntimeError as e:
        return ("exceeded", str(e))


def _batched_outcome(out):
    if out.status == "done":
        return ("done", out.stats)
    if out.status == "stalled":
        return ("stalled", out.stall_cycle, out.stall_pending)
    return ("exceeded", out.error)


def _assert_lanes_match(plan, lanes):
    outs = BatchedCycleSimulator(plan.topology, plan.trees, lanes=lanes).run_batch()
    for i, (lane, out) in enumerate(zip(lanes, outs)):
        assert out.index == i
        got = _batched_outcome(out)
        want = _serial_outcome(plan, lane)
        assert got == want, (i, lane, got, want)
        if got[0] == "done":
            # equality is not enough for cache byte-identity: the pickled
            # stats (types included) must match the serial engine's
            assert pickle.dumps(got[1]) == pickle.dumps(want[1]), i


# --------------------------------------------------- deterministic q=7 grids


class TestLaneGrids:
    def test_message_size_and_buffer_grid(self):
        plan = _plan()
        T = plan.num_trees
        lanes = [
            LaneSpec((m,) * T, buffer_size=b)
            for m in (0, 1, 2, 5, 16)
            for b in (None, 1, 2, 4)
        ]
        _assert_lanes_match(plan, lanes)

    def test_capacity_grid_forces_general_arbitration(self):
        # one capacity>1 lane pushes the whole batch onto the
        # water-filling path; results must still match per lane
        plan = _plan()
        T = plan.num_trees
        lanes = [
            LaneSpec((m,) * T, link_capacity=c, buffer_size=b)
            for m in (3, 8)
            for c in (1, 2, 3)
            for b in (None, 2)
        ]
        _assert_lanes_match(plan, lanes)

    def test_heterogeneous_per_tree_splits(self):
        plan = _plan()
        T = plan.num_trees
        lanes = [
            LaneSpec(tuple((i + j) % 5 for j in range(T)))
            for i in range(6)
        ]
        _assert_lanes_match(plan, lanes)

    def test_faulted_lane_stalls_alone_rest_complete(self):
        # a permanent fault severs exactly one lane: it must stall at the
        # identical cycle/pending set as serial, while every co-batched
        # clean lane completes with identical stats
        plan = _plan()
        T = plan.num_trees
        lanes = [
            LaneSpec((6,) * T),
            LaneSpec((6,) * T, faults=materialize_faults(plan, ((3, 5, None),))),
            LaneSpec((6,) * T),
        ]
        outs = BatchedCycleSimulator(
            plan.topology, plan.trees, lanes=lanes
        ).run_batch()
        assert outs[0].status == outs[2].status == "done"
        assert outs[1].status == "stalled"
        _assert_lanes_match(plan, lanes)

    def test_transient_and_permanent_fault_mix(self):
        plan = _plan()
        T = plan.num_trees
        specs = [
            ((0, 2, 6),),  # link rank 0 down cycles 2..8
            ((1, 1, None),),  # permanent
            ((2, 4, 3), (7, 2, 10)),  # two windows
            None,
        ]
        lanes = [
            LaneSpec((7,) * T, faults=(
                materialize_faults(plan, s) if s else None
            ))
            for s in specs
        ]
        _assert_lanes_match(plan, lanes)

    def test_guard_exceeded_message_parity(self):
        plan = _plan()
        T = plan.num_trees
        lanes = [LaneSpec((9,) * T), LaneSpec((2,) * T)]
        outs = BatchedCycleSimulator(
            plan.topology, plan.trees, lanes=lanes
        ).run_batch(max_cycles=5)
        for lane, out in zip(lanes, outs):
            try:
                make_engine(
                    "fast", plan.topology, plan.trees, lane.flits_per_tree
                ).run(max_cycles=5)
                want = None
            except RuntimeError as e:
                want = str(e)
            assert out.error == want


# ------------------------------------------------------ hypothesis batches


@given(key=plan_keys(), batch=batch_specs(max_lanes=6))
@settings(max_examples=20, deadline=None)
def test_random_heterogeneous_batches_match_fast(key, batch):
    plan = get_plan(*key)
    _assert_lanes_match(plan, materialize_lanes(plan, batch))


# ------------------------------------------------------------ one lane


class TestSingleLaneProtocol:
    """One lane's contract: validation, ``result()`` replaying the serial
    run, and cycle-by-cycle parity with a serial fast engine.  The batched
    engine itself is no single-run engine."""

    def test_not_a_single_run_engine(self):
        plan = _plan()
        flits = (1,) * plan.num_trees
        assert "batched" not in ENGINES
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine("batched", plan.topology, plan.trees, flits)
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_allreduce(plan.topology, plan.trees, flits, engine="batched")
        with pytest.raises(SystemExit):
            main(["simulate", "7", "--engine", "batched"])
        with pytest.raises(TypeError):
            BatchedCycleSimulator(plan.topology, plan.trees, flits)
        for name in ("run", "done", "channels", "telemetry", "queue_occupancy"):
            assert not hasattr(BatchedCycleSimulator, name), name

    def test_simulate_allreduce_roundtrip(self):
        # a one-lane batch returns simulate_allreduce's stats, to the byte
        plan = _plan()
        parts = plan.partition(40)
        fast = simulate_allreduce(plan.topology, plan.trees, parts, engine="fast")
        (out,) = BatchedCycleSimulator(
            plan.topology, plan.trees, lanes=[LaneSpec(parts)]
        ).run_batch()
        assert pickle.dumps(out.result()) == pickle.dumps(fast)

    def test_trace_parity_with_fast(self):
        # a one-lane batch stepped to completion records, cycle by cycle,
        # the channel activity trace_allreduce records on the fast engine
        plan = _plan()
        parts = plan.partition(12)
        t_f = trace_allreduce(plan.topology, plan.trees, parts, engine="fast")
        batch = BatchedCycleSimulator(
            plan.topology, plan.trees, lanes=[LaneSpec(parts)]
        )
        channels = make_engine("fast", plan.topology, plan.trees, parts).channels()
        series = [[] for _ in channels]
        prev = batch.lane_channel_flits(0)
        while not batch.done_mask().all():
            batch.step()
            now = batch.lane_channel_flits(0)
            for i, delta in enumerate((now - prev).tolist()):
                series[i].append(delta)
            prev = now
        assert batch.cycle == t_f.cycles
        assert dict(zip(channels, series)) == t_f.activity

    def test_midrun_probe_parity(self):
        # a heterogeneous batch (message sizes, buffers, transient and
        # permanent faults) stepped beside one serial fast engine per
        # lane: every cycle, each lane's channel counters and sent
        # counters equal its serial engine's; equal ``sent`` from equal
        # starts every cycle pins each cycle's grants.  With one lane
        # at capacity 2 the whole batch takes the water-filling path.
        plan = _plan()
        T = plan.num_trees
        for capacity in (1, 2):
            lanes = [
                LaneSpec((6,) * T),
                LaneSpec((9,) * T, buffer_size=2),
                LaneSpec((7,) * T, buffer_size=1,
                         faults=materialize_faults(plan, ((0, 3, 8),))),
                LaneSpec((5,) * T,
                         faults=materialize_faults(plan, ((2, 4, None),))),
                LaneSpec(tuple(range(T)), link_capacity=capacity, buffer_size=3),
            ]
            self._step_beside_serial(plan, lanes, cycles=60)

    @staticmethod
    def _step_beside_serial(plan, lanes, cycles):
        batch = BatchedCycleSimulator(plan.topology, plan.trees, lanes=lanes)
        serial = [
            make_engine("fast", plan.topology, plan.trees, lane.flits_per_tree,
                        lane.link_capacity, lane.buffer_size, faults=lane.faults)
            for lane in lanes
        ]
        for cycle in range(1, cycles + 1):
            batch.step()
            for b, fast in enumerate(serial):
                fast.step()
                where = (lanes[b].link_capacity, cycle, b)
                assert (
                    batch.lane_channel_flits(b).tolist() == fast.channel_flit_counts()
                ), where
                assert np.array_equal(batch._sent[:, b], fast.sent), where
        # the window covers every completion and the permanent stall
        assert [bool(fast.done_mask().all()) for fast in serial] == [
            True, True, True, False, True
        ]
        assert batch.done_mask().all(axis=0).tolist() == [
            True, True, True, False, True
        ]

    def test_lane_validation(self):
        plan = _plan()
        T = plan.num_trees
        with pytest.raises(ValueError, match="at least one lane"):
            BatchedCycleSimulator(plan.topology, plan.trees, lanes=[])
        with pytest.raises(ValueError, match="align"):
            BatchedCycleSimulator(
                plan.topology, plan.trees, lanes=[LaneSpec((1,) * (T + 1))]
            )
        with pytest.raises(ValueError, match="non-negative"):
            BatchedCycleSimulator(
                plan.topology, plan.trees, lanes=[LaneSpec((-1,) * T)]
            )


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 200), st.integers(1, 70)),
    density=st.sampled_from((0.0, 0.002, 0.05, 0.5)),
    capacity=st.sampled_from((1, 3)),
    seed=st.integers(0, 10**6),
)
def test_lanes_moved_is_any_over_flows(shape, density, capacity, seed):
    """The folded reduction the step books lane progress with equals
    ``grant.any(axis=0)`` for bool (capacity 1) and int32 grants, at
    flow counts on both sides of a whole number of fold rows."""
    rng = np.random.default_rng(seed)
    grant = rng.random(shape) < density
    if capacity > 1:
        grant = grant * rng.integers(1, capacity + 1, shape, dtype=np.int32)
    got = lanes_moved(grant)
    assert got.dtype == bool
    assert np.array_equal(got, grant.any(axis=0))
