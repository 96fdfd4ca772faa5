"""Tests for cycle-simulator tracing and the waterfall renderer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_plan
from repro.simulator import FaultSchedule, simulate_allreduce
from repro.simulator.trace import render_waterfall, trace_allreduce
from repro.topology import Graph
from repro.trees import SpanningTree
from tests.strategies import (
    CYCLE_ENGINES,
    PLANS,
    fault_specs,
    link_capacities,
    materialize_faults,
    message_sizes,
    plan_keys,
    plan_used_links,
)


def chain(n):
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    t = SpanningTree(0, {i: i - 1 for i in range(1, n)})
    return g, t


class TestTrace:
    def test_cycle_count_matches_simulator(self):
        plan = build_plan(5, "low-depth")
        parts = plan.partition(120)
        trace = trace_allreduce(plan.topology, plan.trees, parts)
        stats = simulate_allreduce(plan.topology, plan.trees, parts)
        assert trace.cycles == stats.cycles

    def test_activity_sums_to_flits_moved(self):
        plan = build_plan(3, "single")
        parts = plan.partition(40)
        trace = trace_allreduce(plan.topology, plan.trees, parts)
        stats = simulate_allreduce(plan.topology, plan.trees, parts)
        assert sum(sum(s) for s in trace.activity.values()) == stats.flits_moved

    def test_single_link_utilization(self):
        g, t = chain(2)
        m = 30
        trace = trace_allreduce(g, [t], [m])
        # both directions carry m flits over m+2 cycles
        for ch in ((0, 1), (1, 0)):
            assert trace.utilization(ch) == pytest.approx(m / (m + 2))

    def test_pipeline_fill_visible(self):
        # on a depth-3 chain, the last reduce hop is idle for 2 cycles
        g, t = chain(4)
        trace = trace_allreduce(g, [t], [10])
        last_hop = trace.activity[(1, 0)]
        assert last_hop[0] == 0 and last_hop[1] == 0 and last_hop[2] == 1

    def test_busiest_ordering(self):
        plan = build_plan(3, "low-depth")
        trace = trace_allreduce(plan.topology, plan.trees, plan.partition(60))
        top = trace.busiest(5)
        utils = [u for _, u in top]
        assert utils == sorted(utils, reverse=True)
        assert all(0 <= u <= 1 for u in utils)

    def test_buffer_size_respected(self):
        g, t = chain(2)
        slow = trace_allreduce(g, [t], [20], buffer_size=1)
        fast = trace_allreduce(g, [t], [20])
        assert slow.cycles > fast.cycles

    def test_max_cycles_guard(self):
        g, t = chain(2)
        with pytest.raises(RuntimeError):
            trace_allreduce(g, [t], [100], max_cycles=5)


class TestTraceEdgeCases:
    def test_zero_flit_trace_is_empty(self):
        # m=0: the simulator finishes before moving anything; the trace
        # must be a well-formed zero-cycle object, not a crash
        g, t = chain(3)
        for engine in ("reference", "fast"):
            trace = trace_allreduce(g, [t], [0], engine=engine)
            assert trace.cycles == 0
            assert set(trace.activity) == {(0, 1), (1, 0), (1, 2), (2, 1)}
            assert all(series == [] for series in trace.activity.values())
            assert trace.utilization((0, 1)) == 0.0
            assert trace.busiest(2) == [((0, 1), 0.0), ((1, 0), 0.0)]

    def test_idle_channels_have_zero_utilization(self):
        # two trees, one carrying no flits: the channels used only by the
        # idle tree appear in the trace with all-zero series
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        busy = SpanningTree(0, {1: 0, 2: 1, 3: 2})
        idle = SpanningTree(0, {3: 0, 2: 3, 1: 2})
        trace = trace_allreduce(g, [busy, idle], [12, 0])
        assert trace.activity[(0, 3)] == [0] * trace.cycles
        assert trace.utilization((0, 3)) == 0.0
        assert trace.utilization((0, 1)) > 0
        # idle channels rank last, tie-broken by channel tuple
        ranked = trace.busiest(len(trace.activity))
        idle_tail = [ch for ch, u in ranked if u == 0.0]
        assert idle_tail == sorted(idle_tail)

    def test_capacity_in_utilization_denominator(self):
        # doubling capacity halves the time axis, so utilization is
        # normalized by capacity*cycles, not by cycles alone
        g, t = chain(2)
        m = 40
        wide = trace_allreduce(g, [t], [m], link_capacity=4)
        assert wide.capacity == 4
        assert wide.cycles == m // 4 + 2
        assert wide.utilization((0, 1)) == pytest.approx(m / (4 * wide.cycles))
        assert sum(wide.activity[(0, 1)]) == m

    def test_activity_bounded_by_capacity(self):
        plan = build_plan(3, "edge-disjoint")
        for cap in (1, 3):
            trace = trace_allreduce(
                plan.topology, plan.trees, plan.partition(25), link_capacity=cap
            )
            assert all(
                0 <= x <= cap for series in trace.activity.values() for x in series
            )


class TestWaterfall:
    def test_renders_rows_and_glyphs(self):
        g, t = chain(3)
        trace = trace_allreduce(g, [t], [8])
        text = render_waterfall(trace)
        assert "waterfall" in text
        assert "0->1" in text.replace(" ", "") or "1->0" in text.replace(" ", "")
        assert "." in text and "1" in text

    def test_respects_channel_selection(self):
        g, t = chain(3)
        trace = trace_allreduce(g, [t], [8])
        text = render_waterfall(trace, channels=[(0, 1)])
        assert text.count("|") == 2  # one data row only

    def test_hash_glyph_for_wide_links(self):
        g, t = chain(2)
        trace = trace_allreduce(g, [t], [40], link_capacity=12)
        text = render_waterfall(trace)
        assert "#" in text


class TestTracesObserveRun:
    """Every engine's trace observes its own ``run()``: dense and
    compressed traces must equal the reference engine's dense trace, and
    the runs must account for every flit the run moved."""

    @given(
        key=plan_keys(),
        m=message_sizes(max_value=160),
        capacity=link_capacities(max_value=3),
        buffer=st.sampled_from([None, 1, 2]),
        spec=st.one_of(st.none(), fault_specs(max_events=1, transient_only=True)),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_engine_traces_the_reference_run(
        self, key, m, capacity, buffer, spec
    ):
        plan = PLANS[key]
        faults = None if spec is None else materialize_faults(plan, spec)
        args = (plan.topology, plan.trees, plan.partition(m), capacity, buffer)
        ref = trace_allreduce(*args, engine="reference", faults=faults)
        moved = simulate_allreduce(
            *args[:4], buffer_size=buffer, engine="reference", faults=faults
        ).flits_moved
        for engine in CYCLE_ENGINES:
            dense = trace_allreduce(*args, engine=engine, faults=faults)
            comp = trace_allreduce(
                *args, engine=engine, faults=faults, compress=True
            )
            assert dense == ref, engine
            assert comp.expand() == ref, engine
            assert int(comp.total_flits().sum()) == moved, engine

    def test_leap_trace_holds_a_period_block_and_an_idle_block(self):
        # a transient cut long enough for the other trees to finish: the
        # last tree waits dead until the revival, after leaping before it
        plan = build_plan(3, "low-depth")
        faults = FaultSchedule([(plan_used_links(plan)[1], 60, 400)])
        flits = plan.partition(300)
        comp = trace_allreduce(
            plan.topology, plan.trees, flits, engine="leap", faults=faults,
            compress=True,
        )
        periods = [b for r, b in comp.blocks if r > 1 and b.any()]
        idles = [b for r, b in comp.blocks if r > 1 and not b.any()]
        assert periods and idles
        dense = trace_allreduce(
            plan.topology, plan.trees, flits, engine="reference", faults=faults
        )
        assert comp.expand() == dense
