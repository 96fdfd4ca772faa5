"""Leap-engine specifics: the O(events) claims behind the cycle-exactness.

``tests/test_fastcycle_equivalence.py`` establishes that the leap engine
is cycle-exact against the reference on the full differential grid; this
module pins the properties unique to leaping that a merely-correct
single-stepper would also pass:

- the engine actually leaps — stepped cycles stay O(depth + #events)
  while simulated cycles grow linearly with the message size;
- leaped runs stay exact at message sizes the per-cycle engines cannot
  reach (verified against the affine cycle-count law the steady state
  implies);
- compressed traces (:class:`CompressedTrace`) expand to the reference
  dense trace and conserve flit totals;
- the satellite optimizations (vectorized transcript accounting, bounded
  topology memos with the sweep-engine clear hook, measured analysis
  rows) behave as documented.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import Transcript, transcript_link_loads
from repro.simulator import (
    CompressedTrace,
    CycleLimitExceeded,
    FaultSchedule,
    LeapCycleSimulator,
    make_engine,
    simulate_allreduce,
    trace_allreduce,
)
from repro.simulator.engine import ENGINES
from repro.topology import clear_polarfly_cache, polarfly_graph
from repro.topology.routing import route_edges
from repro.trees import random_spanning_trees

from tests.strategies import (
    CYCLE_ENGINES,
    OBSERVERS,
    fault_specs,
    get_plan,
    link_capacities,
    materialize_faults,
    observables,
    observer,
    plan_keys,
    plan_used_links,
    seeds,
)


def test_engine_registry_matches_strategies():
    """tests.strategies.CYCLE_ENGINES mirrors the real registry."""
    assert tuple(sorted(ENGINES)) == tuple(sorted(CYCLE_ENGINES))
    assert ENGINES["leap"] is LeapCycleSimulator


# --------------------------------------------------------------- leaping


class TestLeaping:
    @pytest.mark.parametrize("mode", OBSERVERS)
    def test_leap_engine_actually_leaps(self, mode):
        """Stepped cycles must not scale with m once steady state locks —
        unobserved and with a per-cycle collector attached alike."""
        plan = get_plan(7, "low-depth")
        stepped = {}
        for m in (2_000, 20_000):
            sim = make_engine("leap", plan.topology, plan.trees,
                              plan.partition(m),
                              telemetry=observer(mode))
            stats = sim.run()
            assert sim.leap_log, f"no leap at m={m}"
            leaped = sum(k * p for _, p, k in sim.leap_log)
            assert sim.stepped_cycles + leaped == stats.cycles
            stepped[m] = sim.stepped_cycles
        # O(depth + #events): growing m 10x must not grow stepped cycles
        assert stepped[20_000] <= stepped[2_000] + 8

    @pytest.mark.parametrize("mode", OBSERVERS)
    def test_leap_exact_at_moderate_m(self, mode):
        """Cross-check against the O(cycles) fast engine where it is
        still affordable, including credit flow control and capacity."""
        plan = get_plan(7, "edge-disjoint")
        for cap, buf in ((1, None), (2, 3)):
            flits = plan.partition(1_500)
            fast = simulate_allreduce(
                plan.topology, plan.trees, flits, cap, buffer_size=buf,
                engine="fast",
            )
            leap = simulate_allreduce(
                plan.topology, plan.trees, flits, cap, buffer_size=buf,
                engine="leap", telemetry=observer(mode),
            )
            assert leap == fast, (cap, buf, mode)

    @pytest.mark.parametrize("mode", OBSERVERS)
    def test_leaps_low_depth_q25(self, mode):
        """Regression: a detectable period of 1 never leaps the low-depth
        q >= 25 embeddings, whose steady state has period 2; the floor of
        2 leaps them, exactly, observed or not."""
        plan = get_plan(25, "low-depth")
        parts = plan.partition(1_500)
        col = observer(mode)
        sim = make_engine("leap", plan.topology, plan.trees, parts,
                          telemetry=col)
        stats = sim.run()
        assert sim.leap_log
        assert sim.stepped_cycles <= 50
        base_col = observer(mode)
        base = make_engine("fast", plan.topology, plan.trees, parts,
                           telemetry=base_col).run()
        assert stats == base
        if col is not None:
            assert col.to_jsonl() == base_col.to_jsonl()

    def test_leap_exact_at_paper_scale_m(self):
        """At m where per-cycle engines are infeasible, pin the affine
        law cycles(m) = a*m + b that a period-P steady state implies, by
        measuring the slope at tractable sizes and extrapolating."""
        plan = get_plan(7, "low-depth")

        def cycles(m):  # m flits on every tree -> exactly affine in m
            flits = [m] * plan.num_trees
            return simulate_allreduce(
                plan.topology, plan.trees, flits, engine="leap"
            ).cycles

        m1, m2, big = 100_000, 200_000, 1_000_000
        c1, c2, cbig = cycles(m1), cycles(m2), cycles(big)
        # equal slopes, cross-multiplied to stay in exact integers
        assert (c2 - c1) * (big - m1) == (cbig - c1) * (m2 - m1)

    def test_leap_respects_max_cycles_mid_leap(self):
        """A leap may never overshoot max_cycles: the guard fires at the
        identical cycle as the fast engine even when a leap was armed."""
        plan = get_plan(7, "low-depth")
        flits = plan.partition(5_000)
        with pytest.raises(RuntimeError, match="exceeded 1000 cycles"):
            simulate_allreduce(
                plan.topology, plan.trees, flits, max_cycles=1_000, engine="leap"
            )

    @given(key=plan_keys(), m=st.integers(40, 400), cap=link_capacities(3),
           buf=st.sampled_from((None, 1, 2)),
           fault=st.one_of(st.none(), fault_specs(transient_only=True)),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_frontiers_equal_when_stopped_in_or_after_a_jump(
        self, key, m, cap, buf, fault, data
    ):
        """Stopped by ``max_cycles`` inside or just after a steady leap or
        a wavefront jump, the leap engine holds the fast engine's state:
        every frontier derived from ``sent`` and the grants in flight."""
        plan = get_plan(*key)
        parts = plan.partition(m)
        faults = None if fault is None else materialize_faults(plan, fault)

        def build(engine):
            return make_engine(engine, plan.topology, plan.trees, parts, cap,
                               buf, faults=faults)

        probe = build("leap")
        cycles = probe.run().cycles
        # a cycle inside a jump of the full run, or up to two past its end
        if probe.leap_log:
            start, period, k = data.draw(st.sampled_from(probe.leap_log))
            stop = data.draw(st.integers(start, start + period * k + 2))
        else:
            stop = data.draw(st.integers(0, cycles))
        got = {}
        for engine in ("fast", "leap"):
            sim = build(engine)
            try:
                sim.run(max_cycles=stop)
            except CycleLimitExceeded:
                pass
            got[engine] = observables(sim) + (tuple(sim.sent.tolist()),)
        assert got["leap"] == got["fast"]

    def test_terminal_outcome_parity_tight_credit(self):
        """Zero-progress periods are never leaped, so a run that stalls
        or completes under the tightest credit loop does so with the
        identical terminal outcome in every engine."""
        from repro.topology import Graph
        from repro.trees import SpanningTree

        g = Graph.from_edges(2, [(0, 1)])
        t = SpanningTree(0, {1: 0})
        outcomes = {}
        for engine in CYCLE_ENGINES:
            sim = make_engine(engine, g, [t], [4], buffer_size=1)
            try:
                stats = sim.run(max_cycles=100)
                outcomes[engine] = ("done", stats.cycles, sim.flits_moved)
            except RuntimeError as exc:
                outcomes[engine] = ("raise", str(exc), sim.flits_moved)
        assert len(set(outcomes.values())) == 1, outcomes


# ---------------------------------------------------- ring confirmation


class TestSteadyRings:
    """The ring detector confirms steady states from recorded rows; these
    pin its exactness where the jump bound has the most to license."""

    def test_rings_exact_under_faults(self):
        plan = get_plan(7, "low-depth")
        parts = plan.partition(800)
        faults = FaultSchedule([(plan_used_links(plan)[1], 10, 120)])
        base = simulate_allreduce(plan.topology, plan.trees, parts,
                                  engine="fast", faults=faults)
        sim = make_engine("leap", plan.topology, plan.trees, parts,
                          faults=faults)
        assert sim.run() == base
        assert sim.leap_log

    def test_rings_exact_with_buffers_and_capacity(self):
        plan = get_plan(5, "edge-disjoint")
        parts = plan.partition(700)
        base = simulate_allreduce(plan.topology, plan.trees, parts, 2,
                                  buffer_size=3, engine="fast")
        got = simulate_allreduce(plan.topology, plan.trees, parts, 2,
                                 buffer_size=3, engine="leap")
        assert got == base


class TestRingBudget:
    """The preallocated rings are charged, in bytes, against
    ``_VERIFY_BUDGET`` so ``P_MAX``-sized candidates never over-allocate
    on large embeddings — down to a detectable period of 2, the floor
    that keeps pipelined (period-2) steady states leapable."""

    def test_rings_fit_the_budget(self):
        # q=7 keeps the full P_MAX reach, q=19 is budget-bound, and q=25
        # is held at the floor
        for q, p_max in ((7, LeapCycleSimulator.P_MAX), (19, 4), (25, 2)):
            plan = get_plan(q, "low-depth")
            sim = LeapCycleSimulator(plan.topology, plan.trees,
                                     plan.partition(20))
            assert sim._p_max == p_max, q
            rings = sim._rings
            assert rings.R == 2 * p_max + 1
            # a row holds the ``sent`` counters only ...
            assert rings.nbytes == 8 * rings.R * sim._F
            assert p_max == 2 or rings.nbytes <= sim._VERIFY_BUDGET
        # ... but is charged at 4*T*n + 2F + C + 1 words, which at q=25
        # leaves room for period 1 only
        row = 8 * (4 * sim._T * sim.n + 2 * sim._F + sim._C + 1)
        assert sim._VERIFY_BUDGET // (2 * row) == 1

    def test_small_q_keeps_full_period_cap(self):
        # the budget only bites on large embeddings: q=5 keeps the full
        # P_MAX reach
        plan = get_plan(5, "low-depth")
        sim = LeapCycleSimulator(plan.topology, plan.trees, plan.partition(10))
        assert sim._p_max == LeapCycleSimulator.P_MAX

    @staticmethod
    def _run_exact(cls, scheme, mode, buffer_size=None):
        plan = get_plan(5, scheme)
        parts = plan.partition(900)
        sim = cls(plan.topology, plan.trees, parts, buffer_size=buffer_size,
                  telemetry=observer(mode))
        stats = sim.run()
        base = simulate_allreduce(plan.topology, plan.trees, parts,
                                  buffer_size=buffer_size, engine="fast")
        assert stats == base
        assert sim.leap_log
        leaped = sum(k * p for _, p, k in sim.leap_log)
        assert sim.stepped_cycles + leaped == stats.cycles
        return sim

    @pytest.mark.parametrize("mode", OBSERVERS)
    def test_exact_at_p_max_boundary(self, mode):
        # a tiny budget clamps _p_max to the floor of 2, which still
        # leaps low-depth's period-2 steady state; the engine must
        # degrade to fewer/shorter leaps, never to wrong answers
        class TinyBudget(LeapCycleSimulator):
            _VERIFY_BUDGET = 1

        tiny = self._run_exact(TinyBudget, "low-depth", mode)
        assert tiny._p_max == 2
        assert all(p <= 2 for _, p, _k in tiny.leap_log)

    @pytest.mark.parametrize("mode", OBSERVERS)
    def test_exact_at_period_1(self, mode):
        # P_MAX still caps below the floor: a reach of 1 leaps the
        # edge-disjoint period-1 steady state, exactly.  A finite buffer
        # keeps the plan off the contention-free wavefront jump, so the
        # rings do the leaping
        class PeriodOne(LeapCycleSimulator):
            P_MAX = 1

        one = self._run_exact(PeriodOne, "edge-disjoint", mode, buffer_size=4)
        assert one._p_max == 1
        assert all(p == 1 for _, p, _k in one.leap_log)


# --------------------------------------------------- wavefront jumps


def _outcome(sim, max_cycles=None):
    """Pickled stats of a run, or its guard error and the partial state
    it stopped in."""
    try:
        return pickle.dumps(sim.run(max_cycles))
    except CycleLimitExceeded as exc:
        return ("limit", str(exc), tuple(sim.sent.tolist())) + observables(sim)


class TestWavefrontJump:
    """Contention-free runs (one flow per channel, capacity 1, unbounded
    buffers, no faults, no collector) jump the fill and drain in closed
    form and step one cycle per tree completion; they must stay
    pickle-equal to the fast engine, stop at the same ``max_cycles``
    cycle, and account for every cycle as stepped or leapt."""

    @staticmethod
    def _check(g, trees, parts, max_cycles=None):
        fast = make_engine("fast", g, trees, parts)
        leap = make_engine("leap", g, trees, parts)
        assert _outcome(leap, max_cycles) == _outcome(fast, max_cycles)
        leapt = sum(k * p for _, p, k in leap.leap_log)
        assert leap.stepped_cycles + leapt == leap.cycle
        return leap

    @given(q=st.sampled_from((3, 5, 7)), k=st.integers(1, 3), seed=seeds(),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_spanning_trees(self, q, k, seed, data):
        # one random tree is always contention-free; two or three random
        # trees usually share a channel and must take the stepping path
        g = polarfly_graph(q).graph
        trees = random_spanning_trees(g, k, seed=seed)
        parts = data.draw(st.lists(st.integers(0, 60), min_size=k, max_size=k))
        leap = self._check(g, trees, parts)
        free = int(leap._lay.ch_k.max()) == 1
        assert (leap._wave_a is not None) == free
        if free:  # one stepped cycle per distinct completion at most
            assert leap.stepped_cycles <= sum(map(bool, parts))

    @given(q=st.sampled_from((3, 4, 5, 7, 8, 9, 11)), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_edge_disjoint_random_partitions(self, q, data):
        plan = get_plan(q, "edge-disjoint")
        T = plan.num_trees
        parts = data.draw(st.lists(st.integers(0, 400), min_size=T, max_size=T))
        leap = self._check(plan.topology, plan.trees, parts)
        assert leap._wave_a is not None
        assert leap.stepped_cycles <= T

    @given(q=st.sampled_from((3, 5, 7, 9)), m=st.integers(1, 2_000),
           frac=st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_max_cycles_below_completion(self, q, m, frac):
        plan = get_plan(q, "edge-disjoint")
        parts = plan.partition(m)
        cycles = make_engine("fast", plan.topology, plan.trees, parts).run().cycles
        limit = int(frac * (cycles - 1))
        leap = self._check(plan.topology, plan.trees, parts, max_cycles=limit)
        assert leap.cycle == limit + 1

    def test_collector_output_unchanged(self):
        # a collector keeps the run on the stepping path; its JSONL equals
        # the fast engine's byte for byte
        plan = get_plan(7, "edge-disjoint")
        parts = plan.partition(900)
        out = {}
        for engine in ("fast", "leap"):
            col = observer("python")
            sim = make_engine(engine, plan.topology, plan.trees, parts,
                              telemetry=col)
            out[engine] = (pickle.dumps(sim.run()), col.to_jsonl())
        assert sim._wave_a is None
        assert out["leap"] == out["fast"]

    def test_precondition_gates_the_jump(self):
        plan = get_plan(5, "edge-disjoint")
        g, trees, parts = plan.topology, plan.trees, plan.partition(300)
        assert LeapCycleSimulator(g, trees, parts)._wave_a is not None
        faults = FaultSchedule([(plan_used_links(plan)[0], 5, 10)])
        for kw in ({"link_capacity": 2}, {"buffer_size": 8}, {"faults": faults}):
            assert LeapCycleSimulator(g, trees, parts, **kw)._wave_a is None, kw
        low = get_plan(5, "low-depth")
        sim = LeapCycleSimulator(low.topology, low.trees, low.partition(300))
        assert sim._wave_a is None

    def test_divergence_raises(self):
        # the post-step check compares every stepped cycle with the
        # closed form.  Start tree 1's interior reduce flows one cycle
        # early: they outrun their children, so the first real step,
        # with tree 1 mid-stream, grants them nothing and must raise
        plan = get_plan(5, "edge-disjoint")
        parts = [50] + [5_000] * (plan.num_trees - 1)
        sim = LeapCycleSimulator(plan.topology, plan.trees, parts)
        lay, a = sim._lay, sim._wave_a
        a[(lay.flow_tree == 1) & lay.flow_is_reduce & (a > 1)] -= 1
        with pytest.raises(RuntimeError, match="wavefront closed form diverged"):
            sim.run()

    def test_deep_trees_step_once_per_completion(self):
        plan = get_plan(19, "edge-disjoint")
        sim = LeapCycleSimulator(plan.topology, plan.trees,
                                 plan.partition(400_000))
        stats = sim.run()
        done = sorted(set(stats.tree_completion))
        assert sim.stepped_cycles == len(done)
        assert [s + d + 1 for s, _, d in sim.leap_log] == done


# ------------------------------------------------------- compressed traces


class TestCompressedTrace:
    def test_expand_matches_reference_dense_trace(self):
        plan = get_plan(5, "low-depth")
        flits = plan.partition(600)
        dense = trace_allreduce(plan.topology, plan.trees, flits, engine="reference")
        comp = trace_allreduce(
            plan.topology, plan.trees, flits, engine="leap", compress=True
        )
        assert isinstance(comp, CompressedTrace)
        assert comp.cycles == dense.cycles
        expanded = comp.expand()
        assert expanded.activity == dense.activity
        # leaping must have actually compressed the run-length encoding
        assert any(repeat > 1 for repeat, _ in comp.blocks)

    def test_total_flits_conserved(self):
        plan = get_plan(5, "edge-disjoint")
        flits = plan.partition(900)
        comp = trace_allreduce(
            plan.topology, plan.trees, flits, engine="leap", compress=True
        )
        stats = simulate_allreduce(
            plan.topology, plan.trees, flits, engine="reference"
        )
        assert int(comp.total_flits().sum()) == stats.flits_moved

    def test_compress_flag_wraps_dense_engines(self):
        """Engines without native compression still honor compress=True
        by wrapping the dense columns in single-cycle runs."""
        plan = get_plan(3, "single")
        flits = plan.partition(40)
        comp = trace_allreduce(
            plan.topology, plan.trees, flits, engine="fast", compress=True
        )
        dense = trace_allreduce(plan.topology, plan.trees, flits, engine="fast")
        assert isinstance(comp, CompressedTrace)
        assert comp.expand().activity == dense.activity

    def test_utilization_matches_dense(self):
        plan = get_plan(5, "low-depth")
        flits = plan.partition(500)
        dense = trace_allreduce(plan.topology, plan.trees, flits, engine="reference")
        comp = trace_allreduce(
            plan.topology, plan.trees, flits, engine="leap", compress=True
        )
        for ch in dense.activity:
            assert comp.utilization(ch) == pytest.approx(dense.utilization(ch))


# ------------------------------------------------ satellite optimizations


def _link_loads_loop_reference(g, transcript):
    """The pre-vectorization accounting: nested Python loops."""
    out = []
    for rnd in transcript.rounds:
        load = {}
        for src, dst, nelem in rnd:
            for e in route_edges(g, src, dst):
                load[e] = load.get(e, 0) + nelem
        out.append(load)
    return out


class TestHostVectorization:
    def test_transcript_link_loads_matches_loop_reference(self):
        g = polarfly_graph(5).graph
        tr = Transcript("synthetic", g.n, 64)
        rng = np.random.default_rng(7)
        for _ in range(4):
            tr.begin_round()
            for _ in range(30):
                src, dst = rng.integers(0, g.n, size=2)
                if src != dst:
                    tr.send(int(src), int(dst), int(rng.integers(1, 9)))
        assert transcript_link_loads(g, tr) == _link_loads_loop_reference(g, tr)

    def test_empty_rounds_stay_empty(self):
        g = polarfly_graph(3).graph
        src, dst = sorted(g.edges)[0]
        tr = Transcript("synthetic", g.n, 8)
        tr.begin_round()
        tr.begin_round()
        tr.send(src, dst, 5)
        loads = transcript_link_loads(g, tr)
        assert loads[0] == {}
        assert loads[1] == {(src, dst): 5}


class TestTopologyCacheBounds:
    def test_polarfly_cache_is_bounded(self):
        info = polarfly_graph.cache_info()
        assert info.maxsize == 8

    def test_clear_hook(self):
        polarfly_graph(3)
        assert polarfly_graph.cache_info().currsize >= 1
        clear_polarfly_cache()
        assert polarfly_graph.cache_info().currsize == 0

    def test_sweep_runner_releases_caches(self):
        from repro.sweep import SweepRunner, cell

        clear_polarfly_cache()
        runner = SweepRunner(workers=0, cache=None)
        runner.run([cell("figure5_row", q=5)])
        assert polarfly_graph.cache_info().currsize == 0


class TestMeasuredAnalysis:
    def test_measured_bandwidth_validates(self):
        from repro.analysis.measured import measured_aggregate_bandwidth

        with pytest.raises(ValueError):
            measured_aggregate_bandwidth(5, "low-depth", 0)

    def test_figure5_row_measured_columns(self):
        from repro.analysis.figure5 import figure5_row

        plain = figure5_row(5)
        assert plain.lowdepth_measured_bw is None
        assert plain.hamiltonian_measured_bw is None
        measured = figure5_row(5, measured_m=2_000)
        assert measured.lowdepth_measured_bw is not None
        # fill/drain amortization: measured can only approach the
        # closed-form steady-state bandwidth from below
        assert 0.0 < measured.lowdepth_measured_bw <= plain.lowdepth_norm_bw
        assert measured.hamiltonian_measured_bw is not None

    def test_plan_metrics_measured_key_is_optional(self):
        from repro.analysis.crossover import plan_metrics

        assert "measured_bandwidth" not in plan_metrics(5, "low-depth")
        met = plan_metrics(5, "low-depth", measured_m=1_000)
        assert met["measured_bandwidth"] > 0
