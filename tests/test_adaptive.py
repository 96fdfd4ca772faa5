"""Congestion-aware re-planning: controller, plan surgery, invariants.

Three layers of guarantees:

- the controller state machine in isolation (synthetic probes through a
  stub engine): dwell, low-water release, the spare-capacity gate, the
  queue trigger, the churn bound and the cooldown shadow;
- :func:`repro.core.faults.demoted_plan` surgery: migrated trees avoid
  the demoted links, indices/roots survive, validation errors;
- the closed loop (:func:`repro.simulator.adaptive.run_adaptive`): an
  attached-but-never-triggered controller leaves runs byte-identical to
  plain runs, the deterministic q=7 skewed scenario completes strictly
  faster with the controller on (and fires nothing on a balanced run),
  both per-cycle engines produce the identical adaptive run, and the
  hypothesis invariant that no two episodes ever fire within one
  cooldown window.
"""

import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandwidth import optimal_partition
from repro.core.faults import demoted_plan
from repro.core.plancache import get_plan
from repro.analysis.adaptive import adaptive_row, skewed_partition
from repro.simulator import simulate_allreduce
from repro.simulator.adaptive import (
    ADAPTIVE_ENGINES,
    AdaptivePolicy,
    CongestionController,
    ReplanSignal,
    run_adaptive,
)
from repro.simulator.recovery import RecoveryError
from repro.telemetry import Collector
from repro.telemetry.collector import Probe
from repro.topology.graph import canonical_edge

Q = 7
M = 600


def _skewed(plan, m=M):
    """Everything on tree 0 — the canonical congestion storm."""
    return [m] + [0] * (plan.num_trees - 1)


#: thresholds the canonical q=7/q=5 scenarios are calibrated against
SCENARIO = AdaptivePolicy()

#: attached but inert: the dwell requirement is unreachable, so the
#: controller observes every window yet never fires
PASSIVE = AdaptivePolicy(dwell=10**6)


# --------------------------------------------------------------------------
# controller state machine on synthetic probes


def _stub_engine(capacity=1, channels=None, edges=None):
    """By default two physical links 0-1, 1-2; one tree using both."""
    if channels is None:
        channels = [(0, 1), (1, 0), (1, 2), (2, 1)]
        edges = {(0, 1), (1, 2)}
    tree = SimpleNamespace(edges=frozenset(edges))
    return SimpleNamespace(
        capacity=capacity, channels=lambda: list(channels), trees=[tree]
    )


def _probe(i, link_flits, queue=(0, 0, 0), sample_every=16):
    cycle = (i + 1) * sample_every
    return Probe(
        cycle=cycle,
        abs_cycle=cycle,
        link_flits=tuple(link_flits),
        queue=tuple(queue),
    )


def _feed(controller, flit_rows, sample_every=16, queue_rows=None):
    """Run probe windows through the controller; returns the signal."""
    controller.on_leg(_stub_engine(), 0)
    for i, flits in enumerate(flit_rows):
        queue = queue_rows[i] if queue_rows else (0, 0, 0)
        controller.on_sample(_probe(i, flits, queue, sample_every))
    return None


HOT = (16, 16, 0, 0)  # link (0,1) saturated both ways, (1,2) idle
COLD = (0, 0, 0, 0)
MID = (8, 8, 0, 0)  # between the water marks for link (0,1)


class TestCongestionController:
    def test_fires_after_exactly_dwell_hot_windows(self):
        pol = AdaptivePolicy(dwell=3, sample_every=16)
        ctl = CongestionController(pol)
        with pytest.raises(ReplanSignal) as exc:
            _feed(ctl, [HOT, HOT, HOT])
        assert exc.value.hot_links == ((0, 1),)
        assert exc.value.cycle == 48  # fired on the third window
        assert exc.value.onset_cycle == 1  # first hot window starts at 1
        assert ctl.decisions == [(48, ((0, 1),))]

    def test_two_hot_windows_do_not_fire(self):
        ctl = CongestionController(AdaptivePolicy(dwell=3, sample_every=16))
        _feed(ctl, [HOT, HOT])
        assert ctl.windows == 2 and not ctl.decisions

    def test_low_water_release_resets_the_streak(self):
        ctl = CongestionController(AdaptivePolicy(dwell=3, sample_every=16))
        _feed(ctl, [HOT, HOT, COLD, HOT, HOT])  # never 3 in a row
        assert not ctl.decisions

    def test_between_the_marks_holds_but_does_not_grow(self):
        pol = AdaptivePolicy(dwell=3, util_low=0.3, sample_every=16)
        ctl = CongestionController(pol)
        # MID windows (util 0.5) neither reset nor advance the streak...
        _feed(ctl, [HOT, MID, MID, MID, HOT])
        assert not ctl.decisions
        # ...so one more hot window completes the dwell
        with pytest.raises(ReplanSignal):
            ctl.on_sample(_probe(5, HOT))

    def test_spare_gate_blocks_a_uniformly_busy_fabric(self):
        # all four channels saturated: mean utilization 1.0 > spare_low —
        # healthy pipelining, not congestion
        ctl = CongestionController(AdaptivePolicy(dwell=1, sample_every=16))
        _feed(ctl, [(16, 16, 16, 16)] * 5)
        assert not ctl.decisions

    def test_queue_trigger_marks_incident_tree_links(self):
        pol = AdaptivePolicy(dwell=1, queue_high=4, sample_every=16)
        ctl = CongestionController(pol)
        with pytest.raises(ReplanSignal) as exc:
            # no link is hot by utilization, but router 1's queue is deep:
            # both tree links incident to it get marked
            _feed(ctl, [COLD], queue_rows=[(0, 5, 0)])
        assert exc.value.hot_links == ((0, 1), (1, 2))

    def test_max_demote_truncates_to_the_ripest(self):
        # spare_low=1 disables the gate: on a 4-channel stub two hot
        # links necessarily push the mean past any meaningful threshold
        pol = AdaptivePolicy(
            dwell=1, max_demote=1, spare_low=1.0, sample_every=16
        )
        ctl = CongestionController(pol)
        with pytest.raises(ReplanSignal) as exc:
            # both links above high water, (0,1) the hotter
            _feed(ctl, [(16, 16, 15, 0)])
        assert exc.value.hot_links == ((0, 1),)

    def test_cooldown_shadow_blocks_refiring(self):
        pol = AdaptivePolicy(dwell=1, cooldown=100, sample_every=16)
        ctl = CongestionController(pol)
        with pytest.raises(ReplanSignal):
            _feed(ctl, [HOT])
        # windows at abs cycles 32..112 sit inside the shadow (16 + 100)
        for i in range(1, 7):
            ctl.on_sample(_probe(i, HOT))
        with pytest.raises(ReplanSignal):  # abs 128 > 116: re-armed
            ctl.on_sample(_probe(7, HOT))
        assert [c for c, _ in ctl.decisions] == [16, 128]

    def test_disarmed_controller_observes_without_firing(self):
        ctl = CongestionController(AdaptivePolicy(dwell=1), armed=False)
        _feed(ctl, [HOT] * 10)
        assert ctl.windows == 10 and not ctl.decisions

    def test_policy_validation(self):
        for bad in (
            dict(util_high=0.0),
            dict(util_high=1.5),
            dict(util_low=0.9, util_high=0.8),
            dict(spare_low=0.0),
            dict(queue_high=0),
            dict(dwell=0),
            dict(max_demote=0),
            dict(cooldown=-1),
            dict(penalty=0),
            dict(penalty=2),
            dict(sample_every=0),
            dict(max_episodes=-1),
        ):
            with pytest.raises(ValueError):
                AdaptivePolicy(**bad)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("dwell", 2.5),
            ("max_demote", 1.5),
            ("sample_every", 16.0),
            ("cooldown", 256.0),
            ("queue_high", 4.0),
            ("max_episodes", 2.5),
        ],
    )
    def test_policy_rejects_non_integer_counts(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            AdaptivePolicy(**{field: value})


# --------------------------------------------------------------------------
# differential: the array controller against the per-link reference


class _PerLinkController:
    """The controller's per-link Python classification, kept verbatim as
    the oracle of the array one: utilization, link maxima, the hot set
    and the mean gate one channel and one link at a time."""

    def __init__(self, policy, armed=True):
        self.policy = policy
        self.armed = armed
        self.windows = 0
        self.decisions = []
        self._capacity = 1
        self._edge_dirs = {}
        self._incident = {}
        self._dwell = {}
        self._onset = {}
        self._cooldown_until = -1

    def on_leg(self, engine, leg):
        self._capacity = int(engine.capacity)
        dirs = {}
        for i, (u, v) in enumerate(engine.channels()):
            dirs.setdefault(canonical_edge(u, v), []).append(i)
        self._edge_dirs = {e: tuple(ix) for e, ix in dirs.items()}
        incident = {}
        for t in engine.trees:
            for e in t.edges:
                for v in e:
                    incident.setdefault(v, []).append(e)
        self._incident = {v: tuple(sorted(set(es))) for v, es in incident.items()}
        self._dwell = {}
        self._onset = {}

    def on_sample(self, probe):
        p = self.policy
        self.windows += 1
        denom = p.sample_every * self._capacity
        util = [f / denom for f in probe.link_flits]
        mean_util = sum(util) / len(util) if util else 0.0
        edge_util = {
            e: max(util[i] for i in ix) for e, ix in self._edge_dirs.items()
        }
        hot = {e for e, u in edge_util.items() if u >= p.util_high}
        if mean_util > p.spare_low:
            hot.clear()
        if p.queue_high is not None:
            for v, occ in enumerate(probe.queue):
                if occ >= p.queue_high:
                    hot.update(self._incident.get(v, ()))
        window_start = probe.abs_cycle - p.sample_every + 1
        for e in list(self._dwell):
            if e in hot:
                continue
            if edge_util.get(e, 0.0) <= p.util_low:
                del self._dwell[e]
                del self._onset[e]
        for e in hot:
            if e not in self._dwell:
                self._onset[e] = window_start
                self._dwell[e] = 0
            self._dwell[e] += 1
        if not self.armed:
            return
        if probe.abs_cycle <= self._cooldown_until:
            return
        ripe = sorted(e for e, d in self._dwell.items() if d >= p.dwell)
        if not ripe:
            return
        if p.max_demote is not None and len(ripe) > p.max_demote:
            ripe = sorted(
                ripe,
                key=lambda e: (-self._dwell[e], -edge_util.get(e, 0.0), e),
            )[: p.max_demote]
            ripe.sort()
        onset = min(self._onset[e] for e in ripe)
        self._cooldown_until = probe.abs_cycle + p.cooldown
        self.decisions.append((probe.abs_cycle, tuple(ripe)))
        raise ReplanSignal(probe.cycle, ripe, onset)


@st.composite
def _controller_case(draw, capacity, sample_every, queue_trigger):
    # a random tree on up to 8 routers, its channels in shuffled order
    # (some links carry one direction only)
    n = draw(st.integers(min_value=2, max_value=8))
    label = draw(st.permutations(range(n)))
    edges = {
        canonical_edge(label[draw(st.integers(0, v - 1))], label[v])
        for v in range(1, n)
    }
    channels = []
    for u, v in sorted(edges):
        channels += draw(st.sampled_from([[(u, v), (v, u)], [(u, v)], [(v, u)]]))
    channels = draw(st.permutations(channels))
    denom = capacity * sample_every
    # windows: per-channel flits, per-router queues, and whether a new
    # leg (a fresh on_leg) starts before the window
    windows = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.integers(0, denom),
                    min_size=len(channels),
                    max_size=len(channels),
                ),
                st.lists(st.integers(0, 6), min_size=n, max_size=n),
                st.booleans() if draw(st.booleans()) else st.just(False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    # thresholds on the utilization grid, often on a utilization some
    # channel really reaches, so the marks' ties happen; the spare gate
    # sometimes sits exactly on one window's fabric mean (the sequential
    # float sum)
    levels = [k / denom for k in range(denom + 1)]
    seen = sorted({f / denom for w in windows for f in w[0]} - {0.0})
    marks = [0.0] + seen if seen and draw(st.booleans()) else levels
    util_high = draw(st.sampled_from([u for u in marks if u > 0]))
    util_low = draw(st.sampled_from([u for u in marks if u < util_high]))
    means = [sum(f / denom for f in w[0]) / len(w[0]) for w in windows]
    means = [m for m in means if 0 < m <= 1]
    if means and draw(st.booleans()):
        spare_low = draw(st.sampled_from(means))
    else:
        spare_low = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    policy = AdaptivePolicy(
        util_high=util_high,
        util_low=util_low,
        spare_low=spare_low,
        queue_high=draw(st.integers(1, 6)) if queue_trigger else None,
        dwell=draw(st.integers(1, 3)),
        max_demote=draw(st.sampled_from([None, 1, 2])),
        cooldown=draw(st.integers(0, 3 * sample_every)),
        sample_every=sample_every,
    )
    engine = _stub_engine(capacity, channels, edges)
    return policy, engine, windows, draw(st.booleans())


def _replay(controller, engine, windows, sample_every):
    """Feed the windows; -> each window's ReplanSignal fields (or None)."""
    out = []
    leg = 0
    controller.on_leg(engine, leg)
    for i, (flits, queue, new_leg) in enumerate(windows):
        if new_leg:
            leg += 1
            controller.on_leg(engine, leg)
        try:
            controller.on_sample(_probe(i, flits, queue, sample_every))
            out.append(None)
        except ReplanSignal as sig:
            out.append((sig.cycle, sig.hot_links, sig.onset_cycle))
    return out


class TestArrayControllerDifferential:
    """The array controller decides exactly as the per-link reference on
    random probe streams: every signal, decision and window count."""

    # (1, 16) makes every utilization dyadic; (3, 10) does not, so only
    # there does the mean gate's summation order show
    @pytest.mark.parametrize("capacity,sample_every", [(1, 16), (3, 10)])
    @pytest.mark.parametrize("queue_trigger", [False, True])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_per_link_reference(
        self, capacity, sample_every, queue_trigger, data
    ):
        policy, engine, windows, armed = data.draw(
            _controller_case(capacity, sample_every, queue_trigger)
        )
        ctl = CongestionController(policy, armed=armed)
        ref = _PerLinkController(policy, armed=armed)
        got = _replay(ctl, engine, windows, sample_every)
        assert got == _replay(ref, engine, windows, sample_every)
        assert ctl.decisions == ref.decisions
        assert ctl.windows == ref.windows == len(windows)

    def test_mean_gate_sums_like_the_reference(self):
        # 14 channels at a denominator of 30: NumPy's pairwise sum of
        # these utilizations lands one ulp above the sequential sum, so a
        # gate set exactly at the builtin mean separates the two
        channels = [c for v in range(7) for c in ((v, v + 1), (v + 1, v))]
        engine = _stub_engine(3, channels, {(v, v + 1) for v in range(7)})
        flits = [30, 30, 27, 25, 24, 2, 8, 3, 15, 24, 14, 15, 20, 12]
        mean = sum(f / 30 for f in flits) / len(flits)
        policy = AdaptivePolicy(dwell=1, spare_low=mean, sample_every=10)
        windows = [(flits, [0] * 8, False)]
        ref = _replay(_PerLinkController(policy), engine, windows, 10)
        got = _replay(CongestionController(policy), engine, windows, 10)
        assert got == ref == [(10, ((0, 1), (1, 2)), 1)]


# --------------------------------------------------------------------------
# demoted_plan surgery


class TestDemotedPlan:
    def test_migrated_trees_avoid_demoted_links(self):
        plan = get_plan(Q, "low-depth")
        hot = sorted(plan.trees[0].edges)[:8]
        new = demoted_plan(plan, hot)
        assert new.scheme == "low-depth+demoted"
        assert new.topology is plan.topology  # demoted, not dead
        assert new.num_trees == plan.num_trees
        assert [t.root for t in new.trees] == [t.root for t in plan.trees]
        bad = set(hot)
        rebuilt = [
            i
            for i in range(plan.num_trees)
            if new.trees[i].edges != plan.trees[i].edges
        ]
        assert rebuilt  # something actually migrated
        for i in range(plan.num_trees):
            if i in rebuilt:
                assert not (new.trees[i].edges & bad)
        # the plan stays runnable end to end
        stats = simulate_allreduce(
            new.topology, new.trees, new.partition(120), engine="fast"
        )
        assert stats.cycles > 0

    def test_disconnecting_set_keeps_trees_but_penalizes_bandwidth(self):
        plan = get_plan(Q, "low-depth")
        hot = sorted(plan.trees[0].edges)[:16]  # disconnecting set
        new = demoted_plan(plan, hot, penalty=Fraction(1, 4))
        # residual disconnected: trees kept, only bandwidths re-filled
        assert all(
            new.trees[i].edges == plan.trees[i].edges
            for i in range(plan.num_trees)
        )
        assert sum(new.bandwidths) < sum(plan.bandwidths)
        assert all(b > 0 for b in new.bandwidths)
        # a harsher penalty can only lower the re-fill further
        half = demoted_plan(plan, hot, penalty=Fraction(1, 2))
        assert sum(new.bandwidths) <= sum(half.bandwidths)

    def test_penalty_shifts_the_partition_off_unshared_links(self):
        # demote links only tree 0 crosses: its bandwidth drops, the
        # others' survive, and Equation 2 moves elements off tree 0
        plan = get_plan(Q, "low-depth")
        others = set().union(*(t.edges for t in plan.trees[1:]))
        private = sorted(plan.trees[0].edges - others)
        if not private:
            pytest.skip("embedding has no tree-0-private links")
        new = demoted_plan(plan, private[:4], penalty=Fraction(1, 4))
        if new.trees[0].edges != plan.trees[0].edges:
            return  # tree 0 migrated entirely off the demoted links
        old_parts = optimal_partition(M, plan.bandwidths)
        new_parts = optimal_partition(M, new.bandwidths)
        assert new_parts[0] < old_parts[0]

    def test_validation_errors(self):
        plan = get_plan(5, "low-depth")
        e = sorted(plan.trees[0].edges)[0]
        with pytest.raises(ValueError):
            demoted_plan(plan, [e, e])  # duplicate
        with pytest.raises(ValueError):
            demoted_plan(plan, [e], penalty=Fraction(3, 2))
        with pytest.raises(ValueError):
            demoted_plan(plan, [(0, plan.topology.n + 5)])  # not a link


# --------------------------------------------------------------------------
# closed loop: differential and the deterministic scenario


class TestControllerOffByteIdentity:
    @pytest.mark.parametrize("engine", ADAPTIVE_ENGINES)
    def test_untriggered_run_is_byte_identical(self, engine):
        plan = get_plan(Q, "low-depth")
        parts = plan.partition(M)

        plain_col = Collector(sample_every=PASSIVE.sample_every)
        plain = simulate_allreduce(
            plan.topology, plan.trees, parts, engine=engine, telemetry=plain_col
        )

        tapped_col = Collector(sample_every=PASSIVE.sample_every)
        ctl = CongestionController(PASSIVE)
        res = run_adaptive(
            plan,
            m_per_tree=parts,
            policy=PASSIVE,
            engine=engine,
            telemetry=tapped_col,
            controller=ctl,
        )

        assert res.episodes == () and not ctl.decisions
        assert ctl.windows > 0  # the tap really saw the run
        # engine outcome identical down to the pickle
        assert pickle.dumps(res.stats) == pickle.dumps(plain)
        # telemetry stream identical down to the bytes
        assert tapped_col.to_jsonl() == plain_col.to_jsonl()

    def test_untriggered_trace_matches_plain_engine(self):
        from repro.simulator.engine import make_engine

        plan = get_plan(Q, "low-depth")
        parts = plan.partition(M)
        col = Collector(sample_every=PASSIVE.sample_every)
        col.set_tap(CongestionController(PASSIVE))
        tapped = make_engine(
            "fast", plan.topology, plan.trees, parts, 1, None, telemetry=col
        )
        tapped.run()
        plain = make_engine("fast", plan.topology, plan.trees, parts, 1, None)
        plain.run()
        assert list(tapped.channel_flit_counts()) == list(
            plain.channel_flit_counts()
        )
        assert list(tapped.delivered_floor()) == list(plain.delivered_floor())


class TestHotLinkScenario:
    def test_replanning_strictly_beats_static_on_skew(self):
        plan = get_plan(Q, "low-depth")
        parts = _skewed(plan)
        static = simulate_allreduce(
            plan.topology, plan.trees, parts, engine="fast"
        )
        res = run_adaptive(plan, m_per_tree=parts, policy=SCENARIO, engine="fast")
        assert len(res.episodes) == 1
        ep = res.episodes[0]
        assert ep.kind == "congestion" and ep.policy == "demoted"
        assert 0 < len(ep.failed_links) <= SCENARIO.max_demote
        assert ep.trees_regrown > 0  # subtrees actually migrated
        assert res.total_cycles < static.cycles  # the acceptance criterion
        assert res.final_scheme == "low-depth+demoted"
        # conservation: kept floors + the re-partitioned pool cover m
        assert ep.flits_delivered + sum(res.stats.flits_per_tree) == M
        assert res.flits_total == M

    def test_uncontended_run_fires_zero_episodes(self):
        plan = get_plan(Q, "low-depth")
        res = run_adaptive(plan, m=M, policy=SCENARIO, engine="fast")
        balanced = simulate_allreduce(
            plan.topology, plan.trees, plan.partition(M), engine="fast"
        )
        assert res.episodes == ()
        assert res.total_cycles == balanced.cycles

    def test_both_engines_produce_the_identical_adaptive_run(self):
        plan = get_plan(Q, "low-depth")
        parts = _skewed(plan)
        runs = [
            run_adaptive(plan, m_per_tree=parts, policy=SCENARIO, engine=e)
            for e in ADAPTIVE_ENGINES
        ]
        assert runs[0].total_cycles == runs[1].total_cycles
        assert runs[0].episodes == runs[1].episodes
        assert runs[0].decisions == runs[1].decisions
        assert pickle.dumps(runs[0].stats) == pickle.dumps(runs[1].stats)

    def test_adaptive_row_matches_direct_runs(self):
        row = adaptive_row(Q)
        assert row.speedup > 1.0
        assert row.episodes == 1
        assert row.adaptive_cycles >= row.balanced_cycles

    def test_rejects_engines_that_cannot_host_the_controller(self):
        plan = get_plan(5, "low-depth")
        for engine in ("leap", "batched"):
            with pytest.raises(ValueError, match="cannot host"):
                run_adaptive(plan, m=50, engine=engine)

    def test_rejects_mismatched_collector_and_workload_spec(self):
        plan = get_plan(5, "low-depth")
        with pytest.raises(ValueError, match="calibrated"):
            run_adaptive(plan, m=50, telemetry=Collector(sample_every=64))
        with pytest.raises(ValueError, match="exactly one"):
            run_adaptive(plan, m=50, m_per_tree=[50, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="exactly one"):
            run_adaptive(plan)
        with pytest.raises(ValueError, match="entries"):
            run_adaptive(plan, m_per_tree=[50])

    def test_telemetry_stream_records_the_congestion_episode(self):
        from repro.telemetry import loads_telemetry

        plan = get_plan(Q, "low-depth")
        col = Collector(sample_every=SCENARIO.sample_every)
        res = run_adaptive(
            plan,
            m_per_tree=_skewed(plan),
            policy=SCENARIO,
            engine="fast",
            telemetry=col,
        )
        run = loads_telemetry(col.to_jsonl())
        assert len(run.legs) == len(res.episodes) + 1 == 2
        ep = run.episodes[0]
        assert ep["kind"] == "congestion" and ep["policy"] == "demoted"
        assert ep["detect_cycle"] == res.episodes[0].detect_cycle
        assert run.end and run.end["completed"]


# --------------------------------------------------------------------------
# hypothesis: hysteresis never fires twice within one cooldown


class TestHysteresisInvariant:
    @given(
        dwell=st.integers(min_value=1, max_value=3),
        cooldown=st.integers(min_value=32, max_value=512),
        sample_every=st.sampled_from([8, 16, 32]),
        skew=st.floats(min_value=0.5, max_value=1.0),
        m=st.integers(min_value=200, max_value=700),
    )
    @settings(max_examples=20, deadline=None)
    def test_episodes_respect_the_cooldown(
        self, dwell, cooldown, sample_every, skew, m
    ):
        plan = get_plan(5, "low-depth")
        policy = AdaptivePolicy(
            dwell=dwell,
            cooldown=cooldown,
            sample_every=sample_every,
            max_episodes=16,
        )
        ctl = CongestionController(policy)
        parts = skewed_partition(plan, m, skew)
        try:
            res = run_adaptive(
                plan,
                m_per_tree=parts,
                policy=policy,
                engine="fast",
                controller=ctl,
            )
        except RecoveryError:
            res = None  # episode budget blown: the spacing must still hold
        fired = [cycle for cycle, _ in ctl.decisions]
        for a, b in zip(fired, fired[1:]):
            assert b - a > cooldown
        if res is not None:
            assert len(res.episodes) == len(fired)
            assert res.flits_total == m
            detects = [e.detect_cycle for e in res.episodes]
            assert detects == sorted(detects)
            for e in res.episodes:
                assert e.fault_cycle <= e.detect_cycle


# --------------------------------------------------------------------------
# analysis grid, report rendering and the CLI front end


class TestAnalysisAndCli:
    def test_render_adaptive_carries_the_row(self):
        from repro.analysis.adaptive import render_adaptive

        row = adaptive_row(5, m=300)
        text = render_adaptive([row])
        assert "E-A18" in text
        assert str(row.static_cycles) in text
        assert str(row.adaptive_cycles) in text
        assert f"{row.speedup:.2f}x" in text

    def test_adaptive_cells_target_the_registered_task(self):
        from repro.analysis.adaptive import adaptive_cells
        from repro.sweep.tasks import resolve

        cells = adaptive_cells(qs=(5, 7), skews=(0.7, 1.0))
        assert len(cells) == 4
        assert all(c.task == "adaptive_row" for c in cells)
        assert resolve("adaptive_row") is adaptive_row
        assert [(c.kwargs["q"], c.kwargs["skew"]) for c in cells] == [
            (5, 0.7), (5, 1.0), (7, 0.7), (7, 1.0),
        ]

    def test_skewed_partition_rejects_bad_skew(self):
        plan = get_plan(5, "low-depth")
        with pytest.raises(ValueError, match="skew"):
            skewed_partition(plan, 100, 1.5)

    def test_cli_adapt_smoke(self, capsys):
        from repro.cli import main

        assert main(["adapt", "5", "-m", "300"]) == 0
        out = capsys.readouterr().out
        assert "static (skewed, no controller)" in out
        assert "adaptive:" in out
        assert "balanced-partition oracle" in out

    def test_cli_adapt_quiet_when_spare_gate_blocks(self, capsys):
        from repro.cli import main

        assert main(["adapt", "5", "-m", "300", "--skew", "0"]) == 0
        out = capsys.readouterr().out
        assert "controller never fired" in out
