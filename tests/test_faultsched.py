"""FaultSchedule semantics and the mid-flight recovery runtime."""

import re

import numpy as np
import pytest

from repro.core import build_plan
from repro.simulator import (
    FaultEvent,
    FaultSchedule,
    RecoveryError,
    SimulationStalled,
    run_with_recovery,
    simulate_allreduce,
)

from tests.strategies import plan_used_links


class TestFaultScheduleConstruction:
    def test_tuple_and_event_forms_agree(self):
        a = FaultSchedule([((3, 7), 40)])
        b = FaultSchedule([FaultEvent((3, 7), 40)])
        c = FaultSchedule.single((3, 7), 40)
        assert a == b == c
        assert len(a) == 1 and bool(a)

    def test_edges_canonicalized(self):
        assert FaultSchedule([((7, 3), 40)]) == FaultSchedule([((3, 7), 40)])
        assert FaultSchedule([((7, 3), 40)]).edges() == frozenset({(3, 7)})

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            FaultSchedule([((4, 4), 10)])

    def test_rejects_nonpositive_down(self):
        with pytest.raises(ValueError, match=">= 1"):
            FaultSchedule([((0, 1), 0)])

    def test_rejects_up_before_down(self):
        with pytest.raises(ValueError, match="after"):
            FaultSchedule([((0, 1), 10, 10)])

    def test_rejects_duplicate_window(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultSchedule([((0, 1), 10, 20), ((1, 0), 10, 20)])

    def test_rejects_overlapping_windows(self):
        with pytest.raises(ValueError, match="overlapping"):
            FaultSchedule([((0, 1), 10, 30), ((0, 1), 20, 40)])
        with pytest.raises(ValueError, match="overlapping"):
            # a permanent failure overlaps everything after it
            FaultSchedule([((0, 1), 10), ((0, 1), 50, 60)])

    def test_disjoint_windows_on_same_edge_ok(self):
        fs = FaultSchedule([((0, 1), 10, 20), ((0, 1), 20, 30)])
        assert len(fs) == 2

    def test_hashable_and_usable_as_key(self):
        fs = FaultSchedule([((0, 1), 10, 20)])
        assert {fs: 1}[FaultSchedule([((1, 0), 10, 20)])] == 1

    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule([])

    @pytest.mark.parametrize("build,exc,match", [
        (lambda: FaultSchedule([((0, 1), 3.5)]), TypeError, "down cycle"),
        (lambda: FaultSchedule.single((0, 1), 2.5), TypeError, "down cycle"),
        (lambda: FaultSchedule([((0, 1), 3, 7.0)]), TypeError, "up cycle"),
        (lambda: FaultSchedule([FaultEvent((0, 1), 3.5)]), TypeError,
         "down cycle"),
        (lambda: FaultSchedule([((0.0, 1), 3)]), TypeError, "edge endpoint"),
        (lambda: FaultSchedule([((0, 1, 2), 3)]), ValueError, "(u, v) pair"),
    ], ids=["down", "single-down", "up", "event-down", "endpoint", "3-edge"])
    def test_rejects_non_integer_windows(self, build, exc, match):
        # never truncated: 3.5 must not fail the link at cycle 3
        with pytest.raises(exc, match=re.escape(match)):
            build()

    def test_numpy_integers_normalize_to_ints(self):
        fs = FaultSchedule([((np.int64(7), np.int32(3)), np.int64(40), np.int64(90))])
        (ev,) = fs.events
        assert fs == FaultSchedule([((3, 7), 40, 90)])
        assert all(type(x) is int for x in (*ev.edge, ev.down, ev.up))


class TestFaultScheduleQueries:
    def test_down_edges_segments(self):
        fs = FaultSchedule([((0, 1), 10, 20), ((2, 3), 15)])
        assert fs.down_edges_at(9) == frozenset()
        assert fs.down_edges_at(10) == {(0, 1)}
        assert fs.down_edges_at(15) == {(0, 1), (2, 3)}
        assert fs.down_edges_at(19) == {(0, 1), (2, 3)}
        assert fs.down_edges_at(20) == {(2, 3)}
        assert fs.down_edges_at(10**9) == {(2, 3)}

    def test_event_and_revival_queries(self):
        fs = FaultSchedule([((0, 1), 10, 20), ((2, 3), 15)])
        assert fs.event_cycles() == (10, 15, 20)
        assert fs.horizon == 20
        assert fs.next_event_after(0) == 10
        assert fs.next_event_after(15) == 20
        assert fs.next_event_after(20) is None
        # only cycle 20 is a revival
        assert fs.next_revival_after(0) == 20
        assert fs.next_revival_after(19) == 20
        assert fs.next_revival_after(20) is None
        assert [c for c in range(25) if fs.changes_at(c)] == [10, 15, 20]

    def test_validate_against_topology(self):
        plan = build_plan(3, "low-depth")
        edge = plan_used_links(plan)[0]
        FaultSchedule.single(edge, 5).validate_against(plan.topology)
        with pytest.raises(ValueError, match="non-links"):
            FaultSchedule.single((0, 1), 5).validate_against(plan.topology)

    def test_after_rebases_and_drops(self):
        fs = FaultSchedule([((0, 1), 10), ((2, 3), 50, 70), ((4, 5), 5, 8)])
        nxt = fs.after(30, drop_edges=[(0, 1)])
        # the elapsed transient and the dropped permanent are gone; the
        # future window shifts left by 30
        assert nxt == FaultSchedule([((2, 3), 20, 40)])
        # an active permanent failure stays active from cycle 1
        assert fs.after(30) == FaultSchedule([((0, 1), 1), ((2, 3), 20, 40)])


class TestRecoveryRuntime:
    def _plan(self):
        return build_plan(3, "low-depth")

    def test_no_faults_no_episodes(self):
        plan = self._plan()
        res = run_with_recovery(plan, 60, None)
        assert not res.recovered and res.episodes == ()
        clean = simulate_allreduce(
            plan.topology, plan.trees, plan.partition(60), engine="leap"
        )
        assert res.total_cycles == clean.cycles
        assert res.bandwidth_before == res.bandwidth_after

    def test_transient_rides_out_without_replan(self):
        plan = self._plan()
        edge = plan_used_links(plan)[0]
        res = run_with_recovery(plan, 60, FaultSchedule.single(edge, 5, up=25))
        assert res.episodes == ()
        assert res.final_scheme == plan.scheme

    @pytest.mark.parametrize("policy", ["repaired", "degraded", "auto"])
    def test_permanent_fault_recovers(self, policy):
        plan = self._plan()
        edge = plan_used_links(plan)[0]
        res = run_with_recovery(
            plan, 60, FaultSchedule.single(edge, 7), policy=policy
        )
        assert res.recovered and len(res.episodes) == 1
        ep = res.episodes[0]
        assert ep.fault_cycle == 7
        assert ep.detect_cycle > 7 and ep.cycles_to_detect > 0
        assert ep.failed_links == (edge,)
        assert res.total_cycles == ep.detect_cycle + res.recovery_cycles
        assert res.flits_redone == ep.flits_redone >= 0
        # the re-planned leg runs on a topology without the dead link
        if policy == "repaired":
            assert res.final_num_trees == plan.num_trees
        else:
            assert res.final_num_trees < plan.num_trees

    def test_recovery_engine_independent(self):
        plan = self._plan()
        edge = plan_used_links(plan)[0]
        fs = FaultSchedule.single(edge, 7)
        runs = [
            run_with_recovery(plan, 60, fs, engine=e)
            for e in ("reference", "fast", "leap")
        ]
        assert len({r.total_cycles for r in runs}) == 1
        assert len({r.episodes for r in runs}) == 1

    def test_cascading_failures_two_episodes(self):
        from repro.core.faults import repaired_plan

        plan = build_plan(5, "edge-disjoint")
        first = plan_used_links(plan)[0]
        # after the first repair only the replacement tree still carries
        # leftover work, so the second failure (landing mid-way through
        # the recovered leg; the first stall detects around cycle 130)
        # must sever one of *its* links to force another episode
        replacement = repaired_plan(plan, [first]).trees[-1]
        second = sorted(replacement.edges)[0]
        fs = FaultSchedule([(first, 10), (second, 180)])
        res = run_with_recovery(plan, 300, fs, policy="repaired")
        assert len(res.episodes) == 2
        assert res.episodes[0].detect_cycle < res.episodes[1].fault_cycle
        assert res.episodes[1].detect_cycle < res.total_cycles

    def test_workload_conserved_across_replan(self):
        # every element is either delivered before the stall or re-run
        # on the new plan: delivered + final-leg workload == m + redone
        plan = self._plan()
        edge = plan_used_links(plan)[0]
        res = run_with_recovery(plan, 60, FaultSchedule.single(edge, 7))
        ep = res.episodes[0]
        assert ep.flits_delivered + sum(res.stats.flits_per_tree) == 60
        assert res.flits_total == 60

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            run_with_recovery(self._plan(), 10, None, policy="bogus")

    def test_single_tree_degraded_policy_fails_cleanly(self):
        plan = build_plan(3, "single")
        edge = plan_used_links(plan)[0]
        fs = FaultSchedule.single(edge, 5)
        with pytest.raises(RecoveryError):
            run_with_recovery(plan, 40, fs, policy="degraded")
        # auto falls back to repair and completes
        res = run_with_recovery(plan, 40, fs, policy="auto")
        assert res.recovered and res.episodes[0].policy == "repaired"

    def test_genuine_stall_not_masked(self):
        # stall with no schedule at all must surface as SimulationStalled;
        # exercised via a fault schedule whose stall outlives max_episodes
        plan = self._plan()
        edge = plan_used_links(plan)[0]
        with pytest.raises(RecoveryError, match="episodes"):
            run_with_recovery(
                plan, 60, FaultSchedule.single(edge, 7), max_episodes=0
            )
