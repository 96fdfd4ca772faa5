"""Tests for the process-wide plan cache (repro.core.plancache)."""

import copyreg
import pickle

import numpy as np
import pytest

from repro.core.plan import build_plan
from repro.core.plancache import (
    PlanCache,
    cached_replan,
    get_plan,
    global_plan_cache,
    plan_fingerprint,
    plan_key,
    reset_global_plan_cache,
)
from repro.topology.graph import Graph


@pytest.fixture(autouse=True)
def _fresh_global_cache():
    reset_global_plan_cache()
    yield
    reset_global_plan_cache()


class TestPlanKey:
    def test_stable_and_spec_sensitive(self):
        k = plan_key(7, "low-depth")
        assert k == plan_key(7, "low-depth")
        assert k != plan_key(7, "edge-disjoint")
        assert k != plan_key(9, "low-depth-even")
        assert k != plan_key(7, "low-depth", link_bandwidth=2)
        assert k != plan_key(7, "low-depth", starter=0)
        assert k != plan_key(7, "low-depth", max_trees=2)

    def test_equivalent_bandwidth_spellings_alias(self):
        from fractions import Fraction

        assert plan_key(7, link_bandwidth=1) == plan_key(
            7, link_bandwidth=Fraction(2, 2)
        )

    def test_version_salt_invalidates(self):
        assert plan_key(7, salt="1.0.0") != plan_key(7, salt="1.0.1")


class TestPlanningBoundary:
    """``q``, ``starter`` and ``max_trees`` are exact ints at the planning
    boundary: NumPy integers plan and key exactly as ints do, anything
    else fails with an error that names the argument."""

    @pytest.mark.parametrize("call,exc,match", [
        (lambda: get_plan(np.int64(3)) is get_plan(3), None, None),
        (lambda: type(build_plan(np.int64(3)).q) is int, None, None),
        (lambda: plan_key(3, starter=np.int64(1), max_trees=np.int32(2))
         == plan_key(3, starter=1, max_trees=2), None, None),
        (lambda: build_plan("3"), TypeError, "q must be an integer"),
        (lambda: get_plan(3.0), TypeError, "q must be an integer"),
        (lambda: build_plan(3, max_trees=1.5), TypeError,
         "max_trees must be an integer"),
        (lambda: build_plan(3, starter="1"), TypeError,
         "starter must be an integer"),
        (lambda: build_plan(0), ValueError, "0 is not a prime power"),
        (lambda: build_plan(3, starter=999), ValueError,
         "starter 999 is not a quadric of ER_3"),
        (lambda: build_plan(4, "low-depth-even", starter=999), ValueError,
         "starter 999 is not a quadric of ER_4"),
    ], ids=["np-get-plan", "np-build-plan", "np-key", "str-q", "float-q",
            "float-max-trees", "str-starter", "zero-q", "starter-range",
            "starter-range-even"])
    def test_arguments_are_exact_ints(self, call, exc, match):
        if exc is None:
            assert call() is True
            return
        with pytest.raises(exc, match=match):
            call()


class TestMemoryLayer:
    def test_get_plan_constructs_once_and_shares(self):
        c = PlanCache()
        p1 = c.get_plan(7)
        p2 = c.get_plan(7)
        assert p1 is p2
        assert c.hits == 1 and c.misses == 1

    def test_matches_build_plan_exactly(self):
        p = PlanCache().get_plan(5, "edge-disjoint")
        ref = build_plan(5, "edge-disjoint")
        assert p.bandwidths == ref.bandwidths
        assert [t.edges for t in p.trees] == [t.edges for t in ref.trees]
        assert p.partition(30) == ref.partition(30)

    def test_lru_eviction(self):
        c = PlanCache(capacity=2)
        c.get_plan(3)
        c.get_plan(4, "low-depth-even")
        c.get_plan(3)  # touch: 3 becomes most recent
        c.get_plan(5)  # evicts 4
        misses = c.misses
        c.get_plan(3)  # still resident
        assert c.misses == misses
        c.get_plan(4, "low-depth-even")  # was evicted -> rebuild
        assert c.misses == misses + 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestDiskLayer:
    def test_roundtrip_across_instances(self, tmp_path):
        c1 = PlanCache(root=tmp_path)
        key = c1.key(3)
        c1.put(key, build_plan(3))
        c2 = PlanCache(root=tmp_path)
        hit, plan = c2.get(key)
        assert hit and plan.q == 3
        assert plan.bandwidths == build_plan(3).bandwidths

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        c = PlanCache(root=tmp_path)
        key = c.key(3)
        c.put(key, build_plan(3))
        path = c.path(key)
        path.write_bytes(b"not a pickle")
        c2 = PlanCache(root=tmp_path)
        hit, _ = c2.get(key)
        assert not hit and c2.corrupt == 1

    def test_key_mismatch_is_corrupt(self, tmp_path):
        c = PlanCache(root=tmp_path)
        key = c.key(3)
        c.path(key).parent.mkdir(parents=True, exist_ok=True)
        c.path(key).write_bytes(
            pickle.dumps({"key": "someone-else", "value": build_plan(3)})
        )
        hit, _ = c.get(key)
        assert not hit and c.corrupt == 1

    def test_adjacency_set_graph_pickle_is_a_corrupt_miss(
        self, tmp_path, monkeypatch
    ):
        # an entry written when a Graph pickled as its slot dict (adjacency
        # sets, an edge-tuple set, the self-loop set, two empty caches)
        # must not load as a half-built Graph: it is a counted corrupt
        # miss, rebuilt and overwritten
        def slot_dict_reduce(g, protocol):
            state = {
                "n": g.n,
                "_adj": [g.neighbors(v) for v in range(g.n)],
                "_edges": set(g.edges),
                "self_loops": set(g.self_loops),
                "_csr": None,
                "_ekeys": None,
            }
            return copyreg.__newobj__, (Graph,), (None, state)

        key = PlanCache(root=tmp_path).key(3)
        with monkeypatch.context() as m:
            m.setattr(Graph, "__reduce_ex__", slot_dict_reduce)
            PlanCache(root=tmp_path).put(key, build_plan(3))
        with pytest.raises(TypeError, match="not a Graph state"):
            pickle.loads(PlanCache(root=tmp_path).path(key).read_bytes())
        c = PlanCache(root=tmp_path)
        plan = c.get_plan(3)
        assert (c.hits, c.misses, c.corrupt) == (0, 1, 1)
        again = PlanCache(root=tmp_path)
        hit, reread = again.get(key)
        assert hit and again.corrupt == 0
        assert pickle.dumps(reread) == pickle.dumps(plan)

    def test_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path))
        c = PlanCache()
        assert c.root == tmp_path
        c.get_plan(3)
        assert c.path(c.key(3)).exists()

    def test_no_disk_without_opt_in(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLAN_CACHE", raising=False)
        c = PlanCache()
        assert c.root is None and c.path("ab" * 32) is None

    def test_clear(self, tmp_path):
        c = PlanCache(root=tmp_path)
        c.get_plan(3)
        c.get_plan(4, "low-depth-even")
        assert c.clear() == 2
        assert c.stats()["memory_entries"] == 0


class TestGlobalCache:
    def test_module_level_get_plan(self):
        p1 = get_plan(7)
        p2 = get_plan(7)
        assert p1 is p2
        stats = global_plan_cache().stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_reset_forgets(self):
        p1 = get_plan(7)
        reset_global_plan_cache()
        assert get_plan(7) is not p1


class TestReplanMemo:
    def test_replan_called_once_per_scenario(self):
        from repro.analysis.recovery import used_links

        plan = build_plan(5, "edge-disjoint")
        edge = used_links(plan)[0]
        calls = []

        def replan(p, failed, policy):
            calls.append((tuple(failed), policy))
            return p, policy

        r1 = cached_replan(plan, [edge], "degraded", replan)
        r2 = cached_replan(plan, [edge], "degraded", replan)
        assert r1 is r2
        assert len(calls) == 1
        cached_replan(plan, [edge], "repaired", replan)
        assert len(calls) == 2  # different policy: distinct scenario

    def test_failure_order_is_canonical(self):
        plan = build_plan(5, "edge-disjoint")
        from repro.analysis.recovery import used_links

        e1, e2 = used_links(plan)[:2]
        calls = []

        def replan(p, failed, policy):
            calls.append(1)
            return p, policy

        cached_replan(plan, [e1, e2], "auto", replan)
        cached_replan(plan, [e2, e1], "auto", replan)
        assert len(calls) == 1

    def test_exceptions_not_memoized(self):
        plan = build_plan(3)
        calls = []

        def replan(p, failed, policy):
            calls.append(1)
            raise RuntimeError("impossible")

        for _ in range(2):
            with pytest.raises(RuntimeError):
                cached_replan(plan, [(0, 1)], "auto", replan)
        assert len(calls) == 2

    def test_fingerprint_distinguishes_plans(self):
        p_ld = build_plan(7, "low-depth")
        p_ed = build_plan(7, "edge-disjoint")
        assert plan_fingerprint(p_ld) != plan_fingerprint(p_ed)
        assert plan_fingerprint(p_ld) == plan_fingerprint(p_ld)

    def test_recovery_path_uses_memo(self):
        # two identical recovery runs must agree bit-for-bit (the second
        # hitting the memoized re-plan)
        from repro.analysis.recovery import used_links
        from repro.simulator import FaultSchedule, run_with_recovery

        plan = build_plan(5, "edge-disjoint")
        edge = used_links(plan)[0]
        faults = FaultSchedule.single(edge, 10)
        r1 = run_with_recovery(plan, 60, faults, policy="auto")
        r2 = run_with_recovery(plan, 60, faults, policy="auto")
        assert r1.total_cycles == r2.total_cycles
        assert r1.final_num_trees == r2.final_num_trees
        assert len(r1.episodes) == len(r2.episodes) == 1
