"""Tests for the construction-pipeline profiler."""

import pytest

from repro.core import build_plan
from repro.utils.profiling import StageTimer


class TestStageTimer:
    def test_accumulates(self):
        t = StageTimer()
        with t.stage("a"):
            pass
        with t.stage("b"):
            pass
        with t.stage("a"):
            pass
        assert [n for n, _ in t.stages] == ["a", "b", "a"]
        d = t.as_dict()
        assert set(d) == {"a", "b"}
        assert t.total() == pytest.approx(sum(d.values()))

    def test_records_on_exception(self):
        t = StageTimer()
        with pytest.raises(RuntimeError):
            with t.stage("x"):
                raise RuntimeError("boom")
        assert t.stages and t.stages[0][0] == "x"


class TestProfilePipeline:
    """``build_plan(timer=)`` is the plan-construction profiler; its stage
    names are what the per-layer ``plan.*_ms`` benchmark metrics read."""

    STAGES = ["graph build", "tree construction", "bandwidth fill"]

    @pytest.mark.parametrize("scheme,stages", [
        ("low-depth", STAGES),
        ("edge-disjoint", STAGES),
        ("single", STAGES),
    ])
    def test_stage_names(self, scheme, stages):
        timer = StageTimer()
        build_plan(5, scheme, timer=timer)
        assert [n for n, _ in timer.stages] == stages
        assert all(d >= 0 for _, d in timer.stages)

    def test_even_scheme(self):
        timer = StageTimer()
        build_plan(4, "low-depth-even", timer=timer)
        assert [n for n, _ in timer.stages] == self.STAGES

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            build_plan(5, "bogus", timer=StageTimer())
