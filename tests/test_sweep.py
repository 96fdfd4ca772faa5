"""Tests for the parallel sweep engine (repro.sweep).

Covers the tentpole guarantees: serial-vs-parallel determinism (identical
cell results and rendered report text), cache round-trips (second run is
all hits with equal output), corruption/staleness tolerance (recomputed,
never crashed on), and the artifact drift gate.
"""

import os
import pickle

import pytest

from repro.analysis import full_report, report_cells
from repro.sweep import (
    SweepCache,
    SweepRunner,
    cell,
    cell_key,
    check_artifacts,
    generate_artifacts,
    resolve_workers,
    run_cell,
    run_sweep,
    write_artifacts,
)
from repro.sweep.spec import SweepSpec

Q_HI = 13  # small enough to keep the suite fast, big enough to be real
FIG1_Q = 5


# ---------------------------------------------------------------------- spec


class TestSpec:
    def test_cell_params_sorted(self):
        a = cell("t", b=1, a=2)
        b = cell("t", a=2, b=1)
        assert a == b
        assert a.params == (("a", 2), ("b", 1))
        assert a.kwargs == {"a": 2, "b": 1}

    def test_cell_key_stable_and_distinct(self):
        k1 = cell_key(cell("figure5_row", q=11, constructive_threshold=19))
        k2 = cell_key(cell("figure5_row", constructive_threshold=19, q=11))
        assert k1 == k2
        assert k1 != cell_key(cell("figure5_row", q=13, constructive_threshold=19))
        assert k1 != cell_key(cell("figure5_row", q=11, constructive_threshold=2))
        assert k1 != cell_key(cell("table1_row", q=11))

    def test_cell_key_salted(self):
        c = cell("table1_row", q=3)
        assert cell_key(c, salt="1.0.0") != cell_key(c, salt="2.0.0")

    def test_unserializable_param_rejected(self):
        with pytest.raises(TypeError):
            cell("t", fn=object())

    def test_grid_row_major_order(self):
        spec = SweepSpec.grid("plan_metrics", q=[3, 5], scheme=["a", "b"])
        assert [c.kwargs for c in spec] == [
            {"q": 3, "scheme": "a"},
            {"q": 3, "scheme": "b"},
            {"q": 5, "scheme": "a"},
            {"q": 5, "scheme": "b"},
        ]

    def test_unknown_task_raises(self):
        with pytest.raises(KeyError, match="unknown sweep task"):
            run_cell(cell("no-such-task"))


# --------------------------------------------------------------------- cache


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = SweepCache(tmp_path)
        c = cell("table1_row", q=3)
        hit, _ = cache.get(c)
        assert not hit and cache.misses == 1
        cache.put(c, {"x": 1})
        hit, value = cache.get(c)
        assert hit and value == {"x": 1} and cache.hits == 1

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        c = cell("table1_row", q=3)
        cache.put(c, "value")
        cache.path(c).write_bytes(b"\x80garbage not a pickle")
        hit, _ = cache.get(c)
        assert not hit and cache.corrupt == 1
        # recompute-and-overwrite heals the entry
        cache.put(c, "value2")
        assert cache.get(c) == (True, "value2")

    def test_foreign_payload_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        c = cell("table1_row", q=3)
        path = cache.path(c)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"unexpected": "shape"}))
        hit, _ = cache.get(c)
        assert not hit and cache.corrupt == 1

    def test_version_salting_makes_old_entries_stale(self, tmp_path):
        old = SweepCache(tmp_path, version="0.9.0")
        new = SweepCache(tmp_path, version="1.0.0")
        c = cell("table1_row", q=3)
        old.put(c, "old-result")
        hit, _ = new.get(c)
        assert not hit  # different address, never aliased
        assert old.get(c) == (True, "old-result")

    def test_clear_and_stats(self, tmp_path):
        cache = SweepCache(tmp_path)
        for q in (3, 5, 7):
            cache.put(cell("table1_row", q=q), q)
        stats = cache.stats()
        assert stats["entries"] == 3 and stats["bytes"] > 0
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0

    def test_env_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "envcache"))
        cache = SweepCache()
        assert cache.root == tmp_path / "envcache"


# -------------------------------------------------------------------- engine


class TestEngine:
    def test_serial_parallel_identical_results_and_report(self, tmp_path):
        cells = report_cells(Q_HI, FIG1_Q)
        serial = SweepRunner(workers=0, cache=None)
        parallel = SweepRunner(workers=2, cache=tmp_path / "cache")
        assert serial.run(cells) == parallel.run(cells)
        assert full_report(Q_HI, FIG1_Q) == full_report(
            Q_HI, FIG1_Q, sweep=SweepRunner(workers=2, cache=tmp_path / "cache")
        )

    def test_cache_round_trip_second_run_all_hits(self, tmp_path):
        cells = report_cells(Q_HI, FIG1_Q)
        first = SweepRunner(workers=0, cache=tmp_path)
        cold = first.run(cells)
        assert first.last_summary.misses == len(cells)
        second = SweepRunner(workers=0, cache=tmp_path)
        warm = second.run(cells)
        assert second.last_summary.hits == len(cells)
        assert second.last_summary.misses == 0
        assert cold == warm

    def test_corrupted_cache_entries_recomputed(self, tmp_path):
        cache = SweepCache(tmp_path)
        cells = [cell("table1_row", q=q) for q in (3, 5, 7)]
        expected = SweepRunner(workers=0, cache=cache).run(cells)
        # corrupt one entry, truncate another
        cache.path(cells[0]).write_bytes(b"not a pickle at all")
        blob = cache.path(cells[1]).read_bytes()
        cache.path(cells[1]).write_bytes(blob[: len(blob) // 2])
        runner = SweepRunner(workers=0, cache=SweepCache(tmp_path))
        assert runner.run(cells) == expected
        assert runner.last_summary.corrupt == 2
        assert runner.last_summary.hits == 1
        # healed: next run is all hits
        healed = SweepRunner(workers=0, cache=SweepCache(tmp_path))
        healed.run(cells)
        assert healed.last_summary.hits == len(cells)

    def test_run_one_matches_direct_call(self):
        from repro.analysis import table1_row

        runner = SweepRunner(workers=0, cache=None)
        assert runner.run_one("table1_row", q=3) == table1_row(3)

    def test_resolve_workers_env(self, monkeypatch):
        assert resolve_workers(3) == 3
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "5")
        assert resolve_workers() == 5
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "junk")
        with pytest.raises(ValueError, match=r"\$REPRO_SWEEP_WORKERS .*'junk'"):
            resolve_workers()
        monkeypatch.delenv("REPRO_SWEEP_WORKERS")
        assert resolve_workers() == 0

    @pytest.mark.parametrize("bad", [2.7, 2.0, "3"])
    def test_resolve_workers_names_a_non_integer(self, bad):
        # never truncated: 2.7 must not run 2 workers
        with pytest.raises(TypeError, match="workers must be an integer"):
            resolve_workers(bad)
        with pytest.raises(TypeError, match="workers must be an integer"):
            SweepRunner(workers=bad)

    @pytest.mark.parametrize("bad", ["2.7", "abc", "2 workers"])
    def test_resolve_workers_names_a_bad_setting(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_SWEEP_WORKERS must be an"):
            resolve_workers()
        # an explicit value still wins over the setting
        assert resolve_workers(2) == 2

    def test_run_sweep_helper_and_summary(self, tmp_path):
        results, summary = run_sweep(
            [cell("table1_row", q=3)], workers=0, cache=tmp_path
        )
        assert results[0].q == 3
        assert summary.cells == 1 and summary.misses == 1
        assert "1 computed" in summary.render()


# ------------------------------------------------------------------ batching


class TestBatching:
    """Batched routing of compatible cells must be invisible in the cache."""

    def _grid(self):
        from repro.analysis import sim_grid_cells

        return sim_grid_cells(7, ms=(1, 2, 5, 8), buffer_sizes=(None, 2, 4))

    @staticmethod
    def _assert_routes_byte_identical(tmp_path, cells):
        serial_cache = SweepCache(tmp_path / "serial")
        batched_cache = SweepCache(tmp_path / "batched")
        serial = SweepRunner(workers=0, cache=serial_cache, batching=False)
        batched = SweepRunner(workers=0, cache=batched_cache)
        results = batched.run(cells)
        assert serial.run(cells) == results
        assert serial.last_summary.batched == 0
        assert batched.last_summary.batched == len(cells)
        # the cache promise: routing through run_batch may not change a
        # byte of any entry, so both trees must be file-for-file equal
        for c in cells:
            assert (
                batched_cache.path(c).read_bytes()
                == serial_cache.path(c).read_bytes()
            ), c.kwargs
        return results

    def test_batched_and_serial_routes_byte_identical_cache(self, tmp_path):
        self._assert_routes_byte_identical(tmp_path, self._grid())

    @pytest.mark.parametrize(
        "extra", [{}, {"link_capacity": 2**15}], ids=["buffer", "capacity"]
    )
    def test_knobs_past_int32_headroom_match_serial(self, tmp_path, extra):
        # a buffer past int32 maps to the no-credit sentinel (exact: it can
        # never bind); a capacity the batch cannot hold runs through
        # sim_point.  Either way the cache cannot tell the routes apart.
        cells = [
            cell("sim_point", q=3, m=2, buffer_size=b, **extra)
            for b in (2, 2**31)
        ]
        results = self._assert_routes_byte_identical(tmp_path, cells)
        assert [r["cycles"] for r in results] == ([7, 7] if extra else [8, 8])

    @pytest.mark.parametrize("batching", [True, False], ids=["batched", "serial"])
    @pytest.mark.parametrize("knob,bad,name", [
        ("m", 1.5, r"flits_per_tree\[0\]"),
        ("m", "3", r"flits_per_tree\[0\]"),
        ("link_capacity", 1.5, "link_capacity"),
        ("buffer_size", 1.5, "buffer_size"),
    ])
    def test_non_integer_knob_named_on_both_routes(self, batching, knob, bad, name):
        # no int() at the sweep boundary: the engines' argument check
        # names the knob instead of running a truncated cell
        kwargs = {"q": 3, "m": 2, knob: bad}
        cells = [cell("sim_point", **kwargs), cell("sim_point", q=3)]
        runner = SweepRunner(workers=0, batching=batching)
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            runner.run(cells)

    @pytest.mark.parametrize("batching", [True, False], ids=["batched", "serial"])
    @pytest.mark.parametrize("window,name", [
        ([[0, 9], 2.9, 5], "fault window 0 down cycle"),
        ([[0, 9], 2, 5.5], "fault window 0 up cycle"),
        ([[0.0, 9], 2, 5], "fault window 0 edge endpoint u"),
        ([[0, "9"], 2, None], "fault window 0 edge endpoint v"),
    ], ids=["down", "up", "u", "v"])
    def test_non_integer_fault_window_named_on_both_routes(
        self, batching, window, name
    ):
        # a fractional window must not run as its truncation
        # ([[0, 9], 2.9, 5.5] as [[0, 9], 2, 5])
        cells = [cell("sim_point", q=3, m=2, faults=[window]),
                 cell("sim_point", q=3)]
        runner = SweepRunner(workers=0, batching=batching)
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            runner.run(cells)

    def test_mixed_grid_warm_run_all_hits(self, tmp_path):
        # batchable sim_point cells interleaved with unbatchable work:
        # the cold run routes only the former through lanes, the warm run
        # hits the cache for everything and batches nothing
        cells = self._grid() + [cell("table1_row", q=3)]
        cold = SweepRunner(workers=0, cache=tmp_path)
        results = cold.run(cells)
        assert cold.last_summary.misses == len(cells)
        assert cold.last_summary.batched == len(cells) - 1
        assert "via batched lanes" in cold.last_summary.render()
        warm = SweepRunner(workers=0, cache=tmp_path)
        assert warm.run(cells) == results
        assert warm.last_summary.hits == len(cells)
        assert warm.last_summary.batched == 0
        assert "via batched lanes" not in warm.last_summary.render()

    def test_single_member_group_demoted_to_serial(self, tmp_path):
        # a batch of one is just serial with overhead; one sim_point cell
        # must compute without run_batch and still round-trip the cache
        cells = [cell("sim_point", q=5, m=3)]
        runner = SweepRunner(workers=0, cache=tmp_path)
        runner.run(cells)
        assert runner.last_summary.misses == 1
        assert runner.last_summary.batched == 0

    def test_non_batchable_engine_stays_serial(self, tmp_path):
        # engine="reference" cells share a task but have no group key
        cells = [
            cell("sim_point", q=5, m=m, engine="reference") for m in (2, 4)
        ]
        runner = SweepRunner(workers=0, cache=tmp_path)
        ref = runner.run(cells)
        assert runner.last_summary.batched == 0
        fast = SweepRunner(workers=0, cache=None).run(
            [cell("sim_point", q=5, m=m) for m in (2, 4)]
        )
        assert ref == fast  # engines agree; only the routing differs


# ----------------------------------------------------------------- artifacts


class TestArtifacts:
    def test_write_then_check_clean_then_drift(self, tmp_path):
        artifacts = generate_artifacts(
            SweepRunner(workers=0, cache=None), q_hi=Q_HI, figure1_q=FIG1_Q
        )
        write_artifacts(tmp_path, artifacts)
        assert check_artifacts(tmp_path, artifacts) == []
        (tmp_path / "report.txt").write_text("tampered\n")
        (tmp_path / "scaling_weak.txt").unlink()
        drifted = check_artifacts(tmp_path, artifacts)
        assert sorted(drifted) == ["report.txt", "scaling_weak.txt"]

    def test_artifacts_identical_serial_vs_parallel_cached(self, tmp_path):
        serial = generate_artifacts(
            SweepRunner(workers=0, cache=None), q_hi=Q_HI, figure1_q=FIG1_Q
        )
        runner = SweepRunner(workers=2, cache=tmp_path / "c")
        cold = generate_artifacts(runner, q_hi=Q_HI, figure1_q=FIG1_Q)
        warm = generate_artifacts(runner, q_hi=Q_HI, figure1_q=FIG1_Q)
        assert serial == cold == warm


# ----------------------------------------------------------------------- cli


class TestCli:
    def test_sweep_out_then_check(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "results"
        cachedir = tmp_path / "cache"
        argv = ["sweep", "--qmax", str(Q_HI), "--figure1-q", str(FIG1_Q),
                "--cache", str(cachedir), "--workers", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        assert (out / "report.txt").exists()
        assert main(argv + ["--check", str(out)]) == 0
        (out / "report.txt").write_text("tampered\n")
        assert main(argv + ["--check", str(out)]) == 1
        text = capsys.readouterr().out
        assert "DRIFT" in text and "cache hits" in text

    def test_sweep_cache_stats_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        cachedir = tmp_path / "cache"
        SweepCache(cachedir).put(cell("table1_row", q=3), 1)
        assert main(["sweep", "--cache", str(cachedir), "--cache-stats"]) == 0
        assert "entries" in capsys.readouterr().out
        assert main(["sweep", "--cache", str(cachedir), "--clear-cache"]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out
