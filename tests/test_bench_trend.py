"""The benchmark trend gate (``scripts/bench_trend.py``) sees every row.

A ``BENCH_*.json`` file nests dicts and, for grids, lists of row dicts.
``flatten`` keys a list row by its index, so a grid's timings reach the
gate like any other metric, and a grid row that disappears is a
vanished metric.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load():
    spec = importlib.util.spec_from_file_location(
        "bench_trend", ROOT / "scripts" / "bench_trend.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


bench_trend = _load()


def test_flatten_keys_list_rows_by_index():
    tree = {
        "grid": [
            {"q": 7, "auto_us_per_cycle": 13.6, "phase_us": {"done": 0.6}},
            {"q": 11, "scheme": "low-depth", "ok": True, "cycles": [3, 4]},
        ],
        "seconds": 2,
    }
    assert bench_trend.flatten(tree) == {
        "grid.0.q": 7.0,
        "grid.0.auto_us_per_cycle": 13.6,
        "grid.0.phase_us.done": 0.6,
        "grid.1.q": 11.0,
        "grid.1.cycles.0": 3.0,
        "grid.1.cycles.1": 4.0,
        "seconds": 2.0,
    }


def test_fast_step_grid_reaches_the_gate():
    flat = bench_trend.flatten(json.loads((ROOT / "BENCH_fastcycle.json").read_text()))
    grid = [k for k in flat if k.startswith("fast-step-grid.grid.")]
    assert grid and any(k.endswith(".auto_us_per_cycle") for k in grid)


def _write(path, payload):
    path.mkdir(parents=True, exist_ok=True)
    (path / "BENCH_demo.json").write_text(json.dumps(payload))


def test_compare_gates_list_rows(tmp_path):
    base = {"curve": [{"fast_seconds": 1.0, "speedup_vs_fast": 50.0}, {"m": 2}]}
    _write(tmp_path / "base", base)
    slower = {"curve": [{"fast_seconds": 1.5, "speedup_vs_fast": 50.0}, {"m": 2}]}
    _write(tmp_path / "cur", slower)
    rows, regressions = bench_trend.compare_dirs(
        tmp_path / "base", tmp_path / "cur", 0.2
    )
    assert regressions == ["BENCH_demo.json:curve.0.fast_seconds: 1 -> 1.5 "
                           "(+50.0% slower)"]
    # a grid row that vanishes fails the gate
    _write(tmp_path / "cur", {"curve": [base["curve"][0]]})
    _, regressions = bench_trend.compare_dirs(
        tmp_path / "base", tmp_path / "cur", 0.2
    )
    assert regressions == ["BENCH_demo.json:curve.1.m: metric vanished"]
