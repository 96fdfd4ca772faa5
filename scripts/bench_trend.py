#!/usr/bin/env python
"""Benchmark trend gate: compare BENCH_*.json against committed baselines.

The repo root carries one ``BENCH_<suite>.json`` per benchmark suite —
nested dicts (and lists of rows) of per-case metrics, re-written in place
whenever the suite runs. This script turns that trajectory into a CI gate:

    bench_trend.py snapshot -o baseline/
        copy the committed BENCH files aside (run *before* re-running
        the suites, which overwrite them in place);

    bench_trend.py compare --baseline baseline/ [--threshold 0.20]
                           [--table trend.md] [--json trend.json]
        diff every metric of the freshly re-run files against the
        snapshot and exit 1 on any regression beyond the threshold.

Metrics are classified by key name:

- *lower is better* — timing keys (``seconds``, ``*_seconds``, ``*_s``,
  ``*_ms``, ``*_us``, ``*us_per*``): regress when the new value exceeds
  baseline by more than the threshold fraction. Baselines under the
  noise floor (10 ms in the key's own unit) are reported but never
  gated — micro-timings on shared CI runners are not reproducible;
- *higher is better* — ``*speedup*`` keys (except the ``*_target``
  threshold constants): regress when the new value falls short of
  baseline by more than the threshold fraction;
- everything else (cycle counts, episode counts, sizes) is
  deterministic bookkeeping: reported in the trend table, never gated —
  the suites' own asserts pin those exactly.

A metric present in the baseline but missing from the fresh run (or a
whole missing file) is always a failure: a silently skipped benchmark
must not pass the gate.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

#: threshold constants recorded next to the measurements, not measurements
NEVER_GATED = {"speedup_target", "target"}

#: noise floors per unit suffix: 10 ms expressed in the key's own unit
NOISE_FLOOR = {"s": 0.01, "ms": 10.0, "us": 10_000.0}


def classify(key):
    """-> ("lower" | "higher" | "info", noise_floor)."""
    k = key.lower()
    if k in NEVER_GATED:
        return "info", 0.0
    if k == "seconds" or k.endswith("_seconds") or k.endswith("_s"):
        return "lower", NOISE_FLOOR["s"]
    if k.endswith("_ms"):
        return "lower", NOISE_FLOOR["ms"]
    if k.endswith("_us") or "us_per" in k:
        return "lower", NOISE_FLOOR["us"]
    if "speedup" in k:
        return "higher", 0.0
    return "info", 0.0


def flatten(tree, prefix=""):
    """Nested dicts and lists -> {dotted.path: number}: a list row is keyed
    by its index (``grid.0.cycles``); bools and strings are dropped."""
    out = {}
    items = enumerate(tree) if isinstance(tree, list) else tree.items()
    for key, val in items:
        path = f"{prefix}{key}"
        if isinstance(val, (dict, list)):
            out.update(flatten(val, path + "."))
        elif isinstance(val, (int, float)) and not isinstance(val, bool):
            out[path] = float(val)
    return out


def compare_metric(path, old, new, threshold):
    """-> (status, detail) with status in ok/regression/info/noise."""
    key = path.rsplit(".", 1)[-1]
    kind, floor = classify(key)
    if kind == "info":
        return "info", ""
    if kind == "lower":
        if old <= floor:
            return "noise", f"baseline under {floor:g} noise floor"
        if new > old * (1 + threshold):
            return "regression", f"+{(new / old - 1) * 100:.1f}% slower"
        return "ok", f"{(new / old - 1) * 100:+.1f}%"
    # higher is better
    if old <= 0:
        return "noise", "non-positive baseline"
    if new < old * (1 - threshold):
        return "regression", f"{(new / old - 1) * 100:.1f}% less speedup"
    return "ok", f"{(new / old - 1) * 100:+.1f}%"


def compare_dirs(baseline_dir, current_dir, threshold):
    """-> (rows, regressions): every metric of every suite, flattened."""
    rows = []
    regressions = []
    baselines = sorted(Path(baseline_dir).glob("BENCH_*.json"))
    if not baselines:
        raise SystemExit(f"no BENCH_*.json baselines under {baseline_dir}")
    for base_path in baselines:
        name = base_path.name
        cur_path = Path(current_dir) / name
        old = flatten(json.loads(base_path.read_text()))
        if not cur_path.exists():
            rows.append((name, "<file>", None, None, "regression",
                         "suite did not re-run"))
            regressions.append(f"{name}: missing from {current_dir}")
            continue
        new = flatten(json.loads(cur_path.read_text()))
        for path in sorted(old):
            if path not in new:
                rows.append((name, path, old[path], None, "regression",
                             "metric vanished"))
                regressions.append(f"{name}:{path}: metric vanished")
                continue
            status, detail = compare_metric(path, old[path], new[path], threshold)
            rows.append((name, path, old[path], new[path], status, detail))
            if status == "regression":
                regressions.append(f"{name}:{path}: {old[path]:g} -> "
                                   f"{new[path]:g} ({detail})")
        for path in sorted(set(new) - set(old)):
            rows.append((name, path, None, new[path], "new", ""))
    return rows, regressions


_ICON = {"ok": "✅", "regression": "❌", "info": "·", "noise": "≈", "new": "＋"}


def render_table(rows, threshold):
    out = [
        f"# Benchmark trend (gate: ±{threshold:.0%} on timing/speedup metrics)",
        "",
        "| suite | metric | baseline | current | status | delta |",
        "|---|---|---:|---:|:-:|---|",
    ]
    fmt = lambda v: "—" if v is None else f"{v:g}"
    for name, path, old, new, status, detail in rows:
        out.append(
            f"| {name.removeprefix('BENCH_').removesuffix('.json')} "
            f"| `{path}` | {fmt(old)} | {fmt(new)} "
            f"| {_ICON.get(status, status)} | {detail} |"
        )
    return "\n".join(out) + "\n"


def cmd_snapshot(args):
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    files = sorted(Path(args.root).glob("BENCH_*.json"))
    if not files:
        raise SystemExit(f"no BENCH_*.json under {args.root}")
    for f in files:
        shutil.copy2(f, out / f.name)
        print(f"snapshot {f.name}")
    return 0


def cmd_compare(args):
    rows, regressions = compare_dirs(args.baseline, args.root, args.threshold)
    table = render_table(rows, args.threshold)
    if args.table:
        Path(args.table).write_text(table)
        print(f"wrote {args.table}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            [dict(zip(("suite", "metric", "baseline", "current", "status",
                       "detail"), r)) for r in rows],
            indent=2) + "\n")
        print(f"wrote {args.json}")
    gated = [r for r in rows if r[4] in ("ok", "regression")]
    print(f"{len(rows)} metrics across "
          f"{len({r[0] for r in rows})} suites; {len(gated)} gated, "
          f"{len(regressions)} regressions")
    for r in regressions:
        print(f"REGRESSION {r}")
    return 1 if regressions else 0


def build_parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", default=".",
                   help="directory holding the live BENCH files (default .)")
    sub = p.add_subparsers(dest="command", required=True)
    s = sub.add_parser("snapshot", help="copy BENCH files aside as baselines")
    s.add_argument("-o", "--output", required=True, metavar="DIR")
    s = sub.add_parser("compare", help="diff fresh BENCH files vs a snapshot")
    s.add_argument("--baseline", required=True, metavar="DIR")
    s.add_argument("--threshold", type=float, default=0.20,
                   help="relative regression tolerance (default 0.20)")
    s.add_argument("--table", default=None, metavar="FILE",
                   help="write the markdown trend table to FILE")
    s.add_argument("--json", default=None, metavar="FILE",
                   help="write the raw comparison rows to FILE")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return {"snapshot": cmd_snapshot, "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
