"""Tests for the content-addressed pickle store (repro.utils.store) and the
two caches that sit on it: the sweep result cache and the plan cache's
disk layer."""

import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from repro.core.plan import build_plan
from repro.core.plancache import PlanCache, plan_key
from repro.sweep import SweepCache, cell, cell_key
from repro.utils.store import MISS, PickleStore, canonical_json, content_key

# Literal digests of the on-disk cache keys: a change here orphans every
# sweep and plan cache entry already written.
PLAN_KEY_7 = "cf426afb61c4cd82771ed8c5515ceaa120d0d03897bef953648be6c0870e6b14"


class TestPinnedKeys:
    @pytest.mark.parametrize("bw", [1, 1.0, Fraction(1)], ids=["int", "float", "frac"])
    def test_plan_key_bandwidth_spellings(self, bw):
        assert plan_key(7, "low-depth", bw, salt="0.0.0") == PLAN_KEY_7

    @pytest.mark.parametrize("args,salt,digest", [
        (
            (11, "edge-disjoint", Fraction(3, 2), 0, 4), "0.0.0",
            "807b0a13bd0c4da2c3b83d56760f33ce5a0fceb0a0ee4d6cf0ba96c14999577a",
        ),
        (
            (4, "low-depth-even", 2.5), "1.2.3",
            "40dae97dbcea765e91410851998d824a00cdc7f2e8e39858ebe2a915bd737d83",
        ),
    ])
    def test_plan_key_specs(self, args, salt, digest):
        assert plan_key(*args, salt=salt) == digest

    @pytest.mark.parametrize("c,salt,digest", [
        (
            cell("sim_point", q=7, m=5, buffer_size=None,
                 faults=[[[0, 1], 3, None]]),
            "0.0.0",
            "d843e833bd05e92cf2d1872851a18b0dc80b55b9e8fa8737c26c2e67dc481472",
        ),
        (
            cell("figure5_row", q=11, constructive_threshold=19), "",
            "0eb567e8929d64fc51e4043f0eb36964603c3af36d6dadd0642660513ef48cee",
        ),
        (
            cell("plan_metrics", q=3, scheme="low-depth", x=1.5, flag=True),
            "9.9",
            "83f0babceae78b0e974c6993673f4e00b22271c07bc63010b327ba90ddb22750",
        ),
    ])
    def test_cell_key(self, c, salt, digest):
        assert cell_key(c, salt=salt) == digest

    def test_content_key_is_canonical(self):
        assert canonical_json({"b": [1, 2], "a": None}) == '{"a":null,"b":[1,2]}'
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})


# ------------------------------------------------------ the two caches


class _Sweep:
    """The sweep cache, addressed by one fixed cell."""

    shape = ("key", "cell", "value")

    def __init__(self, root):
        self.root = root
        self.cell = cell("plan_metrics", q=3)
        self.value = {"rows": [1, 2, 3]}
        self.key = self.fresh().key(self.cell)

    def fresh(self):
        return SweepCache(self.root, version="0.0.0")

    def get(self, cache):
        return cache.get(self.cell)

    def put(self, cache):
        cache.put(self.cell, self.value)

    def parent_payload(self, key):
        return {"key": key, "cell": self.cell.canonical(), "value": self.value}

    def same(self, value):
        return value == self.value


class _Plan:
    """The plan cache's disk layer, addressed by the q=3 plan spec. Each
    :meth:`fresh` instance has an empty memory layer, so only the disk
    can answer."""

    shape = ("key", "value")
    _plan = None

    def __init__(self, root):
        self.root = root
        if _Plan._plan is None:
            _Plan._plan = build_plan(3)
        self.value = _Plan._plan
        self.key = self.fresh().key(3)

    def fresh(self):
        return PlanCache(root=self.root, version="0.0.0")

    def get(self, cache):
        return cache.get(self.key)

    def put(self, cache):
        cache.put(self.key, self.value)

    def parent_payload(self, key):
        return {"key": key, "value": self.value}

    def same(self, value):
        return value.q == 3 and value.bandwidths == self.value.bandwidths


def _write(c, obj):
    path = c.root / c.key[:2] / f"{c.key}.pkl"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(obj if isinstance(obj, bytes) else pickle.dumps(
        obj, protocol=pickle.HIGHEST_PROTOCOL
    ))
    return path


@pytest.mark.parametrize("kind", [_Sweep, _Plan], ids=["sweep", "plan"])
class TestPayloadFormat:
    def test_parent_written_entry_hits(self, kind, tmp_path):
        c = kind(tmp_path)
        _write(c, c.parent_payload(c.key))
        cache = c.fresh()
        hit, value = c.get(cache)
        assert hit and c.same(value)
        assert (cache.hits, cache.misses, cache.corrupt) == (1, 0, 0)

    def test_written_entry_is_the_parent_payload(self, kind, tmp_path):
        c = kind(tmp_path)
        c.put(c.fresh())
        path = tmp_path / c.key[:2] / f"{c.key}.pkl"
        assert tuple(pickle.loads(path.read_bytes())) == kind.shape
        assert path.read_bytes() == pickle.dumps(
            c.parent_payload(c.key), protocol=pickle.HIGHEST_PROTOCOL
        )


def _truncated(c):
    c.put(c.fresh())
    path = c.root / c.key[:2] / f"{c.key}.pkl"
    path.write_bytes(path.read_bytes()[:40])


def _garbage(c):
    _write(c, b"not a pickle")


def _foreign_key(c):
    _write(c, c.parent_payload("someone-else"))


def _not_a_dict(c):
    _write(c, [c.key, c.value])


def _non_plan_value(c):
    _write(c, {"key": c.key, "value": "a string"})


@pytest.mark.parametrize("kind,spoil", [
    (kind, spoil)
    for kind in (_Sweep, _Plan)
    for spoil in (_truncated, _garbage, _foreign_key, _not_a_dict)
] + [(_Plan, _non_plan_value)], ids=lambda x: x.__name__.strip("_").lower())
def test_corrupt_entry_is_a_counted_miss(kind, spoil, tmp_path):
    c = kind(tmp_path)
    spoil(c)
    cache = c.fresh()
    assert c.get(cache) == (False, None)
    assert (cache.hits, cache.misses, cache.corrupt) == (0, 1, 1)
    assert cache.stats()["corrupt"] == 1
    # recomputing overwrites the entry, which then hits
    c.put(cache)
    hit, value = c.get(c.fresh())
    assert hit and c.same(value)


# -------------------------------------------------------- the store itself


class TestPickleStore:
    def test_round_trip_and_tally(self, tmp_path):
        store = PickleStore(tmp_path / "s")
        assert store.load("ab" * 32) is MISS and store.corrupt == 0
        assert store.tally() == (0, 0) and store.clear() == 0
        store.save("ab" * 32, [1, 2], note="x")
        store.save("cd" * 32, "v")
        assert store.load("ab" * 32) == [1, 2]
        entries, size = store.tally()
        assert entries == 2 and size == sum(
            p.stat().st_size for p in (tmp_path / "s").glob("*/*.pkl")
        )
        assert not list((tmp_path / "s").glob("*/*.tmp"))
        assert store.clear() == 2
        assert store.tally() == (0, 0) and not any((tmp_path / "s").iterdir())

    def test_accept_rejects_value(self, tmp_path):
        store = PickleStore(tmp_path)
        store.save("ab" * 32, 3)
        assert store.load("ab" * 32, accept=lambda v: isinstance(v, str)) is MISS
        assert store.corrupt == 1
        assert store.load("ab" * 32, accept=lambda v: isinstance(v, int)) == 3

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import repro.utils.store as store_mod

        store = PickleStore(tmp_path)
        store.save("ab" * 32, "old")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(store_mod.os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            store.save("ab" * 32, "new")
        assert [p.name for p in tmp_path.glob("*/*")] == [f"{'ab' * 32}.pkl"]
        assert store.load("ab" * 32) == "old"


def _repro_modules_after(stmt):
    """The ``repro`` modules a fresh interpreter holds after ``stmt``."""
    import os

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = f"{stmt}; import sys; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env,
    )
    return {m for m in out.stdout.split() if m.startswith("repro")}


def test_core_does_not_import_sweep():
    mods = _repro_modules_after("import repro.core, repro.core.plancache")
    assert "repro.core.plancache" in mods and "repro.utils.store" in mods
    assert not any(m.startswith("repro.sweep") for m in mods)


def test_sweep_import_leaves_simulator_out():
    mods = _repro_modules_after("import repro.sweep")
    assert "repro.sweep.engine" in mods
    assert not any(
        m.startswith(("repro.simulator", "repro.analysis", "repro.tenancy"))
        for m in mods
    )
