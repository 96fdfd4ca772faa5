"""Telemetry layer: collector hooks, JSONL schema, reader round-trip.

Unit and property coverage for :mod:`repro.telemetry` — the byte-level
engine differential lives in ``tests/test_telemetry_differential.py``:

- JSONL round-trip is lossless (serialize -> parse -> serialize);
- per-link utilization is bounded by 1 in every sample window (window
  flits can never exceed ``sample_every * capacity``);
- the end-of-leg counters agree with totals derived independently from
  the per-cycle trace (and from a ``sample_every=1`` probe stream);
- queue occupancy samples are nonnegative integers;
- collector validation, ``finish`` idempotence, the opt-in ``perf``
  record and the nanosecond :class:`~repro.utils.profiling.StageTimer`
  plumbing behind it.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import (
    FaultSchedule,
    SimulationStalled,
    run_with_recovery,
    simulate_allreduce,
    trace_allreduce,
)
from repro.telemetry import (
    SCHEMA_VERSION,
    Collector,
    CounterSet,
    Probe,
    TelemetryWriter,
    dumps_record,
    loads_telemetry,
    read_telemetry,
)
from repro.utils.profiling import StageTimer

from tests.strategies import (
    buffer_sizes,
    get_plan,
    link_capacities,
    message_sizes,
    plan_keys,
    plan_used_links,
)


def _collect(plan, m, sample_every=8, engine="reference", **kw):
    col = Collector(sample_every=sample_every)
    stats = simulate_allreduce(
        plan.topology, plan.trees, plan.partition(m), engine=engine,
        telemetry=col, **kw
    )
    return col, stats


# ------------------------------------------------------------- round-trip


class TestRoundTrip:
    def test_jsonl_round_trip_lossless(self):
        col, _ = _collect(get_plan(5, "low-depth"), 90)
        text = col.to_jsonl()
        run = loads_telemetry(text)
        assert run.to_jsonl() == text

    def test_file_round_trip(self, tmp_path):
        col, _ = _collect(get_plan(3, "edge-disjoint"), 40)
        path = tmp_path / "trace.jsonl"
        col.write(path)
        assert read_telemetry(path).to_jsonl() == path.read_text()

    def test_stream_shape(self):
        col, stats = _collect(get_plan(5, "low-depth"), 90)
        recs = [json.loads(line) for line in col.to_jsonl().splitlines()]
        assert recs[0]["t"] == "header" and recs[0]["v"] == SCHEMA_VERSION
        assert recs[1]["t"] == "leg" and recs[1]["leg"] == 0
        assert recs[-1] == {
            "completed": True, "cycles": stats.cycles, "legs": 1, "t": "end",
        }
        kinds = {r["t"] for r in recs}
        assert kinds == {"header", "leg", "sample", "counters", "end"}

    def test_canonical_serialization(self):
        assert dumps_record({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
        assert TelemetryWriter([]).to_jsonl() == ""
        text = TelemetryWriter([{"t": "x"}, {"t": "y"}]).to_jsonl()
        assert text == '{"t":"x"}\n{"t":"y"}\n'

    def test_parsed_arrays_are_numpy(self):
        col, _ = _collect(get_plan(5, "low-depth"), 120, sample_every=4)
        run = loads_telemetry(col.to_jsonl())
        leg = run.leg(0)
        S, C = leg.link_flits.shape
        assert S == len(leg.cycles) > 0
        assert C == len(leg.channels)
        assert leg.queue.shape == (S, leg.n)
        for arr in (leg.cycles, leg.abs_cycles, leg.link_flits, leg.queue):
            assert arr.dtype == np.int64


# ------------------------------------------------------------- invariants


class TestInvariants:
    @given(key=plan_keys(qs=(3, 4, 5)), m=message_sizes(max_value=40),
           cap=link_capacities(max_value=3), k=st.integers(1, 16))
    @settings(max_examples=20, deadline=None)
    def test_utilization_bounded_and_queues_nonnegative(self, key, m, cap, k):
        plan = get_plan(*key)
        col, _ = _collect(plan, m, sample_every=k, engine="leap",
                          link_capacity=cap)
        run = loads_telemetry(col.to_jsonl())
        util = run.utilization(0)
        assert np.all(util >= 0.0) and np.all(util <= 1.0)
        assert np.all(run.leg(0).queue >= 0)

    @given(key=plan_keys(qs=(3, 4, 5)), m=message_sizes(max_value=32),
           buf=buffer_sizes(max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_counters_match_trace_totals(self, key, m, buf):
        """The counters record must agree with totals derived from the
        engine-agnostic per-cycle trace — an independent witness."""
        plan = get_plan(*key)
        col, _ = _collect(plan, m, engine="fast", buffer_size=buf)
        trace = trace_allreduce(
            plan.topology, plan.trees, plan.partition(m), buffer_size=buf,
        )
        counters = col.counters[0]
        assert counters.flits_moved == sum(
            sum(series) for series in trace.activity.values()
        )
        assert (sum(counters.reduce_hops) + sum(counters.broadcast_hops)
                == counters.flits_moved)
        assert counters.delivered == tuple(plan.partition(m))
        assert counters.dropped == (0,) * plan.num_trees
        assert counters.stall_cycles == sum(
            1 for c in range(trace.cycles)
            if all(series[c] == 0 for series in trace.activity.values())
        )

    def test_dense_probe_stream_equals_trace(self):
        """``sample_every=1`` windows are exactly the per-cycle trace."""
        plan = get_plan(5, "edge-disjoint")
        m = 60
        col, stats = _collect(plan, m, sample_every=1)
        trace = trace_allreduce(plan.topology, plan.trees, plan.partition(m))
        run = loads_telemetry(col.to_jsonl())
        leg = run.leg(0)
        assert list(leg.cycles) == list(range(1, stats.cycles + 1))
        for c, ch in enumerate(leg.channels):
            assert list(leg.link_flits[:, c]) == trace.activity[ch]

    def test_windows_sum_to_cumulative_counters(self):
        plan = get_plan(7, "low-depth")
        col, _ = _collect(plan, 200, sample_every=16, engine="leap")
        run = loads_telemetry(col.to_jsonl())
        leg = run.leg(0)
        last = int(leg.cycles[-1])
        # windows tile [0, last]: their sum is the cumulative count there
        sim_col = Collector(sample_every=last)
        simulate_allreduce(plan.topology, plan.trees, plan.partition(200),
                           telemetry=sim_col, engine="fast")
        ref = loads_telemetry(sim_col.to_jsonl()).leg(0)
        assert list(leg.link_flits.sum(axis=0)) == list(ref.link_flits[0])


# ---------------------------------------------------- dataclass behavior


class TestRecords:
    def test_counter_record_round_trip_drops_engine_identity(self):
        col, stats = _collect(get_plan(3, "low-depth"), 30, engine="leap")
        counters = col.counters[0]
        rec = counters.to_record(0, stats.cycles, True)
        assert "leap_jumps" not in rec
        back = CounterSet.from_record(rec)
        assert back == dataclasses.replace(counters, leap_jumps=0)

    def test_probe_record(self):
        p = Probe(cycle=8, abs_cycle=108, link_flits=(1, 0), queue=(2,))
        assert p.to_record(1) == {
            "t": "sample", "leg": 1, "cycle": 8, "abs": 108,
            "link_flits": [1, 0], "queue": [2],
        }

    def test_collector_rejects_bad_sample_period(self):
        with pytest.raises(ValueError):
            Collector(sample_every=0)

    def test_collector_rejects_fractional_sample_period(self):
        # a float period never silently truncates to a whole one
        with pytest.raises(TypeError, match="sample_every must be an integer"):
            Collector(sample_every=2.5)
        assert Collector(sample_every=np.int64(4)).sample_every == 4

    def test_finish_is_idempotent(self):
        col, stats = _collect(get_plan(3, "low-depth"), 20)
        col.finish(stats.cycles)  # simulate_allreduce already finished it
        recs = [json.loads(line) for line in col.to_jsonl().splitlines()]
        assert sum(1 for r in recs if r["t"] == "end") == 1


# ------------------------------------------------------- perf + profiling


class TestPerf:
    def test_perf_record_opt_in_with_construction_ns(self):
        plan = get_plan(3, "low-depth")
        timer = StageTimer()
        with timer.stage("plan"):
            pass
        col = Collector(sample_every=8, include_perf=True)
        col.set_construction(timer)
        simulate_allreduce(plan.topology, plan.trees, plan.partition(30),
                           engine="leap", telemetry=col)
        perf = [r for r in col.records if r["t"] == "perf"]
        assert len(perf) == 1
        (rec,) = perf
        assert rec["engines"][0]["engine"] == "leap"
        assert rec["engines"][0]["leaps"] is not None
        assert rec["construction_ns"] == timer.as_dict_ns()
        assert rec["construction_total_ns"] == timer.total_ns()

    def test_perf_absent_by_default(self):
        col, _ = _collect(get_plan(3, "low-depth"), 30, engine="leap")
        assert all(r["t"] != "perf" for r in col.records)

    def test_stage_timer_ns_view(self):
        timer = StageTimer()
        with timer.stage("a"):
            pass
        with timer.stage("a"):
            pass
        with timer.stage("b"):
            pass
        ns = timer.as_dict_ns()
        assert set(ns) == {"a", "b"}
        assert all(isinstance(v, int) and v >= 0 for v in ns.values())
        assert timer.total_ns() == sum(ns for _, ns in timer.stages_ns)
        # float-seconds compatibility views derive from the ns record
        assert timer.as_dict() == {k: v / 1e9 for k, v in ns.items()}
        assert [n for n, _ in timer.stages] == ["a", "a", "b"]
        assert timer.total() == pytest.approx(timer.total_ns() / 1e9)


# ----------------------------------------------------- stalls and recovery


class TestMultiLeg:
    def test_stalled_run_still_finalizes_stream(self):
        plan = get_plan(5, "low-depth")
        link = plan_used_links(plan)[0]
        col = Collector(sample_every=8)
        with pytest.raises(SimulationStalled) as exc:
            simulate_allreduce(
                plan.topology, plan.trees, plan.partition(80),
                faults=FaultSchedule([(link, 5)]), telemetry=col,
            )
        recs = [json.loads(line) for line in col.to_jsonl().splitlines()]
        assert recs[-1]["t"] == "end" and recs[-1]["completed"] is False
        assert recs[-1]["cycles"] == exc.value.cycle
        counters = [r for r in recs if r["t"] == "counters"]
        assert len(counters) == 1 and counters[0]["completed"] is False

    def test_recovery_emits_legs_and_episode(self):
        plan = get_plan(5, "low-depth")
        link = plan_used_links(plan)[0]
        col = Collector(sample_every=8)
        res = run_with_recovery(
            plan, 120, FaultSchedule.single(link, 20), policy="repaired",
            engine="leap", telemetry=col,
        )
        run = loads_telemetry(col.to_jsonl())
        assert len(run.legs) == len(res.episodes) + 1 == 2
        assert len(run.episodes) == 1
        ep = run.episodes[0]
        assert ep["detect_cycle"] == res.episodes[0].detect_cycle
        assert ep["failed_links"] == [list(link)]
        assert run.end == {
            "t": "end", "cycles": res.total_cycles, "legs": 2,
            "completed": True,
        }
        # absolute sample cycles stay monotone across the leg boundary
        abs_cycles = np.concatenate([leg.abs_cycles for leg in run.legs])
        assert np.all(np.diff(abs_cycles) > 0)
        assert run.legs[1].offset == res.episodes[0].detect_cycle

    def test_episode_records_count_up(self):
        from repro.simulator.adaptive import run_adaptive

        plan = get_plan(7, "low-depth")
        col = Collector(sample_every=16)
        skewed = [2000] + [0] * (plan.num_trees - 1)
        res = run_adaptive(plan, m_per_tree=skewed, engine="fast", telemetry=col)
        run = loads_telemetry(col.to_jsonl())
        assert len(res.episodes) >= 2
        assert [ep["index"] for ep in run.episodes] == list(
            range(len(res.episodes))
        )

    def test_hot_links_and_queue_peaks_deterministic(self):
        col, _ = _collect(get_plan(5, "low-depth"), 120, sample_every=4)
        run = loads_telemetry(col.to_jsonl())
        hot = run.hot_links(top=4)
        assert len(hot) == 4
        assert [m for _, m, _ in hot] == sorted(
            [m for _, m, _ in hot], reverse=True
        )
        assert hot == run.hot_links(top=4)
        peaks = run.queue_peaks(top=3)
        assert len(peaks) == 3
        assert [p for _, p in peaks] == sorted(
            [p for _, p in peaks], reverse=True
        )
