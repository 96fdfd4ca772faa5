"""Three-engine telemetry differential at q=7 (the CI gate).

The telemetry layer's acceptance criterion: for the same seeded run the
reference, fast and leap engines must emit **byte-identical** JSONL —
same samples at the same cycles (the leap engine reconstructs the ones
falling inside jumped regions from its verified steady-state period, and
repeats frozen state through idle fast-forwards), same counters, same
episode records under recovery. Engine identity is allowed to surface
only in the opt-in ``perf`` record.

Runs at q=7 so the differential covers real PolarFly radix (N=57) with
leaps actually taken, not just the toy radixes the hypothesis suites
sample.

The batched lane evaluator is absent: it is not a cycle engine and takes
no collector.
"""

import dataclasses
import json

import pytest

from repro.core import build_plan
from repro.simulator import (
    FaultSchedule,
    SimulationStalled,
    run_with_recovery,
    simulate_allreduce,
)
from repro.telemetry import Collector, loads_telemetry

from tests.strategies import CYCLE_ENGINES, plan_used_links

Q = 7
M = 120


def _jsonl(plan, m, engine, sample_every=16, include_perf=False, **kw):
    col = Collector(sample_every=sample_every, include_perf=include_perf)
    try:
        simulate_allreduce(
            plan.topology, plan.trees, plan.partition(m), engine=engine,
            telemetry=col, **kw
        )
    except SimulationStalled:
        pass
    return col


def _grid():
    """(label, scheme, m, sample_every, kwargs-builder) cases; builders
    take the plan's used-link list so fault edges are valid for either
    scheme's topology."""
    return [
        ("clean", "low-depth", M, 16, lambda L: {}),
        ("clean", "edge-disjoint", M, 16, lambda L: {}),
        ("dense-sampling", "low-depth", 90, 1, lambda L: {}),
        ("sparse-sampling", "low-depth", M, 97, lambda L: {}),
        ("buffered", "low-depth", M, 8, lambda L: {"buffer_size": 2}),
        ("capacity2", "low-depth", M, 8, lambda L: {"link_capacity": 2}),
        ("buffered-capacity", "edge-disjoint", M, 8,
         lambda L: {"buffer_size": 3, "link_capacity": 2}),
        ("permanent-fault-stall", "low-depth", M, 8,
         lambda L: {"faults": FaultSchedule([(L[0], 5)])}),
        ("transient-idle-wait", "low-depth", M, 8,
         lambda L: {"faults": FaultSchedule([(L[1], 8, 300)])}),
        ("two-transients", "edge-disjoint", M, 8,
         lambda L: {"faults": FaultSchedule([(L[0], 10, 60), (L[7], 20, 45)])}),
    ]


@pytest.mark.parametrize(
    "label,scheme,m,k,build",
    _grid(),
    ids=[f"{s}-{l}" for l, s, _, _, _ in _grid()],
)
def test_engines_emit_byte_identical_jsonl(label, scheme, m, k, build):
    plan = build_plan(Q, scheme)
    kw = build(plan_used_links(plan))
    streams = {
        e: _jsonl(plan, m, e, sample_every=k, **kw).to_jsonl()
        for e in CYCLE_ENGINES
    }
    ref = streams["reference"]
    assert ref  # never empty: at least header/leg/counters/end
    for engine in CYCLE_ENGINES[1:]:
        assert streams[engine] == ref, (label, engine)


def test_leap_reconstructs_samples_inside_jumps():
    """Large m drives the leap engine into actual jumps; the sample
    stream must still match the stepping engines byte for byte."""
    plan = build_plan(Q, "low-depth")
    m = 1600
    cols = {
        e: _jsonl(plan, m, e, sample_every=64) for e in CYCLE_ENGINES
    }
    assert cols["leap"].counters[0].leap_jumps > 0
    ref = cols["reference"].to_jsonl()
    samples = sum(
        1 for r in cols["leap"].records if r["t"] == "sample"
    )
    assert samples > cols["leap"].counters[0].leap_jumps  # jumps held samples
    for engine in CYCLE_ENGINES[1:]:
        assert cols[engine].to_jsonl() == ref


def test_engine_identity_confined_to_perf_record():
    plan = build_plan(Q, "low-depth")
    streams = {
        e: _jsonl(plan, M, e, sample_every=16, include_perf=True)
        for e in CYCLE_ENGINES
    }
    perfs = {}
    stripped = {}
    for e, col in streams.items():
        recs = [json.loads(line) for line in col.to_jsonl().splitlines()]
        perfs[e] = [r for r in recs if r["t"] == "perf"]
        stripped[e] = [r for r in recs if r["t"] != "perf"]
    for e in CYCLE_ENGINES:
        assert len(perfs[e]) == 1
        assert perfs[e][0]["engines"][0]["engine"] == e
    assert stripped["fast"] == stripped["reference"]
    assert stripped["leap"] == stripped["reference"]


def test_recovery_telemetry_engine_independent():
    plan = build_plan(Q, "low-depth")
    link = plan_used_links(plan)[0]
    streams = {}
    for engine in CYCLE_ENGINES:
        col = Collector(sample_every=16)
        res = run_with_recovery(
            plan, 240, FaultSchedule.single(link, 20), policy="repaired",
            engine=engine, telemetry=col,
        )
        assert res.episodes  # the grid point really does re-plan
        streams[engine] = col.to_jsonl()
    ref = streams["reference"]
    run = loads_telemetry(ref)
    assert len(run.legs) == 2 and len(run.episodes) == 1
    for engine in CYCLE_ENGINES[1:]:
        assert streams[engine] == ref


def test_telemetry_row_deterministic_and_engine_independent():
    from repro.analysis.telemetry import telemetry_row

    rows = [
        dataclasses.replace(
            telemetry_row(Q, "low-depth", m=M, engine=e), engine="*"
        )
        for e in CYCLE_ENGINES
    ]
    assert rows[0] == rows[1] == rows[2]
    again = telemetry_row(Q, "low-depth", m=M, engine="leap")
    assert dataclasses.replace(again, engine="*") == rows[0]
