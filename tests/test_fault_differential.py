"""Deterministic faulted differential grid at q=7 (the CI gate).

For every fault schedule in a fixed grid — permanent, transient, multi-
link and cascading — the three cycle engines must agree on the *full*
per-cycle trace and the completion (or stall) cycle, bit for bit. This is
the acceptance criterion of the dynamic fault layer: fault handling is
implemented three independent ways (per-channel skip, vectorized budget
mask, leap barriers + idle fast-forward) and the grid pins them to each
other.

Runs at q=7 so the grid covers real PolarFly radix (N=57) rather than
just the toy radixes the hypothesis suites sample.
"""

import pytest

from repro.core import build_plan
from repro.simulator import (
    FaultSchedule,
    SimulationStalled,
    simulate_allreduce,
    trace_allreduce,
)

from tests.strategies import (
    CYCLE_ENGINES,
    OBSERVERS,
    observer,
    plan_used_links,
)

Q = 7
M = 120


def _grid():
    """(label, scheme, schedule-builder) cases; builders take the plan's
    used-link list so edges are valid for either scheme's topology."""
    return [
        ("permanent-early", "low-depth",
         lambda L: FaultSchedule([(L[0], 5)])),
        ("permanent-late", "low-depth",
         lambda L: FaultSchedule([(L[3], 60)])),
        ("transient-short", "low-depth",
         lambda L: FaultSchedule([(L[0], 10, 30)])),
        ("transient-long-idle", "low-depth",
         lambda L: FaultSchedule([(L[1], 8, 300)])),
        ("two-links-staggered", "low-depth",
         lambda L: FaultSchedule([(L[0], 15), (L[5], 40)])),
        ("down-up-down", "low-depth",
         lambda L: FaultSchedule([(L[2], 10, 25), (L[2], 50, 70)])),
        ("permanent-early", "edge-disjoint",
         lambda L: FaultSchedule([(L[0], 5)])),
        ("transient-overlapping-pair", "edge-disjoint",
         lambda L: FaultSchedule([(L[0], 10, 60), (L[7], 20, 45)])),
        ("permanent-plus-transient", "edge-disjoint",
         lambda L: FaultSchedule([(L[0], 30), (L[7], 10, 20)])),
    ]


def _trace_or_stall(plan, parts, faults, engine, compress=False):
    """The dense per-cycle activity, or the trace's stall outcome."""
    try:
        trace = trace_allreduce(
            plan.topology, plan.trees, parts, engine=engine, faults=faults,
            compress=compress,
        )
    except SimulationStalled as exc:
        return ("stall", exc.cycle, exc.pending)
    return (trace.expand() if compress else trace).activity


@pytest.mark.parametrize("mode", OBSERVERS)
@pytest.mark.parametrize(
    "label,scheme,build",
    _grid(),
    ids=[f"{s}-{l}" for l, s, _ in _grid()],
)
def test_engines_bit_identical_under_faults(label, scheme, build, mode):
    # under ``mode="python"`` every engine that takes telemetry runs with
    # a collector attached: the observed runs must match the unobserved
    # batched engine, and the collectors must record the same stream
    plan = build_plan(Q, scheme)
    faults = build(plan_used_links(plan))
    parts = plan.partition(M)

    outcomes = {}
    traces = {}
    streams = {}
    for engine in CYCLE_ENGINES:
        col = observer(mode, engine)
        try:
            s = simulate_allreduce(
                plan.topology, plan.trees, parts, engine=engine, faults=faults,
                telemetry=col,
            )
            outcomes[engine] = ("done", s.cycles, s.tree_completion,
                                s.flits_moved)
        except SimulationStalled as exc:
            outcomes[engine] = ("stall", exc.cycle, exc.pending)
        if col is not None:
            streams[engine] = col.to_jsonl()
        traces[engine] = _trace_or_stall(plan, parts, faults, engine)
    # the leap engine's run-length tracer expands to the same columns
    traces["leap-compressed"] = _trace_or_stall(
        plan, parts, faults, "leap", compress=True
    )

    ref = outcomes["reference"]
    for engine in CYCLE_ENGINES[1:]:
        assert outcomes[engine] == ref, (label, engine, mode, outcomes)
    for engine, trace in traces.items():
        assert trace == traces["reference"], (label, engine, mode)
    if ref[0] == "stall":
        # the trace loops stall at run()'s exact cycle and pending set
        assert traces["reference"] == ref, (label, mode)
    for engine, stream in streams.items():
        assert stream == streams["reference"], (label, engine)


def test_leap_compressed_trace_matches_dense_under_faults():
    plan = build_plan(Q, "low-depth")
    faults = FaultSchedule([(plan_used_links(plan)[1], 8, 300)])
    parts = plan.partition(M)
    dense = trace_allreduce(
        plan.topology, plan.trees, parts, engine="reference", faults=faults
    )
    comp = trace_allreduce(
        plan.topology, plan.trees, parts, engine="leap", faults=faults,
        compress=True,
    )
    assert comp.cycles == dense.cycles
    assert comp.expand().activity == dense.activity


def test_recovery_table_deterministic_and_engine_independent():
    from dataclasses import replace

    from repro.analysis.recovery import recovery_row

    rows = [
        replace(recovery_row(Q, "low-depth", "repaired", m=M, engine=e),
                engine="*")
        for e in CYCLE_ENGINES
    ]
    assert all(r == rows[0] for r in rows[1:]), rows
    again = recovery_row(Q, "low-depth", "repaired", m=M, engine="leap")
    assert replace(again, engine="*") == rows[0]
