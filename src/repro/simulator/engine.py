"""Shared cycle-engine protocol and engine selection.

Three interchangeable single-run implementations of the flit-level
pipelined Allreduce simulation exist:

- ``"reference"`` — :class:`repro.simulator.cycle.CycleSimulator`, the
  mechanism-faithful per-flit implementation (per-channel Python round
  robin; slow, easy to audit, and never delegated — it is the oracle the
  other engines are differential-tested against);
- ``"fast"`` — :class:`repro.simulator.fastcycle.FastCycleSimulator`, a
  NumPy-vectorized engine that advances all channels per cycle with one
  fused step (budgets, arbitrate, send) over per-flow ``sent`` counters;
- ``"leap"`` — :class:`repro.simulator.leap.LeapCycleSimulator`, the
  cycle-leaping engine: steps with the fast engine's fused step, confirms
  the steady-state period of the pipeline from ring buffers, and jumps
  whole multiples of it in closed form, so ``run()`` wall-clock is
  O(depth + #events) instead of O(cycles).

All satisfy :class:`CycleEngine` and are **cycle-exact** equivalents:
identical per-channel per-cycle flit counts, per-tree completion cycles
and :class:`~repro.simulator.cycle.CycleStats` on every workload
(enforced by ``tests/test_fastcycle_equivalence.py`` and
``tests/test_leap.py``).  Tracing and the waterfall renderer
(:mod:`repro.simulator.trace`) observe ``run()`` through this protocol's
telemetry hooks, so they are engine-agnostic.

Many runs over one plan go through the lane evaluator instead,
:meth:`repro.simulator.batched.BatchedCycleSimulator.run_batch`: B runs
whose per-flow ``sent`` counters and grants share one ``(F, B)`` array
each, every lane bit-identical to ``"fast"``.  It is not a
:class:`CycleEngine` (no single-run surface, no telemetry) and not in
:data:`ENGINES`.

Engines only step.  Every ``run`` — which the tracer observes — and each
tenant of the multi-tenant fabric book their cycles through one
:class:`~repro.simulator.cycle.EngineRun`: the ``max_cycles`` guard
(:class:`~repro.simulator.cycle.CycleLimitExceeded`), telemetry hooks,
completion cycles, the stall rule and the
:meth:`~repro.simulator.cycle.CycleStats.fold` live there once.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.simulator.cycle import CycleSimulator, CycleStats
from repro.simulator.fastcycle import FastCycleSimulator
from repro.simulator.faultsched import FaultSchedule
from repro.simulator.leap import LeapCycleSimulator
from repro.topology.graph import Graph
from repro.trees.tree import SpanningTree

__all__ = ["CycleEngine", "ENGINES", "make_engine"]


@runtime_checkable
class CycleEngine(Protocol):
    """What a cycle engine must expose for running, tracing and stats.

    ``step`` advances one cycle and returns the flits transferred;
    ``channels``/``channel_flit_counts`` expose cumulative per-directed-
    channel activity (aligned lists; ``channel_flit_array`` hands the
    counts over as a fresh int64 array, which observers diff between
    cycles); ``done_mask`` reports per-tree completion as of the flits
    that have *landed* (in-flight flits excluded, one-cycle hop latency);
    ``delivered_floor`` / ``reduced_at_root`` expose per-tree progress
    frontiers so the recovery runtime (:mod:`repro.simulator.recovery`)
    can account for already-reduced partial chunks mid-flight; ``run``
    drives the engine to completion and folds the result into a
    :class:`CycleStats`.

    Engines accept an optional
    :class:`~repro.simulator.faultsched.FaultSchedule` (the ``faults``
    attribute) and honor it with identical semantics — dead links carry
    nothing, stalls raise
    :class:`~repro.simulator.cycle.SimulationStalled` at the exact same
    cycle on every engine.

    For telemetry, engines expose ``queue_occupancy`` (per-router
    receiver-side occupancy) and ``phase_flit_totals`` (per-tree
    reduce/broadcast flit-hops) — both cycle-exact across engines — and
    accept an optional observer (the ``telemetry`` attribute) whose hooks
    ``run`` drives: ``on_run_start``, ``on_cycle`` after every stepped
    cycle, ``on_leap`` and ``on_idle`` (leap engine only) and
    ``on_run_end``.  Any object with those hooks will do — a
    :class:`~repro.telemetry.Collector`, or the recorder behind
    :func:`~repro.simulator.trace.trace_allreduce`; ``None`` keeps the
    hot path hook-free.
    """

    engine_name: str
    capacity: int
    buffer_size: Optional[int]
    faults: Optional[FaultSchedule]
    telemetry: object
    cycle: int

    def step(self) -> int: ...

    def done_mask(self) -> np.ndarray: ...

    def channels(self) -> List[Tuple[int, int]]: ...

    def channel_flit_counts(self) -> List[int]: ...

    def channel_flit_array(self) -> np.ndarray: ...

    def delivered_floor(self) -> List[int]: ...

    def reduced_at_root(self) -> List[int]: ...

    def queue_occupancy(self) -> List[int]: ...

    def phase_flit_totals(self) -> Tuple[List[int], List[int]]: ...

    def run(self, max_cycles: Optional[int] = None) -> CycleStats: ...


ENGINES = {
    "reference": CycleSimulator,
    "fast": FastCycleSimulator,
    "leap": LeapCycleSimulator,
}


def make_engine(
    engine: str,
    g: Graph,
    trees: Sequence[SpanningTree],
    flits_per_tree: Sequence[int],
    link_capacity: int = 1,
    buffer_size: Optional[int] = None,
    faults: Optional[FaultSchedule] = None,
    telemetry=None,
) -> "CycleEngine":
    """Instantiate the named cycle engine (``"reference"``, ``"fast"`` or
    ``"leap"``), optionally bound to a dynamic fault schedule and/or a
    :class:`~repro.telemetry.Collector`."""
    try:
        cls = ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {sorted(ENGINES)}"
        ) from None
    return cls(
        g,
        trees,
        flits_per_tree,
        link_capacity,
        buffer_size,
        faults=faults,
        telemetry=telemetry,
    )
