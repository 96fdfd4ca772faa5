"""Shared cycle-engine protocol and engine selection.

Four interchangeable implementations of the flit-level pipelined
Allreduce simulation exist:

- ``"reference"`` — :class:`repro.simulator.cycle.CycleSimulator`, the
  mechanism-faithful per-flit implementation (per-channel Python round
  robin; slow, easy to audit, and never delegated — it is the oracle the
  other engines are differential-tested against);
- ``"fast"`` — :class:`repro.simulator.fastcycle.FastCycleSimulator`, a
  NumPy-vectorized engine that advances all channels per cycle with one
  fused step (land, budgets, arbitrate, send);
- ``"leap"`` — :class:`repro.simulator.leap.LeapCycleSimulator`, the
  cycle-leaping engine: steps with the fast engine's fused step, confirms
  the steady-state period of the pipeline from ring buffers, and jumps
  whole multiples of it in closed form, so ``run()`` wall-clock is
  O(depth + #events) instead of O(cycles);
- ``"batched"`` — :class:`repro.simulator.batched.BatchedCycleSimulator`,
  the batch engine: B independent runs over a shared topology/plan in one
  ``(B, 4, T, n)`` state tensor, each lane bit-identical to ``"fast"``.
  As a :class:`CycleEngine` it is a single-lane batch; real batches go
  through ``lanes=[LaneSpec(...), ...]`` + ``run_batch``.  Telemetry is
  unsupported in v1 (raises ``ValueError``).

All satisfy :class:`CycleEngine` and are **cycle-exact** equivalents:
identical per-channel per-cycle flit counts, per-tree completion cycles
and :class:`~repro.simulator.cycle.CycleStats` on every workload
(enforced by ``tests/test_fastcycle_equivalence.py`` and
``tests/test_leap.py``).  Tracing and the waterfall renderer
(:mod:`repro.simulator.trace`) work against this protocol, so they are
engine-agnostic.

Engines only step.  Every ``run`` — and the tracer, and each tenant of
the multi-tenant fabric — books its cycles through one
:class:`~repro.simulator.cycle.EngineRun`: the ``max_cycles`` guard
(:class:`~repro.simulator.cycle.CycleLimitExceeded`), telemetry hooks,
completion cycles, the stall rule and the
:meth:`~repro.simulator.cycle.CycleStats.fold` live there once.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

try:  # Protocol is typing-only; keep 3.7-compatible fallback cheap
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

from repro.simulator.batched import BatchedCycleSimulator
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
    channel activity (aligned lists) so tracers can diff successive
    cycles; ``tree_done``/``done`` report completion as of the flits that
    have *landed* (in-flight flits excluded, one-cycle hop latency);
    ``has_in_flight`` says whether any granted flit has yet to land (the
    stall detectors' second condition); ``delivered_floor`` /
    ``reduced_at_root`` expose per-tree progress frontiers so the
    recovery runtime (:mod:`repro.simulator.recovery`) can account for
    already-reduced partial chunks mid-flight; ``run`` drives the engine
    to completion and folds the result into a :class:`CycleStats`.

    Engines accept an optional
    :class:`~repro.simulator.faultsched.FaultSchedule` (the ``faults``
    attribute) and honor it with identical semantics — dead links carry
    nothing, stalls raise
    :class:`~repro.simulator.cycle.SimulationStalled` at the exact same
    cycle on every engine.

    For telemetry, engines expose ``queue_occupancy`` (per-router
    receiver-side occupancy) and ``phase_flit_totals`` (per-tree
    reduce/broadcast flit-hops) — both cycle-exact across engines — and
    accept an optional :class:`~repro.telemetry.Collector` (the
    ``telemetry`` attribute) whose hooks ``run`` drives; ``None`` keeps
    the hot path hook-free.
    """

    engine_name: str
    capacity: int
    buffer_size: Optional[int]
    faults: Optional[FaultSchedule]
    telemetry: object
    cycle: int

    def step(self) -> int: ...

    def tree_done(self, i: int) -> bool: ...

    def done(self) -> bool: ...

    def channels(self) -> List[Tuple[int, int]]: ...

    def channel_flit_counts(self) -> List[int]: ...

    def has_in_flight(self) -> bool: ...

    def delivered_floor(self) -> List[int]: ...

    def reduced_at_root(self) -> List[int]: ...

    def queue_occupancy(self) -> List[int]: ...

    def phase_flit_totals(self) -> Tuple[List[int], List[int]]: ...

    def run(self, max_cycles: Optional[int] = None) -> CycleStats: ...


ENGINES = {
    "reference": CycleSimulator,
    "fast": FastCycleSimulator,
    "leap": LeapCycleSimulator,
    "batched": BatchedCycleSimulator,
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
    """Instantiate the named cycle engine (``"reference"``, ``"fast"``,
    ``"leap"`` or ``"batched"``), optionally bound to a dynamic fault
    schedule and/or a :class:`~repro.telemetry.Collector` (the batched
    engine rejects telemetry)."""
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
