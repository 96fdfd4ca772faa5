"""Execution tracing for the cycle engines: per-cycle channel activity.

Runs any :class:`~repro.simulator.engine.CycleEngine` (the reference
per-flit simulator, the vectorized fast engine or the cycle-leaping leap
engine — all emit identical traces) and records, for every cycle, which
directed channels moved how many flits.  The trace observes the engine's
own ``run()`` through the collector hooks, so the leap engine's leaps and
dead waits reach it as whole runs: a :class:`CompressedTrace`
(``trace_allreduce(..., compress=True)``) keeps them run-length encoded,
in O(#events) memory, not O(cycles). Renders a text "waterfall" —
channels down the side, cycles across — that makes pipeline fill, steady
state and drain visible, and exposes per-channel utilization series for
analysis.

Intended for debugging embeddings and for teaching: the low-depth trees'
fill is visibly 3 hops; the Hamiltonian trees' diagonal wavefront crawls
(N-1)/2 hops before the broadcast wave returns. The per-cycle activity
series doubles as the observable for the cycle-exactness differential
harness (``tests/test_fastcycle_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.topology.graph import Graph
from repro.trees.tree import SpanningTree

__all__ = [
    "ChannelTrace",
    "CompressedTrace",
    "trace_allreduce",
    "render_waterfall",
]


@dataclass(frozen=True)
class ChannelTrace:
    """Per-cycle flit counts for every directed channel."""

    cycles: int
    capacity: int
    activity: Dict[Tuple[int, int], List[int]]  # channel -> per-cycle flits

    def utilization(self, channel: Tuple[int, int]) -> float:
        series = self.activity[channel]
        if not series:
            return 0.0
        return sum(series) / (len(series) * self.capacity)

    def busiest(self, top: int = 5) -> List[Tuple[Tuple[int, int], float]]:
        ranked = sorted(
            ((ch, self.utilization(ch)) for ch in self.activity),
            key=lambda x: (-x[1], x[0]),
        )
        return ranked[:top]


@dataclass(frozen=True)
class CompressedTrace:
    """Channel activity as run-length ``(repeat, block)`` runs.

    A trace holds one ``(1, block)`` run per stepped stretch and, on the
    leap engine, a single ``(k, period-block)`` run per leap of ``k``
    periods and one idle column per dead wait, so memory stays
    O(#events x period) instead of O(cycles). Each block is a
    ``(C, width)`` int array: ``C`` channels (in ``channels`` order) by
    ``width`` cycles, repeated ``repeat`` times back to back.

    :meth:`expand` reconstitutes the exact dense :class:`ChannelTrace`
    (use only when total cycles are small enough to materialize);
    :meth:`total_flits` and :meth:`utilization` work directly on the runs.
    """

    cycles: int
    capacity: int
    channels: List[Tuple[int, int]]
    blocks: List[Tuple[int, np.ndarray]] = field(repr=False)

    def total_flits(self) -> np.ndarray:
        """Per-channel flit totals, in ``channels`` order, from the runs."""
        tot = np.zeros(len(self.channels), dtype=np.int64)
        for repeat, block in self.blocks:
            tot += repeat * block.sum(axis=1)
        return tot

    def utilization(self, channel: Tuple[int, int]) -> float:
        if self.cycles == 0 or self.capacity == 0:
            return 0.0
        i = self.channels.index(channel)
        return int(self.total_flits()[i]) / (self.cycles * self.capacity)

    def expand(self) -> ChannelTrace:
        """Materialize the dense per-cycle trace (O(cycles) memory)."""
        if self.blocks:
            dense = np.concatenate(
                [np.tile(block, (1, repeat)) for repeat, block in self.blocks],
                axis=1,
            )
        else:
            dense = np.zeros((len(self.channels), 0), dtype=np.int64)
        activity = {
            ch: [int(x) for x in dense[i]] for i, ch in enumerate(self.channels)
        }
        return ChannelTrace(
            cycles=self.cycles, capacity=self.capacity, activity=activity
        )


class _Recorder:
    """Collector hooks that keep a run's channel activity as run-length
    blocks: the stepped cycles of a stretch as one block of one-cycle
    columns, a leap of ``k`` periods as ``(k, steady.phase_chd)`` and a
    dead wait as one idle column repeated."""

    def on_run_start(self, engine) -> None:
        self.capacity = engine.capacity
        self.channels = engine.channels()
        self.blocks: List[Tuple[int, np.ndarray]] = []
        self._cols: List[np.ndarray] = []
        self._cum = engine.channel_flit_array()

    def _flush(self) -> None:
        if self._cols:
            self.blocks.append((1, np.stack(self._cols, axis=1)))
            self._cols = []

    def on_cycle(self, engine, cycle: int, moved: int) -> None:
        cum = engine.channel_flit_array()
        self._cols.append(cum - self._cum)
        self._cum = cum

    def on_leap(self, engine, start_cycle: int, steady, k: int) -> None:
        self._flush()
        self.blocks.append((k, steady.phase_chd))
        self._cum = self._cum + k * steady.phase_chd.sum(axis=1)

    def on_idle(self, engine, start_cycle: int, end_cycle: int) -> None:
        self._flush()
        idle = np.zeros((len(self.channels), 1), dtype=np.int64)
        self.blocks.append((end_cycle - start_cycle, idle))

    def on_run_end(self, engine, cycle: int, completed: bool) -> None:
        # a finished run ends at the cycle its last tree completed
        self.cycles = cycle
        self._flush()


def trace_allreduce(
    g: Graph,
    trees: Sequence[SpanningTree],
    flits_per_tree: Sequence[int],
    link_capacity: int = 1,
    buffer_size: Optional[int] = None,
    max_cycles: Optional[int] = None,
    engine: str = "reference",
    compress: bool = False,
    faults=None,
):
    """Run the selected cycle engine, recording channel activity.

    ``engine`` selects any registered engine (``"reference"``, ``"fast"``
    or ``"leap"``) — all produce the same :class:`ChannelTrace`
    (cycle-exact equivalence).  The trace observes the engine's own
    ``run()`` through the collector hooks, so the leap engine leaps here
    as it does under a collector.

    With ``compress=True`` the result is a :class:`CompressedTrace` of
    run-length ``(repeat, block)`` runs instead of a dense per-cycle
    table: one run per stepped stretch, and on the leap engine one per
    leap and per dead wait, keeping memory O(events).

    ``faults`` (a :class:`~repro.simulator.faultsched.FaultSchedule`)
    injects dynamic link failures; a permanently severed run raises
    :class:`~repro.simulator.cycle.SimulationStalled` at the exact cycle
    progress stopped, identically on every engine, and ``max_cycles``
    (default :func:`~repro.simulator.cycle.default_max_cycles`) raises
    :class:`~repro.simulator.cycle.CycleLimitExceeded` exactly as
    ``run()`` does.
    """
    from repro.simulator.engine import make_engine

    rec = _Recorder()
    make_engine(
        engine, g, trees, flits_per_tree, link_capacity, buffer_size, faults,
        telemetry=rec,
    ).run(max_cycles)
    trace = CompressedTrace(
        cycles=rec.cycles,
        capacity=rec.capacity,
        channels=rec.channels,
        blocks=rec.blocks,
    )
    return trace if compress else trace.expand()


def render_waterfall(
    trace: ChannelTrace,
    channels: Optional[Sequence[Tuple[int, int]]] = None,
    max_cycles: int = 100,
    max_channels: int = 24,
) -> str:
    """Text waterfall: one row per channel, one column per cycle.

    Glyphs: ``.`` idle, digits 1-9 flits moved, ``#`` for >= 10.
    """
    if channels is None:
        channels = [ch for ch, u in trace.busiest(max_channels)]
    width = min(trace.cycles, max_cycles)
    lines = [
        f"waterfall ({trace.cycles} cycles total, showing first {width}; "
        f"capacity {trace.capacity}/cycle)"
    ]
    for ch in channels:
        series = trace.activity[ch][:width]
        row = "".join(
            "." if x == 0 else (str(x) if x < 10 else "#") for x in series
        )
        lines.append(f"{ch[0]:>4}->{ch[1]:<4} |{row}|")
    return "\n".join(lines)
