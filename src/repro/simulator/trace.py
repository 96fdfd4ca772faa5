"""Execution tracing for the cycle engines: per-cycle channel activity.

Steps any :class:`~repro.simulator.engine.CycleEngine` (the reference
per-flit simulator, the vectorized fast engine or the cycle-leaping leap
engine — all emit identical traces) and records, for every cycle, which
directed channels moved how many flits. The leap engine can additionally
emit a :class:`CompressedTrace` of run-length encoded periods
(``trace_allreduce(..., compress=True)``) whose memory is O(#events),
not O(cycles). Renders a text "waterfall" — channels down the side, cycles
across — that makes pipeline fill, steady state and drain visible, and
exposes per-channel utilization series for analysis.

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

from repro.simulator.cycle import EngineRun
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

    The leap engine emits one ``(1, block)`` run per stepped stretch and a
    single ``(k, period-block)`` run per leap of ``k`` periods, so memory
    stays O(#events x period) instead of O(cycles). Each block is a
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
    """Step the selected cycle engine, recording channel activity.

    ``engine`` selects any registered engine (``"reference"``, ``"fast"``
    or ``"leap"``) — all produce the same :class:`ChannelTrace`
    (cycle-exact equivalence).

    With ``compress=True`` the result is a :class:`CompressedTrace` of
    run-length ``(repeat, block)`` runs instead of a dense per-cycle
    table. Engines exposing ``trace_compressed`` (the leap engine) emit
    leaps as single runs, keeping memory O(events); other engines are
    stepped and the dense columns are wrapped in one run.

    ``faults`` (a :class:`~repro.simulator.faultsched.FaultSchedule`)
    injects dynamic link failures; a permanently severed run raises
    :class:`~repro.simulator.cycle.SimulationStalled` at the exact cycle
    progress stopped, identically on every engine.  The loop is the
    engines' own :class:`~repro.simulator.cycle.EngineRun` contract, so
    ``max_cycles`` (default :func:`~repro.simulator.cycle.default_max_cycles`)
    raises :class:`~repro.simulator.cycle.CycleLimitExceeded` exactly as
    ``run()`` does.
    """
    from repro.simulator.engine import make_engine

    sim = make_engine(
        engine, g, trees, flits_per_tree, link_capacity, buffer_size, faults,
    )
    if compress and hasattr(sim, "trace_compressed"):
        return sim.trace_compressed(max_cycles=max_cycles)
    channels = sim.channels()
    series: List[List[int]] = [[] for _ in channels]
    prev = sim.channel_flit_counts()
    run = EngineRun(sim, max_cycles)
    while not run.finished:
        run.tick(sim.step())
        now = sim.channel_flit_counts()
        for i, (a, b) in enumerate(zip(now, prev)):
            series[i].append(a - b)
        prev = now
    activity: Dict[Tuple[int, int], List[int]] = dict(zip(channels, series))
    if compress:
        block = np.asarray([activity[ch] for ch in channels], dtype=np.int64)
        return CompressedTrace(
            cycles=run.cycle,
            capacity=link_capacity,
            channels=list(channels),
            blocks=[(1, block)] if run.cycle else [],
        )
    return ChannelTrace(cycles=run.cycle, capacity=link_capacity, activity=activity)


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
