"""Simulation-grid cells: one cycle-accurate run as a batchable sweep task.

``sim_point`` is the sweep-facing wrapper around one flit-level Allreduce
simulation: a plan (``q`` + ``scheme``) plus the per-run knobs (message
split ``m``, ``link_capacity``, ``buffer_size``, optional fault windows)
in a JSON-representable cell, returning a plain-dict summary with
deterministic key order and pure-python values, so cached entries are
byte-stable.

The shape is deliberately what the batched engine
(:mod:`repro.simulator.batched`) can stack: every cell of a grid over
``m`` / ``buffer_size`` / ``link_capacity`` / ``faults`` at a fixed
``(q, scheme)`` shares one topology and tree plan and differs only in
per-lane knobs.  :func:`sim_point_group_key` and :func:`sim_point_batch`
are the hooks :class:`~repro.sweep.engine.SweepRunner` routes through:
compatible cells become one :meth:`~repro.simulator.batched.
BatchedCycleSimulator.run_batch` call whose per-lane results are
bit-identical to calling :func:`sim_point` per cell (the engine's
differential guarantee), so the sweep cache cannot tell the routes apart.
A cell whose knobs overflow the batch's int32 state
(:func:`~repro.simulator.batched.int32_headroom`) runs through
:func:`sim_point` instead.

A stalled run is *data*, not an error (``{"stalled": True, ...}``) — fault
grids stall by design; the cycle guard (``CycleLimitExceeded``) still
propagates on both routes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core import get_plan
from repro.simulator import SimulationStalled, make_engine
from repro.simulator.batched import (
    BatchedCycleSimulator,
    LaneOutcome,
    LaneSpec,
    int32_headroom,
)
from repro.simulator.cycle import CycleStats, check_engine_args
from repro.simulator.faultsched import FaultSchedule

__all__ = ["sim_point", "sim_point_batch", "sim_point_group_key", "sim_grid_cells"]

# cell-level fault spec: [[u, v], down, up-or-None] windows (JSON scalars
# only — Cell parameters cannot carry FaultSchedule objects)
FaultsParam = Optional[Sequence[Sequence[Any]]]


def _lane(plan, m: Union[int, Sequence[int]], link_capacity: int,
          buffer_size: Optional[int], faults: FaultsParam) -> LaneSpec:
    # values pass through as given: every engine's check_engine_args
    # names a non-integer knob instead of truncating it
    flits = m if isinstance(m, (list, tuple)) else (m,) * plan.num_trees
    return LaneSpec(
        flits, link_capacity, buffer_size, FaultSchedule(faults) if faults else None
    )


def _done_dict(stats: CycleStats) -> Dict[str, Any]:
    total = sum(stats.flits_per_tree)
    return {
        "stalled": False,
        "cycles": stats.cycles,
        "tree_completion": [int(c) for c in stats.tree_completion],
        "flits_moved": stats.flits_moved,
        "aggregate_bandwidth": (total / stats.cycles) if stats.cycles else 0.0,
        "max_channel_utilization": stats.max_channel_utilization,
        "mean_channel_utilization": stats.mean_channel_utilization,
    }


def _stalled_dict(cycle: int, pending: Sequence[int]) -> Dict[str, Any]:
    return {
        "stalled": True,
        "stall_cycle": int(cycle),
        "pending": [int(t) for t in pending],
    }


def _outcome_dict(out: LaneOutcome) -> Dict[str, Any]:
    if out.status == "exceeded":
        out.result()  # raises the serial CycleLimitExceeded
    if out.status == "stalled":
        return _stalled_dict(out.stall_cycle, out.stall_pending)
    return _done_dict(out.stats)


def sim_point(
    q: int,
    scheme: str = "low-depth",
    m: Union[int, Sequence[int]] = 1,
    link_capacity: int = 1,
    buffer_size: Optional[int] = None,
    faults: FaultsParam = None,
    engine: str = "fast",
) -> Dict[str, Any]:
    """One cycle-accurate simulation point as a plain-dict cell result.

    ``m`` is the per-tree flit count (a scalar applies to every tree);
    ``faults`` is a list of ``[[u, v], down, up]`` failure windows
    (``up=None`` for permanent).  A stall comes back as data; the
    cycle guard (``CycleLimitExceeded``) propagates.
    """
    plan = get_plan(q, scheme)
    lane = _lane(plan, m, link_capacity, buffer_size, faults)
    try:
        stats = make_engine(
            engine,
            plan.topology,
            plan.trees,
            lane.flits_per_tree,
            lane.link_capacity,
            lane.buffer_size,
            faults=lane.faults,
        ).run()
    except SimulationStalled as e:
        return _stalled_dict(e.cycle, e.pending)
    return _done_dict(stats)


def sim_point_group_key(kwargs: Dict[str, Any]) -> Tuple[Any, ...]:
    """Cells that may share one batched call: same plan, ``fast`` engine.

    Only ``engine="fast"`` cells are grouped — the batched lanes are
    differentially proven bit-identical to ``fast``, so routing them
    through ``run_batch`` cannot change a byte of the cached result.
    Other engines stay on the serial path.
    """
    if kwargs.get("engine", "fast") != "fast":
        return None
    return (kwargs["q"], kwargs.get("scheme", "low-depth"))


def sim_point_batch(cells_kwargs: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Evaluate compatible ``sim_point`` cells as one batched run.

    Per-lane results are bit-identical to :func:`sim_point` per cell; a
    lane whose serial run would raise the cycle guard
    (``CycleLimitExceeded``) raises it here too.  Cells the batch cannot
    hold (:func:`~repro.simulator.batched.int32_headroom`) run through
    :func:`sim_point`.
    """
    first = cells_kwargs[0]
    plan = get_plan(first["q"], first.get("scheme", "low-depth"))
    k_max = plan.max_congestion  # flows on the busiest channel
    held: Dict[int, LaneSpec] = {}
    for i, kw in enumerate(cells_kwargs):
        lane = _lane(
            plan,
            kw.get("m", 1),
            kw.get("link_capacity", 1),
            kw.get("buffer_size"),
            kw.get("faults"),
        )
        # the engines' own check first: a bad knob raises its named error
        # here exactly as on the serial route
        m, cap, _ = check_engine_args(
            plan.topology, plan.trees, lane.flits_per_tree,
            lane.link_capacity, lane.buffer_size, lane.faults,
        )
        if int32_headroom(m, cap, k_max) is None:
            held[i] = lane
    done: Dict[int, Dict[str, Any]] = {}
    if held:
        sim = BatchedCycleSimulator(
            plan.topology, plan.trees, lanes=list(held.values())
        )
        done = dict(zip(held, map(_outcome_dict, sim.run_batch())))
    return [
        done[i] if i in done else sim_point(**kw)
        for i, kw in enumerate(cells_kwargs)
    ]


def sim_grid_cells(
    q: int,
    ms: Sequence[int],
    buffer_sizes: Sequence[Optional[int]],
    scheme: str = "low-depth",
):
    """The canonical batchable grid: every (m, buffer) point of one plan."""
    from repro.sweep.spec import cell

    return [
        cell("sim_point", q=q, scheme=scheme, m=m, buffer_size=b)
        for m in ms
        for b in buffer_sizes
    ]
