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
are the :data:`repro.sweep.batching.BATCHERS` hooks that exploit this:
compatible cells become one :meth:`~repro.simulator.batched.
BatchedCycleSimulator.run_batch` call whose per-lane results are
bit-identical to calling :func:`sim_point` per cell (the engine's
differential guarantee), so the sweep cache cannot tell the routes apart.

A stalled run is *data*, not an error (``{"stalled": True, ...}``) — fault
grids stall by design; the cycle-guard ``RuntimeError`` still propagates
on both routes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core import get_plan
from repro.simulator import SimulationStalled, make_engine
from repro.simulator.batched import BatchedCycleSimulator, LaneOutcome, LaneSpec
from repro.simulator.cycle import CycleStats
from repro.simulator.faultsched import FaultSchedule

__all__ = ["sim_point", "sim_point_batch", "sim_point_group_key", "sim_grid_cells"]

# cell-level fault spec: [[u, v], down, up-or-None] windows (JSON scalars
# only — Cell parameters cannot carry FaultSchedule objects)
FaultsParam = Optional[Sequence[Sequence[Any]]]


def _fault_schedule(faults: FaultsParam) -> Optional[FaultSchedule]:
    if not faults:
        return None
    events = []
    for win in faults:
        (u, v), down, up = win
        events.append(((int(u), int(v)), int(down), None if up is None else int(up)))
    return FaultSchedule(events)


def _lane(plan, m: Union[int, Sequence[int]], link_capacity: int,
          buffer_size: Optional[int], faults: FaultsParam) -> LaneSpec:
    if isinstance(m, (list, tuple)):
        flits: Tuple[int, ...] = tuple(int(x) for x in m)
    else:
        flits = (int(m),) * plan.num_trees
    return LaneSpec(flits, int(link_capacity), buffer_size, _fault_schedule(faults))


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
        out.result()  # raises the serial RuntimeError
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
    cycle-guard ``RuntimeError`` propagates.
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
    """Cells that may share one batched call: same plan, batchable engine.

    Only ``engine="fast"`` and ``engine="batched"`` cells are grouped —
    the batched engine is differentially proven bit-identical to ``fast``
    per lane, so routing either through ``run_batch`` cannot change a
    byte of the cached result.  Other engines stay on the serial path.
    """
    engine = kwargs.get("engine", "fast")
    if engine not in ("fast", "batched"):
        return None
    return (kwargs["q"], kwargs.get("scheme", "low-depth"))


def sim_point_batch(cells_kwargs: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Evaluate compatible ``sim_point`` cells as one batched run.

    Per-lane results are bit-identical to :func:`sim_point` per cell; a
    lane whose serial run would raise the cycle-guard ``RuntimeError``
    raises it here too.
    """
    first = cells_kwargs[0]
    plan = get_plan(first["q"], first.get("scheme", "low-depth"))
    lanes = [
        _lane(
            plan,
            kw.get("m", 1),
            kw.get("link_capacity", 1),
            kw.get("buffer_size"),
            kw.get("faults"),
        )
        for kw in cells_kwargs
    ]
    sim = BatchedCycleSimulator(plan.topology, plan.trees, lanes=lanes)
    return [_outcome_dict(out) for out in sim.run_batch()]


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
