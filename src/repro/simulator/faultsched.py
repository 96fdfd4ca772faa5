"""Deterministic dynamic-fault schedules for the cycle engines.

The static machinery in :mod:`repro.core.faults` rewrites a *plan* before
a run starts (drop / regrow trees, Theorem 7.6 accounting). This module
is the dynamic half: a :class:`FaultSchedule` says *link L stops carrying
flits at cycle c* (optionally reviving at a later cycle), and every cycle
engine (``reference`` / ``fast`` / ``leap``) consumes the same schedule
with identical semantics:

- cycles are numbered as in ``CycleEngine.run``: the ``c``-th ``step()``
  call computes cycle ``c`` (the first step is cycle 1);
- a link that is *down* during cycle ``c`` grants zero flits in both
  directions for that cycle's arbitration; round-robin pointers do not
  advance (exactly as if every flow on the channel had zero budget);
- flits granted in cycle ``c - 1`` still land at the start of cycle ``c``
  even if the link dies at ``c`` — they already left the sender, so a
  failure severs the channel, not the receiver's input stage;
- a revived link resumes carrying flits in the revival cycle itself.

Schedules are immutable, hashable and validated up front (canonical
edges, positive cycles, per-edge windows that never overlap), so they can
key caches and cross process boundaries. The per-cycle query is a bisect
over precomputed constant segments — O(log #events), independent of how
long a link stays down.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.topology.graph import Edge, Graph, canonical_edge
from repro.utils.errors import whole

__all__ = ["FaultEvent", "FaultSchedule"]

_NO_UP = 1 << 62  # sort key for permanent failures


@dataclass(frozen=True)
class FaultEvent:
    """One link-failure window: ``edge`` is down during cycles
    ``[down, up)`` (``up=None`` means the failure is permanent)."""

    edge: Edge
    down: int
    up: Optional[int] = None

    def covers(self, cycle: int) -> bool:
        """Is the link down during ``cycle``?"""
        return self.down <= cycle and (self.up is None or cycle < self.up)


_EventLike = Union[FaultEvent, Tuple]


def _event(i: int, edge, down, up) -> FaultEvent:
    """Window ``i`` over a canonical edge, its endpoints and cycles exact
    ints: a non-integer raises a ``TypeError`` naming the window and the
    field, never truncates."""
    w = f"fault window {i}"
    try:
        u, v = edge
    except (TypeError, ValueError):
        raise ValueError(f"{w} edge {edge!r} must be a (u, v) pair") from None
    end = f"{w} edge endpoint"
    return FaultEvent(
        canonical_edge(whole(f"{end} u", u), whole(f"{end} v", v)),
        whole(f"{w} down cycle", down),
        None if up is None else whole(f"{w} up cycle", up),
    )


class FaultSchedule:
    """An immutable, validated set of link-failure windows.

    Build one from ``FaultEvent`` objects or plain tuples —
    ``(edge, down)`` for a permanent failure, ``(edge, down, up)`` for a
    transient one::

        faults = FaultSchedule([((3, 7), 40)])            # dies at cycle 40
        faults = FaultSchedule([((3, 7), 40, 90)])        # revives at 90
        faults = FaultSchedule.single((3, 7), 40, up=90)  # same

    Duplicate or overlapping windows on the same edge are rejected (the
    same strictness :func:`repro.core.faults.remove_links` applies to
    duplicate failed-link entries).
    """

    __slots__ = ("events", "_cycles", "_ups", "_seg_starts", "_seg_edges")

    def __init__(self, events: Iterable[_EventLike]):
        norm: List[FaultEvent] = []
        for i, ev in enumerate(events):
            if isinstance(ev, FaultEvent):
                edge, down, up = ev.edge, ev.down, ev.up
            elif len(ev) == 2:
                edge, down = ev
                up = None
            elif len(ev) == 3:
                edge, down, up = ev
            else:
                raise ValueError(f"fault event {ev!r} must be (edge, down[, up])")
            ev = _event(i, edge, down, up)
            u, v = ev.edge
            if u == v:
                raise ValueError(f"fault edge {ev.edge} is a self-loop, not a link")
            if ev.down < 1:
                raise ValueError(f"fault cycle must be >= 1, got down={ev.down}")
            if ev.up is not None and ev.up <= ev.down:
                raise ValueError(
                    f"revival cycle {ev.up} must be after failure cycle {ev.down}"
                )
            norm.append(ev)
        norm.sort(key=lambda e: (e.edge, e.down, e.up if e.up is not None else _NO_UP))
        for a, b in zip(norm, norm[1:]):
            if a.edge != b.edge:
                continue
            if (a.down, a.up) == (b.down, b.up):
                raise ValueError(f"duplicate fault window for link {a.edge}")
            if a.up is None or b.down < a.up:
                raise ValueError(
                    f"overlapping fault windows for link {a.edge}: "
                    f"[{a.down}, {a.up}) and [{b.down}, {b.up})"
                )
        # canonical event order: by failure cycle, then edge
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(
                norm,
                key=lambda e: (
                    e.down,
                    e.edge,
                    e.up if e.up is not None else _NO_UP,
                ),
            )
        )
        cycles = {e.down for e in self.events}
        cycles.update(e.up for e in self.events if e.up is not None)
        self._cycles: Tuple[int, ...] = tuple(sorted(cycles))
        self._ups: Tuple[int, ...] = tuple(
            sorted({e.up for e in self.events if e.up is not None})
        )
        # constant segments: the set of down edges only changes at event
        # cycles, so precompute (start_cycle, frozenset) and bisect
        self._seg_starts: List[int] = [0]
        self._seg_edges: List[FrozenSet[Edge]] = [frozenset()]
        for c in self._cycles:
            self._seg_starts.append(c)
            self._seg_edges.append(
                frozenset(e.edge for e in self.events if e.covers(c))
            )

    # ------------------------------------------------------------- builders

    @classmethod
    def single(cls, edge: Edge, down: int, up: Optional[int] = None) -> "FaultSchedule":
        """Schedule with one failure window."""
        return cls([(edge, down, up)])

    # -------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultSchedule) and self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(
            f"{e.edge}@{e.down}" + ("" if e.up is None else f"..{e.up}")
            for e in self.events
        )
        return f"FaultSchedule([{body}])"

    def edges(self) -> FrozenSet[Edge]:
        """Every link the schedule ever touches."""
        return frozenset(e.edge for e in self.events)

    @property
    def horizon(self) -> int:
        """The last cycle at which the link state changes."""
        return self._cycles[-1] if self._cycles else 0

    def event_cycles(self) -> Tuple[int, ...]:
        """Sorted cycles at which the set of down links changes — the leap
        engine's leap barriers."""
        return self._cycles

    def next_event_after(self, cycle: int) -> Optional[int]:
        """Smallest event cycle strictly greater than ``cycle``."""
        i = bisect_right(self._cycles, cycle)
        return self._cycles[i] if i < len(self._cycles) else None

    def next_revival_after(self, cycle: int) -> Optional[int]:
        """Smallest *revival* cycle strictly greater than ``cycle``.

        This is the stall detectors' exemption: from a zero-progress
        fixpoint only a revival can restore progress (a future *down*
        event only removes budget), so an engine waits past a stalled
        cycle iff a revival is still scheduled.
        """
        i = bisect_right(self._ups, cycle)
        return self._ups[i] if i < len(self._ups) else None

    def down_edges_at(self, cycle: int) -> FrozenSet[Edge]:
        """Links down during cycle ``cycle`` (canonical undirected edges)."""
        return self._seg_edges[bisect_right(self._seg_starts, cycle) - 1]

    def changes_at(self, cycle: int) -> bool:
        """Does the set of down links change at ``cycle``?"""
        i = bisect_right(self._cycles, cycle)
        return i > 0 and self._cycles[i - 1] == cycle

    # ---------------------------------------------------------- derivations

    def validate_against(self, g: Graph) -> None:
        """Raise ``ValueError`` unless every scheduled edge is a physical
        link of ``g`` (same check :func:`repro.core.faults.remove_links`
        performs)."""
        bad = sorted(e for e in self.edges() if not g.has_edge(*e))
        if bad:
            raise ValueError(f"fault schedule names non-links of this topology: {bad}")

    def after(self, cycle: int, drop_edges: Iterable[Edge] = ()) -> "FaultSchedule":
        """The remaining schedule, re-based so ``cycle`` becomes cycle 0.

        Used by the recovery runtime: events entirely in the past are
        discarded, surviving windows shift left by ``cycle``, and edges in
        ``drop_edges`` (links the recovered plan no longer contains) are
        removed entirely — a straddling window of a dropped edge cannot be
        expressed on the surviving topology.
        """
        drop = {canonical_edge(*e) for e in drop_edges}
        kept = []
        for e in self.events:
            if e.edge in drop:
                continue
            if e.up is not None and e.up <= cycle + 1:
                continue  # window fully elapsed
            down = max(1, e.down - cycle)
            up = None if e.up is None else e.up - cycle
            if e.down <= cycle and e.up is None:
                # permanent failure already active: still active after
                kept.append(FaultEvent(e.edge, 1, None))
            else:
                kept.append(FaultEvent(e.edge, down, up))
        return FaultSchedule(kept)
