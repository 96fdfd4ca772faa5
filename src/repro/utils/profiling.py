"""Lightweight measurement utilities ("no optimization without measuring").

Per the scientific-Python performance guidance the repo follows, the hot
construction paths were designed against measurements; this timer makes
the measurements reproducible by any user:

- :class:`StageTimer` — accumulate named wall-clock stages; pass one as
  ``build_plan(..., timer=)`` to time the "graph build" / "tree
  construction" / "bandwidth fill" stages of building a plan.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

__all__ = ["StageTimer"]


class StageTimer:
    """Accumulates named stage durations; usable as a context manager.

    Durations are recorded internally at ``time.perf_counter_ns``
    precision (``stages_ns``, integer nanoseconds — the form the
    telemetry ``perf`` record serializes, so construction cost composes
    exactly with simulation cost); ``stages``/``total``/``as_dict`` keep
    the original float-seconds view.
    """

    def __init__(self) -> None:
        self.stages_ns: List[Tuple[str, int]] = []

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.stages_ns.append((name, time.perf_counter_ns() - t0))

    @property
    def stages(self) -> List[Tuple[str, float]]:
        """Stage durations in seconds (compatibility view)."""
        return [(name, ns / 1e9) for name, ns in self.stages_ns]

    def total(self) -> float:
        return self.total_ns() / 1e9

    def total_ns(self) -> int:
        return sum(ns for _, ns in self.stages_ns)

    def as_dict(self) -> Dict[str, float]:
        return {name: ns / 1e9 for name, ns in self.as_dict_ns().items()}

    def as_dict_ns(self) -> Dict[str, int]:
        """Per-stage totals in integer nanoseconds (repeated stage names
        accumulate) — what ``Collector.set_construction`` stores."""
        out: Dict[str, int] = {}
        for name, ns in self.stages_ns:
            out[name] = out.get(name, 0) + ns
        return out
