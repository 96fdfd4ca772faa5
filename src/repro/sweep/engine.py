"""Parallel, cache-backed sweep execution.

:class:`SweepRunner` evaluates the cells of a :class:`~repro.sweep.spec.
SweepSpec` with a ``concurrent.futures`` process pool and an optional
:class:`~repro.sweep.cache.SweepCache`:

1. every cell is first probed against the cache in the parent process
   (so a warm run never pays pool startup for work it will not do);
2. ``sim_point`` misses are grouped by
   :func:`~repro.analysis.simgrid.sim_point_group_key` (:func:`plan_groups`)
   and each group of two or more is evaluated inline as one
   :func:`~repro.analysis.simgrid.sim_point_batch` call — the batch *is*
   the parallelism — with results guaranteed bit-identical to the serial
   path, so cache entries are byte-identical either way;
3. the remaining misses fan out over the pool — or run inline when
   ``workers <= 1`` or only one cell missed;
4. results are merged back **by cell index**, making parallel and
   batched output bit-identical to a serial run regardless of completion
   order, and written to the cache by the parent.

Summaries (:class:`SweepSummary`) expose hit/miss/corrupt counters, wall
time and summed per-cell compute time, both per ``run()`` call
(``runner.last_summary``) and cumulatively (``runner.total``).

Worker count resolution: an explicit ``workers=`` wins, else
``$REPRO_SWEEP_WORKERS``, else serial. ``workers=0``/``1`` are synonyms
for in-process execution.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.sweep.cache import SweepCache
from repro.sweep.spec import Cell, SweepSpec, cell
from repro.sweep.tasks import run_cell
from repro.utils.errors import whole

__all__ = [
    "SweepRunner",
    "plan_groups",
    "SweepSummary",
    "run_sweep",
    "default_runner",
    "resolve_workers",
    "WORKERS_ENV",
]

WORKERS_ENV = "REPRO_SWEEP_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit value, else ``$REPRO_SWEEP_WORKERS``, else 0 (serial).

    A non-integer argument raises ``TypeError`` and a non-integer setting
    a ``ValueError`` naming the variable; neither is truncated."""
    if workers is not None:
        return max(0, whole("workers", workers))
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            raise ValueError(
                f"${WORKERS_ENV} must be an integer; got {env!r}"
            ) from None
    return 0


@dataclass(frozen=True)
class SweepSummary:
    """Counters for one (or an accumulation of) ``run()`` calls."""

    cells: int = 0
    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    wall_s: float = 0.0
    compute_s: float = 0.0
    workers: int = 0
    cache_dir: Optional[str] = None
    batched: int = 0  # cells computed via grouped batched-engine calls

    def __add__(self, other: "SweepSummary") -> "SweepSummary":
        return SweepSummary(
            cells=self.cells + other.cells,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            corrupt=self.corrupt + other.corrupt,
            wall_s=self.wall_s + other.wall_s,
            compute_s=self.compute_s + other.compute_s,
            workers=max(self.workers, other.workers),
            cache_dir=self.cache_dir or other.cache_dir,
            batched=self.batched + other.batched,
        )

    def render(self) -> str:
        cache = self.cache_dir if self.cache_dir else "disabled"
        line = (
            f"sweep: {self.cells} cells, {self.hits} cache hits, "
            f"{self.misses} computed"
        )
        if self.batched:
            line += f" ({self.batched} via batched lanes)"
        if self.corrupt:
            line += f" ({self.corrupt} corrupt entries recomputed)"
        line += (
            f"; wall {self.wall_s:.3f}s, compute {self.compute_s:.3f}s, "
            f"workers={self.workers}, cache={cache}"
        )
        return line


def plan_groups(
    missing: Sequence[Tuple[int, Cell]],
) -> Tuple[List[List[Tuple[int, Cell]]], List[Tuple[int, Cell]]]:
    """Split cache misses into batched ``sim_point`` groups and serial
    leftovers.

    Cells with equal :func:`~repro.analysis.simgrid.sim_point_group_key`
    share one group; a ``None`` key, another task, or a group of one (a
    batch of one is just serial with overhead) stays serial. Input order
    is preserved within every group and within the leftover list, and
    results are merged back by cell index either way, so routing never
    reorders a sweep's output.
    """
    groups: Dict[Hashable, List[Tuple[int, Cell]]] = {}
    serial: List[Tuple[int, Cell]] = []
    for i, c in missing:
        key = None
        if c.task == "sim_point":
            # imported here: the simulator stays out of `import repro.sweep`
            from repro.analysis.simgrid import sim_point_group_key

            key = sim_point_group_key(c.kwargs)
        if key is None:
            serial.append((i, c))
        else:
            groups.setdefault(key, []).append((i, c))
    batched: List[List[Tuple[int, Cell]]] = []
    for members in groups.values():
        if len(members) < 2:
            serial.extend(members)
        else:
            batched.append(members)
    serial.sort(key=lambda pair: pair[0])
    return batched, serial


def _timed_cell(c: Cell) -> Tuple[Any, float]:
    """Pool worker: run one cell, returning (value, compute seconds)."""
    t0 = time.perf_counter()
    value = run_cell(c)
    return value, time.perf_counter() - t0


class SweepRunner:
    """Executes sweeps; holds the worker-count and cache configuration.

    Parameters
    ----------
    workers:
        Process-pool size for cache misses; ``0``/``1`` runs inline.
        ``None`` consults ``$REPRO_SWEEP_WORKERS``.
    cache:
        ``None`` disables caching; a path-like creates a
        :class:`SweepCache` rooted there; a :class:`SweepCache` is used
        as-is.
    batching:
        Route compatible ``sim_point`` misses through grouped batched-lane
        calls (:func:`plan_groups`). On by default — the routes are
        bit-identical, so this is purely a speed knob; pass ``False`` to
        force every miss down the serial/pool path.

    After every ``run()`` that computed at least one cell the runner drops
    the process-wide topology memos
    (:func:`repro.topology.clear_polarfly_cache`), so a long-lived
    runner's memory stays bounded by the largest single batch, not by
    every radix ever visited.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Union[None, str, os.PathLike, SweepCache] = None,
        batching: bool = True,
    ):
        self.workers = resolve_workers(workers)
        if cache is None or isinstance(cache, SweepCache):
            self.cache = cache
        else:
            self.cache = SweepCache(cache)
        self.batching = batching
        self.last_summary = SweepSummary()
        self.total = SweepSummary()

    # ------------------------------------------------------------- running

    def run(self, spec: Union[SweepSpec, Sequence[Cell]]) -> List[Any]:
        """Evaluate every cell, returning results in cell order."""
        cells = list(spec)
        t0 = time.perf_counter()
        results: List[Any] = [None] * len(cells)
        corrupt0 = self.cache.corrupt if self.cache else 0

        missing: List[Tuple[int, Cell]] = []
        hits = 0
        for i, c in enumerate(cells):
            if self.cache is not None:
                hit, value = self.cache.get(c)
                if hit:
                    results[i] = value
                    hits += 1
                    continue
            missing.append((i, c))

        compute_s = 0.0
        n_missed = len(missing)
        batched_cells = 0
        if missing and self.batching:
            groups, missing = plan_groups(missing)
            for members in groups:
                from repro.analysis.simgrid import sim_point_batch

                t1 = time.perf_counter()
                values = sim_point_batch([c.kwargs for _, c in members])
                compute_s += time.perf_counter() - t1
                for (i, c), value in zip(members, values):
                    results[i] = value
                    if self.cache is not None:
                        self.cache.put(c, value)
                batched_cells += len(members)
        if missing:
            if self.workers > 1 and len(missing) > 1:
                pool_size = min(self.workers, len(missing))
                chunk = max(1, len(missing) // (pool_size * 4))
                with ProcessPoolExecutor(max_workers=pool_size) as pool:
                    outputs = pool.map(
                        _timed_cell, [c for _, c in missing], chunksize=chunk
                    )
                    for (i, c), (value, dt) in zip(missing, outputs):
                        results[i] = value
                        compute_s += dt
                        if self.cache is not None:
                            self.cache.put(c, value)
            else:
                for i, c in missing:
                    value, dt = _timed_cell(c)
                    results[i] = value
                    compute_s += dt
                    if self.cache is not None:
                        self.cache.put(c, value)
        if n_missed:
            # Computing cells may have populated the process-wide
            # topology memos (directly in the serial path, or in the
            # parent while probing); drop them so batches don't pin one
            # graph per radix ever visited. Hit-only batches build
            # nothing and skip the clear.
            from repro.topology import clear_polarfly_cache

            clear_polarfly_cache()

        self.last_summary = SweepSummary(
            cells=len(cells),
            hits=hits,
            misses=n_missed,
            corrupt=(self.cache.corrupt - corrupt0) if self.cache else 0,
            wall_s=time.perf_counter() - t0,
            compute_s=compute_s,
            workers=self.workers,
            cache_dir=str(self.cache.root) if self.cache else None,
            batched=batched_cells,
        )
        self.total = self.total + self.last_summary
        return results

    def run_one(self, task: str, **params: Any) -> Any:
        """Convenience: evaluate a single cell."""
        return self.run([cell(task, **params)])[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SweepRunner(workers={self.workers}, cache={self.cache!r})"


_DEFAULT = None


def default_runner() -> SweepRunner:
    """The shared serial, cache-less runner consumers fall back to.

    Keeps the library's default behavior pure: no processes spawned, no
    files written, results computed exactly as before the sweep engine
    existed. Opt into parallelism/caching by passing an explicit
    :class:`SweepRunner` (``sweep=``) to the analysis entry points.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SweepRunner(workers=0, cache=None)
    return _DEFAULT


def run_sweep(
    spec: Union[SweepSpec, Sequence[Cell]],
    workers: Optional[int] = None,
    cache: Union[None, str, os.PathLike, SweepCache] = None,
) -> Tuple[List[Any], SweepSummary]:
    """One-shot helper: run ``spec`` and return (results, summary)."""
    runner = SweepRunner(workers=workers, cache=cache)
    results = runner.run(spec)
    return results, runner.last_summary
