"""Parallel, cache-backed experiment sweeps.

Every paper artifact is a sweep over independent cells — per-radix
figure rows, per-scheme plan metrics, per-size cost-model points. This
package turns those sweeps into a first-class engine:

- :mod:`repro.sweep.spec` — declarative :class:`SweepSpec` grids of
  :class:`Cell`\\ s with stable content addresses;
- :mod:`repro.sweep.cache` — a content-addressed on-disk result cache
  (version-salted cell keys over the shared pickle store
  :mod:`repro.utils.store`: corruption-tolerant, atomic writes);
- :mod:`repro.sweep.engine` — a process-pool executor with a
  deterministic ordered merge (parallel output is bit-identical to
  serial) and hit/miss/timing summaries; compatible ``sim_point``
  misses run as single batched-lane calls (:func:`plan_groups`),
  bit-identical to the serial path;
- :mod:`repro.sweep.tasks` — the registry mapping cell task names to
  importable functions;
- :mod:`repro.sweep.artifacts` — the ``results/`` regeneration pipeline
  on top of the engine, including the CI drift check.

Environment: ``REPRO_SWEEP_WORKERS`` (default pool size) and
``REPRO_SWEEP_CACHE`` (default cache directory).
"""

from repro.sweep.artifacts import (
    ARTIFACT_NAMES,
    check_artifacts,
    generate_artifacts,
    write_artifacts,
)
from repro.sweep.cache import CACHE_ENV, SweepCache, default_cache_dir
from repro.sweep.engine import (
    WORKERS_ENV,
    SweepRunner,
    SweepSummary,
    default_runner,
    plan_groups,
    resolve_workers,
    run_sweep,
)
from repro.sweep.spec import Cell, SweepSpec, cell, cell_key
from repro.sweep.tasks import BUILTIN_TASKS, register, run_cell

__all__ = [
    "Cell",
    "SweepSpec",
    "cell",
    "cell_key",
    "SweepCache",
    "default_cache_dir",
    "CACHE_ENV",
    "SweepRunner",
    "SweepSummary",
    "run_sweep",
    "default_runner",
    "resolve_workers",
    "WORKERS_ENV",
    "BUILTIN_TASKS",
    "register",
    "run_cell",
    "plan_groups",
    "ARTIFACT_NAMES",
    "generate_artifacts",
    "write_artifacts",
    "check_artifacts",
]
