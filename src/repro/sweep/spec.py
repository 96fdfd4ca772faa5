"""Declarative sweep specifications — the unit of work is a :class:`Cell`.

A cell names a registered task (see :mod:`repro.sweep.tasks`) plus its
keyword parameters, e.g. ``cell("figure5_row", q=11,
constructive_threshold=19)``. Cells are frozen, hashable and
JSON-canonicalizable, which gives every cell a stable content address
(:func:`cell_key`) that the on-disk cache and the process-pool engine
share. A :class:`SweepSpec` is an ordered tuple of cells; order is the
contract — engine results are merged back in spec order, so a parallel run
is bit-identical to the serial one.

Parameter values must be JSON-representable scalars (``int``, ``str``,
``float``, ``bool``, ``None``) or (nested) lists/tuples of them; tuples
are canonicalized to lists for hashing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Tuple

from repro.utils.store import content_key

__all__ = ["Cell", "cell", "cell_key", "SweepSpec"]

_SCALARS = (int, float, str, bool, type(None))


def _canonical(value: Any) -> Any:
    """Canonicalize a parameter value for hashing (tuples -> lists)."""
    if isinstance(value, bool) or isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    raise TypeError(
        f"cell parameters must be JSON-representable scalars or sequences, "
        f"got {type(value).__name__}: {value!r}"
    )


def _hashable(value: Any) -> Any:
    """Make a canonical value hashable (lists -> tuples)."""
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    return value


@dataclass(frozen=True)
class Cell:
    """One point of a sweep grid: a task name plus sorted keyword params."""

    task: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def kwargs(self) -> Dict[str, Any]:
        """The parameters as keyword arguments for the task function."""
        return {k: v for k, v in self.params}

    def canonical(self) -> Dict[str, Any]:
        """JSON-stable representation (before versioning/salting)."""
        return {
            "task": self.task,
            "params": {k: _canonical(v) for k, v in self.params},
        }

    def label(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.task}({inner})"


def cell(task: str, **params: Any) -> Cell:
    """Build a :class:`Cell` with deterministically sorted parameters."""
    items = tuple(
        (k, _hashable(_canonical(v))) for k, v in sorted(params.items())
    )
    return Cell(task=task, params=items)


def cell_key(c: Cell, salt: str = "") -> str:
    """Stable content address of a cell (hex sha256).

    ``salt`` is extra identity mixed into the key — the cache passes the
    package version so entries written by other releases read as misses
    (stale-by-construction rather than stale-by-accident).
    """
    doc = c.canonical()
    if salt:
        doc["salt"] = salt
    return content_key(doc)


@dataclass(frozen=True)
class SweepSpec:
    """An ordered collection of cells, optionally named for reporting."""

    cells: Tuple[Cell, ...]
    name: str = "sweep"

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def __add__(self, other: "SweepSpec") -> "SweepSpec":
        return SweepSpec(cells=self.cells + tuple(other.cells), name=self.name)

    @classmethod
    def grid(cls, task: str, name: str = None, **axes: Iterable[Any]) -> "SweepSpec":
        """Cartesian product over the given axes, in axis-then-value order.

        ``SweepSpec.grid("plan_metrics", q=[3, 5], scheme=["low-depth",
        "edge-disjoint"])`` yields the four cells in row-major order
        (q=3/low-depth, q=3/edge-disjoint, q=5/low-depth, ...), which is the
        deterministic order results come back in.
        """
        keys = list(axes)
        values = [list(axes[k]) for k in keys]
        cells = tuple(
            cell(task, **dict(zip(keys, combo)))
            for combo in itertools.product(*values)
        )
        return cls(cells=cells, name=name or task)
