"""Content-addressed on-disk cache for sweep cell results.

Cell keying over the shared pickle store (:mod:`repro.utils.store`, which
owns the layout, the atomic writes and the self-verifying load): an
entry's key is ``cell_key(cell, salt=version)``, covering the task name,
every parameter and the package version, and its payload is ``{"key",
"cell", "value"}`` with any picklable value.

The default root is ``$REPRO_SWEEP_CACHE`` when set, else
``~/.cache/repro-sweep``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Optional, Tuple

from repro.sweep.spec import Cell, cell_key
from repro.utils.store import MISS, PickleStore, env_root

__all__ = ["SweepCache", "default_cache_dir", "CACHE_ENV"]

CACHE_ENV = "REPRO_SWEEP_CACHE"


def default_cache_dir() -> Path:
    """``$REPRO_SWEEP_CACHE`` if set, else ``~/.cache/repro-sweep``."""
    home = Path(os.path.expanduser("~"))
    return env_root(CACHE_ENV) or home / ".cache" / "repro-sweep"


class SweepCache:
    """Pickle-file cache keyed by the content address of each cell.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first write). ``None`` selects
        :func:`default_cache_dir`.
    version:
        Identity salt mixed into every key; defaults to the installed
        package version so entries from other releases are stale by
        construction (they simply never hit).
    """

    def __init__(
        self, root: Optional[os.PathLike] = None, version: Optional[str] = None
    ):
        if version is None:
            from repro import __version__ as version
        self.store = PickleStore(root if root is not None else default_cache_dir())
        self.root = self.store.root
        self.version = version
        self.hits = 0
        self.misses = 0

    @property
    def corrupt(self) -> int:
        return self.store.corrupt

    def key(self, c: Cell) -> str:
        return cell_key(c, salt=self.version)

    def path(self, c: Cell) -> Path:
        return self.store.path(self.key(c))

    def get(self, c: Cell) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; any unreadable entry is a miss."""
        value = self.store.load(self.key(c))
        if value is MISS:
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, c: Cell, value: Any) -> None:
        self.store.save(self.key(c), value, cell=c.canonical())

    def clear(self) -> int:
        """Delete every entry under the root; returns the number removed."""
        return self.store.clear()

    def stats(self) -> dict:
        """Counters plus on-disk entry count / byte size."""
        entries, size = self.store.tally()
        return {
            "root": str(self.root),
            "version": self.version,
            "entries": entries,
            "bytes": size,
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SweepCache(root={str(self.root)!r}, version={self.version!r})"
