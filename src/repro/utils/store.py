"""Content-addressed pickle store: the disk layer under the sweep result
cache (:mod:`repro.sweep.cache`) and the plan cache
(:mod:`repro.core.plancache`).

Layout: ``<root>/<key[:2]>/<key>.pkl`` where ``key`` is
:func:`content_key` of a JSON document naming the entry (a sweep cell or
a plan spec, plus a version salt). The invariants both caches build on:

- **content-addressed**: the key is the sha256 of the document's
  canonical JSON, so a different spec — or the same spec under a
  different release — can never alias an entry;
- **self-verifying**: each entry is a pickled ``{"key": ..., "value":
  ...}`` dict (callers may add fields between the two) that embeds its
  own key; a truncated, garbage or foreign file — or a value the caller's
  ``accept`` check rejects — is a miss and counts in :attr:`corrupt`;
- **atomic writes**: an entry is written to a temporary file in its own
  directory and renamed into place, so concurrent writers and readers
  never observe a half-written entry.

This module imports nothing from the rest of the package, so any layer
can sit on it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Optional, Tuple

__all__ = ["MISS", "PickleStore", "canonical_json", "content_key", "env_root"]

MISS: Any = object()  # what :meth:`PickleStore.load` returns for a miss


# canonical JSON — sorted keys, compact separators — so equal documents
# give equal text; one encoder instance, where json.dumps with these
# arguments would build a new one per call
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def content_key(doc: Any) -> str:
    """Content address of a JSON document: hex sha256 of its canonical
    JSON."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def env_root(env: str) -> Optional[Path]:
    """``$env`` as a path when set and non-empty, else ``None``."""
    value = os.environ.get(env)
    return Path(value) if value else None


class PickleStore:
    """Pickle files under ``root``, one per content key.

    The root is created lazily on the first :meth:`save`. :attr:`corrupt`
    counts the entries :meth:`load` found unreadable or foreign.
    """

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self.corrupt = 0

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def load(self, key: str, accept: Optional[Callable[[Any], bool]] = None) -> Any:
        """The value stored under ``key``, or :data:`MISS`.

        An absent file is a plain miss. A file that does not unpickle, is
        not a dict carrying ``key`` and a ``"value"``, or whose value
        fails ``accept`` is a miss that also counts in :attr:`corrupt`
        (the caller recomputes and overwrites it).
        """
        try:
            with open(self.path(key), "rb") as f:
                payload = pickle.load(f)
        except FileNotFoundError:
            return MISS
        except Exception:
            # truncated, garbage, or wrong pickle protocol
            self.corrupt += 1
            return MISS
        if (
            not isinstance(payload, dict)
            or payload.get("key") != key
            or "value" not in payload
            or (accept is not None and not accept(payload["value"]))
        ):
            # a foreign or stale-format file squatting on our address
            self.corrupt += 1
            return MISS
        return payload["value"]

    def save(self, key: str, value: Any, **fields: Any) -> None:
        """Atomically write ``{"key": key, **fields, "value": value}``."""
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"key": key, **fields, "value": value}
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for sub in sorted(self.root.iterdir()):
            if not sub.is_dir():
                continue
            for entry in sorted(sub.glob("*.pkl")):
                entry.unlink()
                removed += 1
            try:
                sub.rmdir()
            except OSError:
                pass
        return removed

    def tally(self) -> Tuple[int, int]:
        """``(entries, bytes)`` currently on disk."""
        entries = 0
        size = 0
        if self.root.exists():
            for entry in self.root.glob("*/*.pkl"):
                entries += 1
                size += entry.stat().st_size
        return entries, size
