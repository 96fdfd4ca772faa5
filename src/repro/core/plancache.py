"""Process-wide plan cache: repeated plan queries are O(lookup).

Plan construction is deterministic — ``build_plan`` is a pure function of
``(q, scheme, link_bandwidth, starter, max_trees)`` — so the planning-
service workload (sweeps, Monte Carlo ensembles, recovery re-plans, CLI
invocations hitting the same cells) should pay construction once per
process, not per call. This module provides:

- :func:`plan_key` — the content address of a plan spec: sha256 over the
  canonical JSON of every argument (``link_bandwidth`` as an exact
  numerator/denominator pair) plus a version salt, so specs from a
  different release can never alias;
- :class:`PlanCache` — a bounded in-memory LRU map from key to
  :class:`~repro.core.plan.AllreducePlan`, with an opt-in on-disk layer
  (``$REPRO_PLAN_CACHE``) on the pickle store the sweep cache also uses
  (:mod:`repro.utils.store`: self-verifying payloads, atomic writes);
- :func:`get_plan` — the drop-in caching front end to ``build_plan``;
- :func:`cached_replan` — a memo for recovery re-planning keyed on the
  source plan's fingerprint, the failed links, and the policy (the
  degraded/repaired constructions are deterministic), so fault Monte
  Carlo ensembles replaying the same failure pay the re-plan once.

Cached plans are shared objects: ``AllreducePlan`` is frozen and the
library treats topologies and trees as immutable once built, which is what
makes handing the same instance to every caller sound.
"""

from __future__ import annotations

import hashlib
import json
import os
import weakref
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.core.bandwidth import Number, _as_fraction
from repro.core.plan import AllreducePlan, build_plan, check_plan_args
from repro.topology.graph import Edge
from repro.utils.store import MISS, PickleStore, content_key, env_root

__all__ = [
    "CACHE_ENV",
    "PlanCache",
    "cached_replan",
    "default_cache_dir",
    "get_plan",
    "global_plan_cache",
    "plan_key",
    "reset_global_plan_cache",
]

CACHE_ENV = "REPRO_PLAN_CACHE"
MEMORY_CAPACITY = 128


def default_cache_dir() -> Optional[Path]:
    """``$REPRO_PLAN_CACHE`` if set, else ``None`` (no disk layer).

    Unlike the sweep cache, plans rebuild in milliseconds, so persistence
    across processes is opt-in rather than default.
    """
    return env_root(CACHE_ENV)


def plan_key(
    q: int,
    scheme: str = "low-depth",
    link_bandwidth: Number = 1,
    starter: Optional[int] = None,
    max_trees: Optional[int] = None,
    *,
    salt: Optional[str] = None,
) -> str:
    """Content address of a plan spec (hex sha256).

    Covers every ``build_plan`` argument — the integer ones as exact ints
    (a NumPy integer addresses the plan its ``int`` does), and
    ``link_bandwidth`` reduced to an exact numerator/denominator pair so
    ``1``, ``1.0`` and ``Fraction(1)`` address the same plan — plus the
    package version as a salt, so entries written by another release are
    stale by construction.
    """
    if salt is None:
        from repro import __version__ as salt
    q, starter, max_trees = check_plan_args(q, starter, max_trees)
    b = _as_fraction(link_bandwidth)
    return content_key(
        {
            "q": q,
            "scheme": scheme,
            "link_bandwidth": [b.numerator, b.denominator],
            "starter": starter,
            "max_trees": max_trees,
            "salt": salt,
        }
    )


class PlanCache:
    """Bounded in-memory LRU plan cache with an optional disk layer.

    Parameters
    ----------
    root:
        Directory for the on-disk layer (a
        :class:`~repro.utils.store.PickleStore`). ``None`` selects
        ``$REPRO_PLAN_CACHE`` when set, else memory-only.
    capacity:
        Maximum in-memory entries; the least recently used is evicted.
    version:
        Identity salt mixed into every key (defaults to the package
        version).
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        capacity: int = MEMORY_CAPACITY,
        version: Optional[str] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if version is None:
            from repro import __version__ as version
        self.root = Path(root) if root is not None else default_cache_dir()
        self.store = PickleStore(self.root) if self.root is not None else None
        self.capacity = capacity
        self.version = version
        self.hits = 0
        self.misses = 0
        self._memory: Dict[str, AllreducePlan] = {}

    @property
    def corrupt(self) -> int:
        return self.store.corrupt if self.store is not None else 0

    # ------------------------------------------------------------- keying

    def key(
        self,
        q: int,
        scheme: str = "low-depth",
        link_bandwidth: Number = 1,
        starter: Optional[int] = None,
        max_trees: Optional[int] = None,
    ) -> str:
        return plan_key(
            q, scheme, link_bandwidth, starter, max_trees, salt=self.version
        )

    def path(self, key: str) -> Optional[Path]:
        return self.store.path(key) if self.store is not None else None

    # ------------------------------------------------------------ get/put

    def get(self, key: str) -> Tuple[bool, Optional[AllreducePlan]]:
        """Return ``(hit, plan)``; any unreadable disk entry is a miss."""
        plan = self._memory.get(key, MISS)
        if plan is not MISS:
            # LRU touch: re-insertion moves the key to the young end
            del self._memory[key]
            self._memory[key] = plan
            self.hits += 1
            return True, plan
        if self.store is None:
            plan = MISS
        else:
            plan = self.store.load(key, accept=_is_plan)
        if plan is MISS:
            self.misses += 1
            return False, None
        self._remember(key, plan)
        self.hits += 1
        return True, plan

    def put(self, key: str, plan: AllreducePlan) -> None:
        self._remember(key, plan)
        if self.store is not None:
            self.store.save(key, plan)

    def get_plan(
        self,
        q: int,
        scheme: str = "low-depth",
        link_bandwidth: Number = 1,
        starter: Optional[int] = None,
        max_trees: Optional[int] = None,
    ) -> AllreducePlan:
        """``build_plan`` through the cache (construct-on-miss)."""
        key = self.key(q, scheme, link_bandwidth, starter, max_trees)
        hit, plan = self.get(key)
        if hit:
            return plan  # type: ignore[return-value]
        plan = build_plan(
            q,
            scheme=scheme,
            link_bandwidth=link_bandwidth,
            starter=starter,
            max_trees=max_trees,
        )
        self.put(key, plan)
        return plan

    # ----------------------------------------------------------- internals

    def _remember(self, key: str, plan: AllreducePlan) -> None:
        if key in self._memory:
            del self._memory[key]
        elif len(self._memory) >= self.capacity:
            self._memory.pop(next(iter(self._memory)))
        self._memory[key] = plan

    # ----------------------------------------------------------- maintenance

    def clear(self) -> int:
        """Drop the memory layer and delete every disk entry; returns the
        number of disk entries removed."""
        self._memory.clear()
        return self.store.clear() if self.store is not None else 0

    def stats(self) -> dict:
        return {
            "root": str(self.root) if self.root is not None else None,
            "version": self.version,
            "memory_entries": len(self._memory),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        root = str(self.root) if self.root is not None else None
        return f"PlanCache(root={root!r}, entries={len(self._memory)})"


def _is_plan(value: object) -> bool:
    return isinstance(value, AllreducePlan)


_GLOBAL: Optional[PlanCache] = None


def global_plan_cache() -> PlanCache:
    """The process-wide :class:`PlanCache` (created on first use)."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = PlanCache()
    return _GLOBAL


def reset_global_plan_cache() -> None:
    """Forget the process-wide cache and the re-plan memo (tests and
    cold benchmarks)."""
    global _GLOBAL
    _GLOBAL = None
    _REPLANS.clear()


def get_plan(
    q: int,
    scheme: str = "low-depth",
    link_bandwidth: Number = 1,
    starter: Optional[int] = None,
    max_trees: Optional[int] = None,
) -> AllreducePlan:
    """``build_plan`` through the process-wide cache.

    The returned plan is shared across callers — treat it (its topology
    and trees) as immutable, which is how the library already treats
    plans.
    """
    return global_plan_cache().get_plan(
        q, scheme, link_bandwidth, starter, max_trees
    )


# --------------------------------------------------------------- re-planning

# plan object -> fingerprint; weak keys so cached fingerprints never keep
# dead plans (e.g. degraded intermediates) alive
_FINGERPRINTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
# (plan fingerprint, failed links, policy) -> (new plan, policy used)
_REPLANS: Dict[Tuple[str, Tuple[Edge, ...], str], Tuple[AllreducePlan, str]] = {}
REPLAN_CAPACITY = 512


def plan_fingerprint(plan: AllreducePlan) -> str:
    """Content fingerprint of a concrete plan (hex sha256).

    Unlike :func:`plan_key` this hashes the plan *contents* — tree edge
    sets, exact bandwidths, the topology's edge count — so it also covers
    plans that never came from ``build_plan`` (degraded/repaired plans,
    hand-built test plans). Memoized per object identity.
    """
    fp = _FINGERPRINTS.get(plan)
    if fp is not None:
        return fp
    h = hashlib.sha256()
    h.update(
        json.dumps(
            [
                plan.q,
                plan.scheme,
                plan.link_bandwidth.numerator,
                plan.link_bandwidth.denominator,
                plan.topology.n,
                plan.topology.num_edges,
            ]
        ).encode()
    )
    for t, b in zip(plan.trees, plan.bandwidths):
        h.update(f"{t.root}:{b.numerator}/{b.denominator}".encode())
        lo, hi = t.edge_endpoints()
        h.update(lo.tobytes())
        h.update(hi.tobytes())
    fp = h.hexdigest()
    _FINGERPRINTS[plan] = fp
    return fp


def cached_replan(plan: AllreducePlan, failed: Sequence[Edge], policy: str, replan):
    """Memoized recovery re-plan.

    ``replan(plan, failed, policy)`` must be deterministic (the repo's
    degraded/repaired constructions are); results are memoized on the
    source plan's :func:`plan_fingerprint`, the sorted failed-link set and
    the policy, so an ensemble replaying one failure scenario re-plans
    once. Exceptions are not memoized — an impossible recovery re-raises
    afresh each time.
    """
    key = (plan_fingerprint(plan), tuple(sorted(failed)), policy)
    hit = _REPLANS.get(key)
    if hit is not None:
        return hit
    result = replan(plan, failed, policy)
    if len(_REPLANS) >= REPLAN_CAPACITY:
        _REPLANS.pop(next(iter(_REPLANS)))
    _REPLANS[key] = result
    return result
