"""Tenant job model: who wants an allreduce, when, and how big.

A :class:`TenantJob` is one collective: a tenant id, the global cycle it
arrives at, a message size ``m`` (elements), and how many of the base
plan's spanning trees it wants to run over. :func:`poisson_jobs` samples
a job mix from the classic open-arrival model — exponential
inter-arrival gaps, geometric message sizes — from an explicit
``numpy.random.Generator``, so a fixed seed reproduces the exact mix
(the fixed-seed determinism invariant in ``tests/test_tenancy.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.utils.errors import whole

__all__ = ["TenantJob", "poisson_jobs"]


@dataclass(frozen=True, order=True)
class TenantJob:
    """One tenant's allreduce request.

    Attributes
    ----------
    tenant:
        Tenant id — unique within a job mix; also the strict-priority
        rank (lower id wins).
    arrival:
        Global fabric cycle the job becomes eligible; the job takes its
        first step in global cycle ``arrival + 1`` so its local clock is
        ``global - arrival``.
    m:
        Message size in elements (flits before partitioning).
    tree_count:
        How many of the base plan's trees this job runs over.
    """

    tenant: int
    arrival: int
    m: int
    tree_count: int

    def __post_init__(self) -> None:
        for name in ("tenant", "arrival", "m", "tree_count"):
            object.__setattr__(self, name, whole(name, getattr(self, name)))
        if self.tenant < 0:
            raise ValueError("tenant id must be >= 0")
        if self.arrival < 0:
            raise ValueError("arrival cycle must be >= 0")
        if self.m < 1:
            raise ValueError("message size must be >= 1 element")
        if self.tree_count < 1:
            raise ValueError("tree_count must be >= 1")


def poisson_jobs(
    k: int,
    *,
    rng: np.random.Generator,
    mean_interarrival: float = 16.0,
    mean_m: float = 32.0,
    tree_count_choices: Sequence[int] = (1, 2, 3),
) -> Tuple[TenantJob, ...]:
    """Sample ``k`` jobs from a Poisson arrival process.

    Inter-arrival gaps are exponential with mean ``mean_interarrival``
    (floored to whole cycles, first arrival at the first gap), message
    sizes geometric with mean ``mean_m``, and tree counts uniform over
    ``tree_count_choices``. All randomness comes from the caller's
    ``rng`` — the only source — so a ``numpy.random.default_rng(seed)``
    reproduces the mix exactly. Tenant ids are assigned 0..k-1 in
    arrival order.
    """
    if k < 1:
        raise ValueError("need at least one job")
    if mean_interarrival <= 0 or mean_m < 1:
        raise ValueError("mean_interarrival must be > 0 and mean_m >= 1")
    choices = tuple(int(c) for c in tree_count_choices)
    if not choices or any(c < 1 for c in choices):
        raise ValueError("tree_count_choices must be non-empty positive ints")
    gaps = rng.exponential(mean_interarrival, size=k)
    arrivals = np.floor(np.cumsum(gaps)).astype(np.int64)
    sizes = rng.geometric(min(1.0, 1.0 / mean_m), size=k)
    counts = rng.choice(np.asarray(choices, dtype=np.int64), size=k)
    return tuple(
        TenantJob(
            tenant=i,
            arrival=int(arrivals[i]),
            m=int(sizes[i]),
            tree_count=int(counts[i]),
        )
        for i in range(k)
    )
