"""Singer difference sets and the Singer graph S_q (Section 6.2).

Construction (paper steps 1–5, after Stinson):

1. Build ``F_{q^3}`` as ``F_q[x]/(f)`` for a degree-3 *primitive* polynomial
   ``f`` over ``F_q`` with root ``zeta``. For reproducibility the paper (and
   we) use the lexicographically smallest such ``f``.
2. Walk the powers ``zeta^l``.
3. Reduce each to ``i*zeta^2 + j*zeta + k`` with ``i, j, k in F_q``.
4. The difference set ``D`` collects the exponents of the powers lying on
   the projective line spanned by ``{1, zeta}`` — the powers with ``i = 0``.
5. Reduce exponents mod ``N = q^2 + q + 1``.

Because ``zeta^N`` generates ``F_q^*``, scaling by field constants shifts
exponents by multiples of ``N`` and preserves ``i = 0``; hence it suffices
to walk ``l in [0, N)`` — each residue class is visited exactly once. That
makes the construction O(N) with O(1) field operations per step instead of
the naive O(q^3).

The Singer graph ``S_q`` (Definition 6.3) has vertices ``Z_N`` and an edge
``(i, j)`` iff the *edge sum* ``(i + j) mod N`` is in ``D``. Reflection
points (``i + i in D``, Definition 6.5) carry self-loops and correspond to
the quadrics of ER_q (Corollary 6.8).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.gf import get_field, smallest_primitive
from repro.topology.graph import Graph, canonical_edge
from repro.utils.errors import whole
from repro.utils.numbertheory import mod_inverse, prime_power_decomposition

__all__ = [
    "singer_difference_set",
    "is_perfect_difference_set",
    "difference_table",
    "reflection_points",
    "edge_sum",
    "SingerGraph",
    "singer_graph",
]


@lru_cache(maxsize=None)
def singer_difference_set(q: int) -> Tuple[int, ...]:
    """The Singer difference set of order ``q + 1`` over ``Z_N``, sorted.

    Deterministic: uses the lexicographically smallest degree-3 primitive
    polynomial over GF(q) (canonical integer element coding). Matches the
    paper's published sets, e.g. ``{0, 1, 3, 9}`` for q=3 and
    ``{0, 1, 4, 14, 16}`` for q=4.

    Raises ``ValueError`` if ``q`` is not a prime power.
    """
    prime_power_decomposition(q)
    field = get_field(q)
    n = q * q + q + 1
    f = smallest_primitive(field, 3)
    # f = x^3 + c2 x^2 + c1 x + c0  (ascending coding: (c0, c1, c2, 1))
    c0 = f[0] if len(f) > 0 else 0
    c1 = f[1] if len(f) > 1 else 0
    c2 = f[2] if len(f) > 2 else 0
    neg, mul, add = field.neg, field.mul, field.add
    m2, m1, m0 = neg(c2), neg(c1), neg(c0)

    # zeta^l = i*zeta^2 + j*zeta + k; multiply by zeta using zeta^3 =
    # -(c2 zeta^2 + c1 zeta + c0).
    i, j, k = 0, 0, 1  # zeta^0
    dset: List[int] = []
    for ell in range(n):
        if i == 0:
            dset.append(ell)
        i, j, k = add(j, mul(i, m2)), add(k, mul(i, m1)), mul(i, m0)
    if len(dset) != q + 1:  # pragma: no cover - guarded by construction
        raise RuntimeError(f"Singer construction failed for q={q}: |D|={len(dset)}")
    return tuple(dset)


def is_perfect_difference_set(dset: Sequence[int], n: int) -> bool:
    """Check Definition 6.2: ordered differences cover 1..N-1 exactly once."""
    seen = set()
    for a in dset:
        for b in dset:
            if a == b:
                continue
            d = (a - b) % n
            if d == 0 or d in seen:
                return False
            seen.add(d)
    return len(seen) == n - 1


def difference_table(dset: Sequence[int], n: int) -> Dict[Tuple[int, int], int]:
    """The Figure 2 difference table: ``(d_i, d_j) -> (d_i - d_j) mod N``."""
    return {
        (a, b): (a - b) % n
        for a in dset
        for b in dset
        if a != b
    }


def reflection_points(dset: Sequence[int], n: int) -> Tuple[int, ...]:
    """Elements ``w`` with ``w + w in D`` — the quadrics of ER_q (Cor 6.8).

    Equivalently ``{2^{-1} d mod N : d in D}``; one per difference-set
    element since ``N`` is odd (Lemma 6.7).
    """
    half = mod_inverse(2, n)
    return tuple(sorted((half * d) % n for d in dset))


def edge_sum(u: int, v: int, n: int) -> int:
    """Edge sum ``(u + v) mod N`` (Definition 6.4) — the edge's color."""
    return (u + v) % n


class SingerGraph:
    """The Singer graph S_q with its difference-set edge coloring.

    Attributes
    ----------
    q, n:
        Prime power and order ``N = q^2 + q + 1``.
    dset:
        The Singer difference set (sorted tuple).
    graph:
        The underlying simple :class:`Graph`; reflection points are
        recorded as self-loops.
    """

    def __init__(self, q: int):
        q = whole("q", q)
        self.q = q
        self.n = q * q + q + 1
        self.dset = singer_difference_set(q)
        self.reflections = reflection_points(self.dset, self.n)
        # Vectorized build: for each color d, the edge set {(i, d-i mod N)}.
        import numpy as np

        i = np.arange(self.n, dtype=np.int64)
        us = np.concatenate([i for _ in self.dset])
        vs = np.concatenate([(d - i) % self.n for d in self.dset])
        g = Graph(self.n)
        g.add_edges_bulk(us, vs)
        self.graph = g

    def edge_color(self, u: int, v: int) -> int:
        """Difference-set element coloring edge ``(u, v)``; raises if absent."""
        s = edge_sum(u, v, self.n)
        if s not in set(self.dset) or not self.graph.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of S_{self.q}")
        return s

    def edges_of_color(self, d: int) -> Tuple[Tuple[int, int], ...]:
        """All edges with edge sum ``d`` (a perfect near-matching of Z_N)."""
        if d not in set(self.dset):
            raise ValueError(f"{d} is not in the difference set {self.dset}")
        out = []
        for i in range(self.n):
            j = (d - i) % self.n
            if i < j:
                out.append(canonical_edge(i, j))
        return tuple(out)

    def self_loop_color(self, v: int) -> int:
        """The difference-set element ``2v mod N`` of a reflection point."""
        if v not in self.graph.self_loops:
            raise ValueError(f"{v} is not a reflection point of S_{self.q}")
        return (2 * v) % self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SingerGraph(q={self.q}, N={self.n}, D={self.dset})"


@lru_cache(maxsize=None)
def singer_graph(q: int) -> SingerGraph:
    """Memoized Singer graph for prime-power ``q``."""
    return SingerGraph(q)
