"""PolarFly / Erdős–Rényi polarity graph ER_q — projective-geometry construction.

Section 6.1: vertices are the left-normalized nonzero vectors of ``F_q^3``
(the points of the projective plane PG(2, q)); ``(u, v)`` is an edge iff the
dot product ``u . v`` vanishes in ``F_q``. Vertices orthogonal to themselves
are *quadrics*; their self-loops are recorded but are not physical links.

The vertex set is integer-indexed in the canonical order

- ``i in [0, q^2)``        ->  ``[1, i // q, i % q]``
- ``i in [q^2, q^2 + q)``  ->  ``[0, 1, i - q^2]``
- ``i == q^2 + q``         ->  ``[0, 0, 1]``

so ``N = q^2 + q + 1``. The neighbours of ``v = (a, b, c)`` are the
``q + 1`` points of its polar line ``v^perp = {x : a x_0 + b x_1 + c x_2 = 0}``,
listed directly for all N vertices at once (O(N q) field-table lookups):

- ``c != 0``: ``(1, t, -(a + b t)/c)`` for ``t`` in ``F_q``, plus ``(0, 1, -b/c)``;
- ``c == 0, b != 0``: ``(1, -a/b, t)``, plus ``(0, 0, 1)``;
- ``(1, 0, 0)``: ``(0, 1, t)``, plus ``(0, 0, 1)``.

Every listed point is already left-normalized, so it maps to its index
through the coding above. The all-pairs build (:func:`_all_pairs_graph`)
is kept as the test oracle.

Vertex classes (Table 1): quadrics ``W(q)``, quadric-adjacent ``V1(q)`` and
the rest ``V2(q)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from repro.gf import get_field
from repro.topology.graph import Graph
from repro.utils.errors import whole
from repro.utils.numbertheory import prime_power_decomposition

__all__ = ["PolarFly", "polarfly_graph", "clear_polarfly_cache", "W", "V1", "V2"]

# Vertex-type tags (Table 1).
W = "W"
V1 = "V1"
V2 = "V2"

class PolarFly:
    """The ER_q polarity graph with vertex classification and vector coding.

    Use :func:`polarfly_graph` to get memoized instances.
    """

    def __init__(self, q: int):
        q = whole("q", q)
        prime_power_decomposition(q)  # validates q
        self.q = q
        self.n = q * q + q + 1
        self.field = get_field(q)
        self.vectors = self._build_vectors()
        self.graph = self._build_graph()
        self.quadrics: Tuple[int, ...] = tuple(sorted(self.graph.self_loops))
        v1 = set()
        for w in self.quadrics:
            v1 |= self.graph.neighbors(w)
        v1 -= set(self.quadrics)
        self.v1_vertices: Tuple[int, ...] = tuple(sorted(v1))
        self.v2_vertices: Tuple[int, ...] = tuple(
            v for v in range(self.n) if v not in self.graph.self_loops and v not in v1
        )
        self._type: Dict[int, str] = {}
        for v in self.quadrics:
            self._type[v] = W
        for v in self.v1_vertices:
            self._type[v] = V1
        for v in self.v2_vertices:
            self._type[v] = V2
        # integer-coded types (W=0, V1=1, V2=2) for vectorized queries
        self._type_codes = np.zeros(self.n, dtype=np.int64)
        self._type_codes[list(self.v1_vertices)] = 1
        self._type_codes[list(self.v2_vertices)] = 2

    # ---------------------------------------------------------------- build

    def _build_vectors(self) -> np.ndarray:
        q, n = self.q, self.n
        vecs = np.zeros((n, 3), dtype=np.int64)
        idx = np.arange(q * q)
        vecs[: q * q, 0] = 1
        vecs[: q * q, 1] = idx // q
        vecs[: q * q, 2] = idx % q
        vecs[q * q : q * q + q, 1] = 1
        vecs[q * q : q * q + q, 2] = np.arange(q)
        vecs[n - 1, 2] = 1
        return vecs

    def _polar_lines(self) -> np.ndarray:
        """``(N, q + 1)`` indices of the points of each vertex's polar line
        (ascending ``t``, then the point at infinity of the line)."""
        f, q, n = self.field, self.q, self.n
        a, b, c = self.vectors.T
        t = np.arange(q)
        lines = np.empty((n, q + 1), dtype=np.int64)
        m = c != 0
        s = f.vneg(f.vinv(c[m]))  # -1/c
        z = f.vmul(s[:, None], f.vadd(a[m, None], f.vmul(b[m, None], t)))
        lines[m, :q] = t * q + z
        lines[m, q] = q * q + f.vmul(s, b[m])
        m = (c == 0) & (b != 0)
        y = f.vmul(f.vneg(a[m]), f.vinv(b[m]))
        lines[m, :q] = y[:, None] * q + t
        lines[m, q] = n - 1
        lines[0, :q] = q * q + t  # vertex 0 is (1, 0, 0)
        lines[0, q] = n - 1
        return lines

    def _build_graph(self) -> Graph:
        g = Graph(self.n)
        g.add_edges_bulk(np.repeat(np.arange(self.n), self.q + 1),
                         self._polar_lines().ravel())
        return g

    # -------------------------------------------------------------- queries

    @property
    def radix(self) -> int:
        """Network radix d = q + 1 (max degree, Section 6)."""
        return self.q + 1

    def vertex_type(self, v: int) -> str:
        """Return ``'W'``, ``'V1'`` or ``'V2'`` per Table 1."""
        try:
            return self._type[v]
        except KeyError:
            raise ValueError(
                f"{v!r} is not a vertex of ER_{self.q} (0..{self.n - 1})"
            ) from None

    def vertex_vector(self, v: int) -> Tuple[int, int, int]:
        """Left-normalized coordinate vector of vertex ``v``."""
        return tuple(int(c) for c in self.vectors[v])

    def vertex_index(self, vec) -> int:
        """Index of the projective point containing ``vec`` (any nonzero rep).

        Left-normalizes ``vec`` by the inverse of its leading nonzero
        coordinate, then inverts the canonical coding.
        """
        f = self.field
        x, y, z = (int(c) % f.order for c in vec)
        if x == 0 and y == 0 and z == 0:
            raise ValueError("the zero vector is not a projective point")
        if x != 0:
            s = f.inv(x)
            y, z = f.mul(s, y), f.mul(s, z)
            return y * self.q + z
        if y != 0:
            s = f.inv(y)
            return self.q * self.q + f.mul(s, z)
        return self.n - 1

    def dot(self, u, v):
        """Dot product of the coordinate vectors of vertices ``u`` and ``v``.

        Vectorized through the field's lookup tables (``vmul``/``vadd``)
        rather than per-coordinate scalar arithmetic; ``u`` and ``v`` may
        be equal-shaped arrays of vertex indices, in which case the dot
        products are computed element-wise in one shot.
        """
        f = self.field
        a = self.vectors[np.asarray(u, dtype=np.int64)]
        b = self.vectors[np.asarray(v, dtype=np.int64)]
        acc = f.vmul(a[..., 0], b[..., 0])
        acc = f.vadd(acc, f.vmul(a[..., 1], b[..., 1]))
        acc = f.vadd(acc, f.vmul(a[..., 2], b[..., 2]))
        acc = np.asarray(acc)
        return int(acc) if acc.ndim == 0 else acc

    def is_quadric(self, v: int) -> bool:
        return self._type.get(v) == W

    def counts(self) -> Dict[str, int]:
        """Global vertex-type counts (first row of Table 1)."""
        return {
            W: len(self.quadrics),
            V1: len(self.v1_vertices),
            V2: len(self.v2_vertices),
        }

    def neighborhood_counts(self, v: int) -> Dict[str, int]:
        """Counts of each vertex type among ``v``'s neighbors (Table 1 rows).

        Vectorized: one gather of the neighbors' integer type codes plus a
        ``bincount``, instead of a per-neighbor Python dict loop.
        """
        nbrs = np.fromiter(self.graph.neighbors(v), dtype=np.int64)
        if nbrs.size == 0:
            return {W: 0, V1: 0, V2: 0}
        counts = np.bincount(self._type_codes[nbrs], minlength=3)
        return {W: int(counts[0]), V1: int(counts[1]), V2: int(counts[2])}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PolarFly(q={self.q}, N={self.n}, radix={self.radix})"


@lru_cache(maxsize=8)
def polarfly_graph(q: int) -> PolarFly:
    """Memoized ER_q construction for prime-power ``q``.

    The memo is a small LRU, not unbounded: each instance holds the full
    O(N·d) adjacency (N = q^2+q+1), which a long-lived sweep worker
    visiting many radixes would otherwise pin forever. Call
    :func:`clear_polarfly_cache` to drop every cached instance (the sweep
    engine does this between batches)."""
    return PolarFly(q)


def clear_polarfly_cache() -> None:
    """Drop every memoized :class:`PolarFly` instance."""
    polarfly_graph.cache_clear()


_BLOCK_ROWS = 256  # oracle rows per dot-product block (bounds its memory)


def _all_pairs_graph(field, vecs: np.ndarray) -> Graph:
    """ER_q by testing every pair of points for orthogonality, one
    ``_BLOCK_ROWS x N`` dot-product block at a time: the O(N^2) build that
    :meth:`PolarFly._build_graph` replaced, kept as its test oracle (the
    two graphs must pickle identically)."""
    f, n = field, len(vecs)
    g = Graph(n)
    for lo in range(0, n, _BLOCK_ROWS):
        block = vecs[lo:lo + _BLOCK_ROWS]  # (b, 3)
        # dot[b, j] = sum_k block[b,k] * vecs[j,k] in F_q
        dot = f.vmul(block[:, None, 0], vecs[None, :, 0])
        dot = f.vadd(dot, f.vmul(block[:, None, 1], vecs[None, :, 1]))
        dot = f.vadd(dot, f.vmul(block[:, None, 2], vecs[None, :, 2]))
        rows, cols = np.nonzero(dot == 0)
        g.add_edges_bulk(rows + lo, cols)
    return g
