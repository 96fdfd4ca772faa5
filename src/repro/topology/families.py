"""Reference topology families for baselines and generality tests.

The paper positions PolarFly against direct networks such as
multi-dimensional tori and HyperX (Section 1.2) and against indirect
fat-trees; its multi-tree idea applies to any direct network. These
generators provide the standard families so the library's generic pieces
(Algorithm 1, the greedy embedder, the simulators, the host-based
baselines) can be exercised and compared beyond PolarFly.

All generators return the library's :class:`Graph`.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from repro.topology.graph import Graph

__all__ = [
    "ring_graph",
    "complete_graph",
    "hypercube_graph",
    "torus_graph",
    "hyperx_graph",
    "random_regular_graph",
]


def ring_graph(n: int) -> Graph:
    """Cycle of ``n`` nodes (the substrate of ring Allreduce)."""
    if n < 3:
        raise ValueError("a ring needs at least 3 nodes")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    """K_n — the trivial diameter-1 network."""
    if n < 2:
        raise ValueError("a complete graph needs at least 2 nodes")
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def hypercube_graph(dim: int) -> Graph:
    """The ``dim``-dimensional Boolean hypercube, ``2^dim`` nodes.

    Section 4.3 notes Allreduce can also run on a hypercube (recursive
    doubling is exactly the hypercube exchange pattern).
    """
    if dim < 1:
        raise ValueError("hypercube dimension must be >= 1")
    n = 1 << dim
    pairs = [(v, v ^ (1 << b)) for v in range(n) for b in range(dim)]
    return Graph.from_edges(n, pairs)


def _grid_graph(dims: Sequence[int], family: str, steps) -> Graph:
    """Nodes are the coordinate tuples of ``dims`` in row-major order; each
    links to the node ``k`` steps further along each axis (cyclically) for
    every ``k`` in ``steps(d)``, ``d`` that axis's size."""
    dims = list(dims)
    if not dims or any(d < 2 for d in dims):
        raise ValueError(f"every {family} dimension must be >= 2")
    v = np.arange(int(np.prod(dims)))
    coords = np.array(np.unravel_index(v, dims))
    nbrs = []
    for axis, d in enumerate(dims):
        for k in steps(d):
            nxt = coords.copy()
            nxt[axis] = (nxt[axis] + k) % d
            nbrs.append(np.ravel_multi_index(nxt, dims))
    g = Graph(v.size)
    g.add_edges_bulk(np.tile(v, len(nbrs)), np.concatenate(nbrs))
    return g


def torus_graph(dims: Sequence[int]) -> Graph:
    """k-ary n-dimensional torus (wrap-around grid), e.g. ``[4, 4, 4]``.

    Dimensions of size 2 would create duplicate (parallel) links; the
    duplicate collapses into a single link in a simple graph, as in most
    simulators.
    """
    return _grid_graph(dims, "torus", lambda d: (1,))


def hyperx_graph(dims: Sequence[int]) -> Graph:
    """HyperX: the Hamming graph — nodes are coordinate tuples, fully
    connected within every dimension (Ahn et al.; paper Section 1.2)."""
    return _grid_graph(dims, "HyperX", lambda d: range(1, d))


def random_regular_graph(
    n: int,
    degree: int,
    seed: int = 0,
    max_tries: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> Graph:
    """A connected random ``degree``-regular graph via the pairing model
    (resampled until simple and connected). An explicit ``rng`` takes
    precedence over ``seed``."""
    if n * degree % 2 != 0:
        raise ValueError("n * degree must be even")
    if degree >= n:
        raise ValueError("degree must be < n")
    if rng is None:
        rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(n), degree)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        if (pairs[:, 0] == pairs[:, 1]).any():
            continue
        edge_set = {tuple(sorted(p)) for p in pairs.tolist()}
        if len(edge_set) != len(pairs):
            continue
        g = Graph.from_edges(n, edge_set)
        if g.is_connected():
            return g
    raise RuntimeError(
        f"failed to sample a connected simple {degree}-regular graph on {n} nodes"
    )
