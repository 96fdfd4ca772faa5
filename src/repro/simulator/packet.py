"""Packet-level in-network Allreduce: real payloads through router engines.

The cycle simulator (:mod:`repro.simulator.cycle`) models timing only; the
functional executor (:mod:`repro.simulator.functional`) models numerics
only. This simulator does both at once — it is the closest software
analogue of the Section 4.4 router:

- every flit carries an actual value (one vector element of its tree's
  sub-vector);
- each router keeps a running partial per in-flight flit index; a landing
  reduction flit is folded into the partial **at the router** (the
  reduction engine), and the aggregate is forwarded upward only when all
  child streams have contributed — in order, as a streaming pipeline;
- the root's fully aggregated values re-enter the fabric as broadcast
  flits and are delivered to every node;
- links are two directed channels of ``link_capacity`` flits/cycle with
  round-robin arbitration and 1-cycle hop latency, identical to the cycle
  simulator.

At completion every node holds the element-wise reduction of all inputs —
verified against NumPy — and the cycle count is directly comparable to
the cycle simulator and the fluid model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bandwidth import optimal_partition, tree_bandwidths
from repro.simulator.cycle import CycleLimitExceeded, SimulationStalled
from repro.simulator.functional import REDUCE_OPS
from repro.topology.graph import Graph
from repro.trees.tree import SpanningTree

__all__ = ["PacketStats", "PacketLevelSimulator", "packet_allreduce"]

REDUCE = "reduce"
BROADCAST = "broadcast"


@dataclass(frozen=True)
class PacketStats:
    cycles: int
    flits_moved: int
    flits_per_tree: Tuple[int, ...]

    @property
    def aggregate_bandwidth(self) -> float:
        return sum(self.flits_per_tree) / self.cycles if self.cycles else 0.0


class _VFlow:
    """A directed (tree, edge, phase) stream carrying values."""

    __slots__ = ("tree", "kind", "src", "dst", "sent")

    def __init__(self, tree: int, kind: str, src: int, dst: int):
        self.tree = tree
        self.kind = kind
        self.src = src
        self.dst = dst
        self.sent = 0


class PacketLevelSimulator:
    """Flit simulation with in-router arithmetic.

    Parameters
    ----------
    g, trees:
        The physical topology and the embedded spanning trees.
    inputs:
        ``(N, m)`` array of per-node input vectors.
    partition:
        Sub-vector sizes per tree (default: Equation 2 optimal split from
        Algorithm 1 rates).
    op:
        Associative reduction (name from ``REDUCE_OPS``).
    """

    def __init__(
        self,
        g: Graph,
        trees: Sequence[SpanningTree],
        inputs: np.ndarray,
        partition: Optional[Sequence[int]] = None,
        link_capacity: int = 1,
        op: str = "sum",
    ):
        inputs = np.asarray(inputs)
        if inputs.ndim != 2 or inputs.shape[0] != g.n:
            raise ValueError(f"inputs must be (N={g.n}, m); got {inputs.shape}")
        if op not in REDUCE_OPS:
            raise ValueError(f"unknown op {op!r}")
        if link_capacity < 1:
            raise ValueError("link capacity must be >= 1")
        for t in trees:
            t.validate(g)
        if partition is None:
            rates = tree_bandwidths(g, trees)
            partition = optimal_partition(inputs.shape[1], rates)
        if len(partition) != len(trees) or sum(partition) != inputs.shape[1]:
            raise ValueError("partition must tile the vector across trees")

        self.g = g
        self.trees = list(trees)
        self.inputs = inputs
        self.m = [int(x) for x in partition]
        self.capacity = link_capacity
        self.combine: Callable = REDUCE_OPS[op]
        self.n = g.n

        offsets = []
        off = 0
        for w in self.m:
            offsets.append(off)
            off += w
        self.offsets = offsets

        # Router state per tree: the running partial of each flit index at
        # each node (starts as the node's own sub-vector), how many child
        # contributions each flit has absorbed, and broadcast delivery.
        self.partial: List[np.ndarray] = [
            inputs[:, o : o + w].astype(np.result_type(inputs.dtype), copy=True)
            for o, w in zip(offsets, self.m)
        ]
        self.contrib: List[np.ndarray] = [
            np.zeros((g.n, w), dtype=np.int32) for w in self.m
        ]
        self.bc_value: List[np.ndarray] = [
            np.zeros((g.n, w), dtype=np.result_type(inputs.dtype)) for w in self.m
        ]
        self.bc_have: List[List[int]] = [[0] * g.n for _ in trees]  # prefix count

        self.flows: List[_VFlow] = []
        self.channel_flows: Dict[Tuple[int, int], List[int]] = {}
        self._rr: Dict[Tuple[int, int], int] = {}
        for ti, t in enumerate(trees):
            for v, p in t.parent.items():
                for fl in (_VFlow(ti, REDUCE, v, p), _VFlow(ti, BROADCAST, p, v)):
                    fid = len(self.flows)
                    self.flows.append(fl)
                    self.channel_flows.setdefault((fl.src, fl.dst), []).append(fid)
        for ch in self.channel_flows:
            self._rr[ch] = 0

        # in-flight payloads: (flow id, flit index, value)
        self._landing: List[Tuple[int, int, np.generic]] = []
        self.flits_moved = 0

    # ------------------------------------------------------------ helpers

    def _agg_ready(self, ti: int, v: int) -> int:
        """Contiguous prefix of flit indices fully aggregated at ``v``."""
        t = self.trees[ti]
        kids = t.children(v)
        if not kids:
            return self.m[ti]
        need = len(kids)
        row = self.contrib[ti][v]
        k = 0
        while k < self.m[ti] and row[k] == need:
            k += 1
        return k

    def _bc_avail(self, ti: int, v: int) -> int:
        t = self.trees[ti]
        if v == t.root:
            return self._agg_ready(ti, v)
        return self.bc_have[ti][v]

    def _eligible(self, fl: _VFlow) -> int:
        if fl.kind == REDUCE:
            return self._agg_ready(fl.tree, fl.src) - fl.sent
        return self._bc_avail(fl.tree, fl.src) - fl.sent

    def _payload(self, fl: _VFlow, k: int):
        if fl.kind == REDUCE:
            return self.partial[fl.tree][fl.src, k]
        ti = fl.tree
        if fl.src == self.trees[ti].root:
            return self.partial[ti][fl.src, k]
        return self.bc_value[ti][fl.src, k]

    def _tree_done(self, ti: int) -> bool:
        t = self.trees[ti]
        if self.m[ti] == 0:
            return True
        if self._agg_ready(ti, t.root) < self.m[ti]:
            return False
        return all(self.bc_have[ti][v] >= self.m[ti] for v in t.parent)

    def _done(self) -> bool:
        return all(self._tree_done(ti) for ti in range(len(self.trees)))

    # ------------------------------------------------------------ dynamics

    def step(self) -> int:
        # land in-flight payloads: fold into partials / record broadcasts
        for fid, k, value in self._landing:
            fl = self.flows[fid]
            ti = fl.tree
            if fl.kind == REDUCE:
                self.partial[ti][fl.dst, k] = self.combine(
                    self.partial[ti][fl.dst, k], value
                )
                self.contrib[ti][fl.dst, k] += 1
            else:
                self.bc_value[ti][fl.dst, k] = value
                self.bc_have[ti][fl.dst] += 1  # flits arrive in order per flow
        self._landing = []

        moved = 0
        for ch, fids in self.channel_flows.items():
            budget = {fid: self._eligible(self.flows[fid]) for fid in fids}
            slots = self.capacity
            i = self._rr[ch]
            k_flows = len(fids)
            idle = 0
            sends: List[Tuple[int, int]] = []
            while slots > 0 and idle < k_flows:
                fid = fids[i % k_flows]
                if budget[fid] > 0:
                    budget[fid] -= 1
                    fl = self.flows[fid]
                    sends.append((fid, fl.sent))
                    fl.sent += 1
                    slots -= 1
                    idle = 0
                else:
                    idle += 1
                i += 1
            self._rr[ch] = i % k_flows if k_flows else 0
            for fid, k in sends:
                fl = self.flows[fid]
                self._landing.append((fid, k, self._payload(fl, k)))
                moved += 1
        self.flits_moved += moved
        return moved

    def run(self, max_cycles: Optional[int] = None) -> Tuple[np.ndarray, PacketStats]:
        """Run to completion; returns ``(outputs, stats)`` where
        ``outputs[v]`` is node ``v``'s received full result vector.

        Raises :class:`~repro.simulator.cycle.CycleLimitExceeded` past
        ``max_cycles`` and :class:`~repro.simulator.cycle.SimulationStalled`
        (with the cycle and the pending trees) when a cycle moves nothing
        with nothing in flight."""
        if max_cycles is None:
            depth = max((t.depth for t in self.trees), default=0)
            max_cycles = 16 + 4 * depth + 8 * (sum(self.m) + 1) * max(1, len(self.trees))
        cycle = 0
        while not self._done():
            moved = self.step()
            cycle += 1
            if cycle > max_cycles:
                raise CycleLimitExceeded(f"simulation exceeded {max_cycles} cycles")
            if moved == 0 and not self._landing:
                pending = [
                    ti for ti in range(len(self.trees)) if not self._tree_done(ti)
                ]
                if pending:
                    raise SimulationStalled(cycle, pending)
        out = np.empty_like(self.inputs)
        for ti, t in enumerate(self.trees):
            o, w = self.offsets[ti], self.m[ti]
            if w == 0:
                continue
            root_vals = self.partial[ti][t.root]
            for v in range(self.n):
                out[v, o : o + w] = root_vals if v == t.root else self.bc_value[ti][v]
        stats = PacketStats(
            cycles=cycle, flits_moved=self.flits_moved, flits_per_tree=tuple(self.m)
        )
        return out, stats


def packet_allreduce(
    g: Graph,
    trees: Sequence[SpanningTree],
    inputs: np.ndarray,
    partition: Optional[Sequence[int]] = None,
    link_capacity: int = 1,
    op: str = "sum",
) -> Tuple[np.ndarray, PacketStats]:
    """One-shot wrapper around :class:`PacketLevelSimulator`."""
    sim = PacketLevelSimulator(g, trees, inputs, partition, link_capacity, op)
    return sim.run()
