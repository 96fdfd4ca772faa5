"""Cycle-level flit simulation of pipelined in-network Allreduce.

Models the router architecture of Section 4.4 at flit granularity:

- every undirected link is two directed channels of capacity
  ``link_capacity`` flits/cycle (bidirectional links, Section 4.1);
- *reduction* flows move flits child -> parent; a node may send flit ``k``
  upward only once it has aggregated flit ``k`` from **all** children (its
  own injected stream is always resident) — the pipelined streaming
  aggregation of SHARP/PIUMA;
- *broadcast* flows move flits parent -> child; flit ``k`` leaves the root
  once the root has aggregated it, and leaves an interior node once that
  node received it;
- flits transferred in cycle ``T`` become visible at the receiver in cycle
  ``T + 1`` (one-cycle hop latency), so pipeline-fill time is proportional
  to tree depth, as the latency model assumes;
- each directed channel arbitrates round-robin among its backlogged
  (tree, phase) flows — fair sharing, the physical mechanism behind the
  Section 5.1 congestion model;
- an optional :class:`~repro.simulator.faultsched.FaultSchedule` makes
  links die (and optionally revive) mid-run: a down link grants zero
  flits in both directions, flits already in flight still land, and a
  run that can make no further progress raises :class:`SimulationStalled`
  at the exact cycle progress stopped — unless a scheduled revival is
  still pending, in which case the engine idles until it;
- optional credit-based flow control (Section 4.4): each (tree, phase)
  stream gets ``buffer_size`` receiver-side slots; a flit's slot frees
  once the receiver has *consumed* it (forwarded it up for reduction
  flits / re-broadcast it down for broadcast flits; leaves and the root
  consume on arrival-equivalent events). The credit loop is two cycles
  (one hop out, one cycle for the consumption to become visible), so
  ``buffer_size = 2 * link_capacity`` — the latency-bandwidth product —
  suffices for full throughput: the paper's Section 1.2 claim that
  pipelined tree Allreduce needs only tiny router buffers, demonstrated
  by the E-A6 benchmark.

The simulator is deliberately mechanism-faithful rather than fast; it is
used at small radix to *validate* the analytic model (Algorithm 1): the
measured steady-state aggregate bandwidth of each embedding must match the
predicted ``sum B_i``, and measured completion must track
``2 * depth + m_i / B_i``.  It is also the differential oracle of the
vectorized engines (:mod:`repro.simulator.fastcycle` and the engines built
on it), so it never delegates: every cycle walks its own per-flow
counters and per-channel round-robin pointers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.faultsched import FaultSchedule
from repro.topology.graph import Graph, canonical_edge
from repro.trees.tree import SpanningTree
from repro.utils.errors import nonnegative, whole

__all__ = [
    "FlowKind",
    "CycleStats",
    "CycleSimulator",
    "CycleLimitExceeded",
    "EngineRun",
    "SimulationStalled",
    "check_engine_args",
    "simulate_allreduce",
    "default_max_cycles",
]

REDUCE = "reduce"
BROADCAST = "broadcast"
FlowKind = str

# consumer-spec modes (per-flow credit bookkeeping, hoisted in __init__)
_CONS_MIN_SENT = 0  # min over the receiver's re-broadcast 'sent' counters
_CONS_SENT = 1      # the receiver's own up-flow 'sent'
_CONS_DELIVERED = 2  # broadcast into a leaf: delivered-at-dst counter
_CONS_CONST = 3     # root of a single-node tree: always m_i


class SimulationStalled(RuntimeError):
    """Zero progress with incomplete trees and no revival pending.

    On a healthy network this is a deadlock (a bug); under a
    :class:`~repro.simulator.faultsched.FaultSchedule` it is the expected
    signal that a failed link severed live reduction traffic — the
    recovery runtime (:mod:`repro.simulator.recovery`) catches it and
    re-plans. All engines raise it at the exact same cycle with the same
    pending-tree set (differential-tested).
    """

    def __init__(self, cycle: int, pending: Sequence[int]):
        self.cycle = int(cycle)
        self.pending = tuple(int(i) for i in pending)
        super().__init__(
            f"simulation stalled; pending trees {list(self.pending)}"
            f" (cycle {self.cycle})"
        )


class CycleLimitExceeded(RuntimeError):
    """A run outlived its ``max_cycles`` guard.

    Raised by every cycle engine (through :class:`EngineRun`), by a
    batched lane's :meth:`~repro.simulator.batched.LaneOutcome.result`,
    by the multi-tenant fabric's global clock and by the re-plan loop's
    total budget — at the same cycle and, for the engines, with the same
    ``simulation exceeded N cycles`` message.
    """


def gate_mask(
    blocked: Optional[np.ndarray], num_channels: int
) -> Optional[np.ndarray]:
    """The two-phase ``finish_cycle(budget, blocked)`` gate: ``None`` or a
    boolean mask over the engine's :meth:`channels` (length C).  Returns
    the mask as a bool array, or ``None`` when it gates no channel."""
    if blocked is None:
        return None
    mask = np.asarray(blocked, dtype=bool)
    if mask.shape != (num_channels,):
        raise ValueError(
            f"blocked must be a boolean mask of {num_channels} channels; "
            f"got shape {mask.shape}"
        )
    return mask if mask.any() else None


def default_max_cycles(
    trees: Sequence[SpanningTree],
    flits_per_tree: Sequence[int],
    link_capacity: int,
    buffer_size: Optional[int],
    faults: Optional[FaultSchedule] = None,
) -> int:
    """The shared ``run(max_cycles=None)`` budget of every cycle engine.

    Generous: pipeline fill plus fully serialized worst case (plus the
    credit-loop slowdown when buffers are tiny, plus the fault schedule's
    horizon — a run may legitimately idle until the last scheduled
    revival). Every engine's :class:`EngineRun` uses this one formula, so
    their guard semantics are identical — same stop cycle, same error —
    which the cross-engine differential suite asserts.
    """
    depth = max((t.depth for t in trees), default=0)
    stall_factor = 1 if buffer_size is None else (
        1 + max(1, 2 * link_capacity) // buffer_size
    )
    return (
        16
        + 4 * depth
        + 8 * stall_factor * (sum(flits_per_tree) + 1) * max(1, len(trees))
        + (faults.horizon if faults is not None else 0)
    )


@dataclass(frozen=True)
class CycleStats:
    """Outcome of one simulated Allreduce."""

    cycles: int  # cycle at which the whole collective completed
    tree_completion: Tuple[int, ...]  # per-tree completion cycle
    flits_per_tree: Tuple[int, ...]
    link_capacity: int
    flits_moved: int  # total directed flit-hops transferred
    buffer_size: Optional[int] = None  # per-flow credit slots (None = infinite)
    max_channel_utilization: float = 0.0  # busiest direction, flits/(cap*cycles)
    mean_channel_utilization: float = 0.0  # across directions carrying traffic

    @property
    def aggregate_bandwidth(self) -> float:
        """Measured Allreduce bandwidth: reduced+broadcast elements per
        cycle, ``sum m_i / T`` (compare with Theorem 5.1's ``sum B_i``)."""
        return sum(self.flits_per_tree) / self.cycles if self.cycles else 0.0

    def tree_bandwidth(self, i: int) -> float:
        return self.flits_per_tree[i] / self.tree_completion[i] if self.tree_completion[i] else 0.0

    @classmethod
    def fold(
        cls,
        completion: Iterable[int],
        flits_per_tree: Iterable[int],
        link_capacity: int,
        flits_moved: int,
        buffer_size: Optional[int],
        channel_flits: Sequence[int] | np.ndarray,
    ) -> "CycleStats":
        """Fold a finished run — per-tree completion cycles and cumulative
        per-channel flit counts (a list or an int64 array) — into its
        stats.  Every field is a plain ``int``/``float`` whatever the
        engine's array types, so the pickles of equal runs are
        byte-identical across engines."""
        completion = tuple(int(c) for c in completion)
        total = max(completion, default=0)
        loads = np.asarray(channel_flits, dtype=np.int64)
        loads = loads[loads > 0]
        denom = total * link_capacity
        busy = loads.size and denom
        return cls(
            cycles=total,
            tree_completion=completion,
            flits_per_tree=tuple(int(x) for x in flits_per_tree),
            link_capacity=link_capacity,
            flits_moved=int(flits_moved),
            buffer_size=buffer_size,
            max_channel_utilization=int(loads.max()) / denom if busy else 0.0,
            mean_channel_utilization=(
                int(loads.sum()) / (loads.size * denom) if busy else 0.0
            ),
        )


_INT64_MAX = (1 << 63) - 1


def check_engine_args(
    g: Graph,
    trees: Sequence[SpanningTree],
    flits_per_tree: Sequence[int],
    link_capacity: int,
    buffer_size: Optional[int],
    faults: Optional[FaultSchedule],
) -> Tuple[List[int], int, Optional[int]]:
    """The argument check every cycle engine runs before building state.

    Flit counts, link capacity and buffer size must be integers
    (``operator.index``: NumPy integers pass, floats and strings raise a
    named ``TypeError``); trees must be spanning trees of ``g``, and
    ``faults`` must be ``None`` or a :class:`FaultSchedule` (anything else
    is a named ``TypeError``) naming links of ``g``.  Every flit of tree ``i``
    crosses its ``2(N-1)`` directed flows, so the engines' int64 flit
    counters hold ``2(N-1) * sum(m_i)``; a split that would overflow them
    raises a ``ValueError`` naming the limit.  Returns the normalized
    ``(flits_per_tree, link_capacity, buffer_size)``.
    """
    if len(trees) != len(flits_per_tree):
        raise ValueError("flits_per_tree must align with trees")
    m = [whole(f"flits_per_tree[{i}]", x) for i, x in enumerate(flits_per_tree)]
    link_capacity = whole("link_capacity", link_capacity)
    if link_capacity < 1:
        raise ValueError("link capacity must be >= 1 flit/cycle")
    if buffer_size is not None:
        buffer_size = whole("buffer_size", buffer_size)
        if buffer_size < 1:
            raise ValueError("buffer size must be >= 1 slot (or None for infinite)")
    for t in trees:
        t.validate(g)
    if faults is not None:
        if not isinstance(faults, FaultSchedule):
            raise TypeError(
                "faults must be a FaultSchedule or None; got "
                f"{type(faults).__name__}"
            )
        faults.validate_against(g)
    if any(x < 0 for x in m):
        raise ValueError("flit counts must be non-negative")
    hops = 2 * (g.n - 1)
    if hops and sum(m) > _INT64_MAX // hops:
        raise ValueError(
            f"int64 headroom: per-tree flit counts must sum to at most "
            f"{_INT64_MAX // hops} on a {g.n}-node topology (each flit "
            f"crosses 2(N-1) = {hops} channels); got {sum(m)}"
        )
    return m, link_capacity, buffer_size


class EngineRun:
    """One run of a cycle engine: the contract every engine's ``run`` and
    the multi-tenant fabric share.

    Engines only step; :meth:`tick` books each stepped cycle in one fixed
    order — the ``max_cycles`` guard (:class:`CycleLimitExceeded`), the
    telemetry ``on_cycle`` hook, per-tree completion cycles, and a
    :class:`SimulationStalled` when the cycle granted nothing (so nothing
    is in flight either), trees are pending and no link revival is
    scheduled.
    :meth:`stats` closes the telemetry leg and folds the
    :class:`CycleStats`.  Every engine therefore stops, stalls and
    reports at the same cycle because one object decides it.

    ``cycle`` counts cycles since the run started.  A leap, an idle
    fast-forward or a parked fabric tenant's wait (its last cycle moved
    nothing, see :mod:`repro.tenancy.fabric`) advances it directly: no
    completion, stall or guard event can fall inside any of them.
    ``max_cycles=None`` takes :func:`default_max_cycles`; the fabric
    passes ``math.inf`` because it guards its global clock instead.  Any
    other budget must be a non-negative integer (a named ``TypeError`` /
    ``ValueError``).

    The engine provides ``done_mask()`` (per-tree completion as a bool
    array, landed flits only), ``telemetry``, ``faults`` and the fields
    :meth:`stats` folds.  A mask is never modified once handed out, so
    when ``done_mask()`` returns the object it returned last (the
    vectorized engines do until a tree can have finished), no tree
    completed in between and :meth:`tick` books nothing.
    """

    def __init__(self, sim, max_cycles: Optional[float] = None):
        if max_cycles is None:
            max_cycles = default_max_cycles(
                sim.trees, sim.m, sim.capacity, sim.buffer_size, sim.faults
            )
        elif max_cycles != math.inf:
            max_cycles = nonnegative("max_cycles", max_cycles)
        self.sim = sim
        self.max_cycles = max_cycles
        self.cycle = 0
        self.done = self._last_mask = sim.done_mask()
        self.completion = [0] * len(self.done)
        self.finished = bool(self.done.all())
        self._tel = sim.telemetry
        if self._tel is not None:
            self._tel.on_run_start(sim)

    def tick(self, moved: int) -> bool:
        """Book one stepped cycle that granted ``moved`` flits (an engine
        gated from outside passes its pre-gate demand instead: a gated
        cycle is not an idle one).  A cycle that granted nothing leaves
        nothing in flight, so ``moved == 0`` alone is zero progress.
        Returns ``True`` for a dead wait — zero progress with a revival
        still scheduled, so the state is a fixpoint until that revival."""
        self.cycle += 1
        cycle = self.cycle
        if cycle > self.max_cycles:
            raise CycleLimitExceeded(f"simulation exceeded {self.max_cycles} cycles")
        sim = self.sim
        if self._tel is not None:
            self._tel.on_cycle(sim, cycle, moved)
        now = sim.done_mask()
        if now is not self._last_mask:
            self._last_mask = now
            newly = now & ~self.done
            if newly.any():
                for i in np.flatnonzero(newly):
                    self.completion[i] = cycle
                self.done = self.done | now
                self.finished = bool(self.done.all())
        if moved or self.finished:
            return False
        if sim.faults is not None and sim.faults.next_revival_after(cycle) is not None:
            return True
        if self._tel is not None:
            self._tel.on_run_end(sim, cycle, False)
        raise SimulationStalled(cycle, np.flatnonzero(~self.done))

    def stats(self) -> CycleStats:
        """Close the telemetry leg and fold the finished run."""
        sim = self.sim
        if self._tel is not None:
            self._tel.on_run_end(sim, max(self.completion, default=0), True)
        return CycleStats.fold(
            self.completion,
            sim.m,
            sim.capacity,
            sim.flits_moved,
            sim.buffer_size,
            sim.channel_flit_array(),
        )


class _Flow:
    """One directed (tree, edge, phase) flit stream."""

    __slots__ = ("tree", "kind", "src", "dst", "sent", "cons")

    def __init__(self, tree: int, kind: FlowKind, src: int, dst: int):
        self.tree = tree
        self.kind = kind
        self.src = src
        self.dst = dst
        self.sent = 0  # flits already pushed into the channel
        self.cons = None  # consumer spec (mode, payload), set by the simulator


class CycleSimulator:
    """Flit-level simulator for a set of trees embedded in ``g``.

    Parameters
    ----------
    g:
        Physical topology.
    trees:
        Embedded spanning trees (validated against ``g``).
    flits_per_tree:
        Sub-vector length ``m_i`` (in flits) reduced by each tree —
        normally ``plan.partition(m)``.
    link_capacity:
        Flits per cycle per channel direction (the link bandwidth ``B``).
    faults:
        Optional :class:`~repro.simulator.faultsched.FaultSchedule`; down
        links grant zero flits (see module docstring for the semantics).
    telemetry:
        Optional observer of ``run()`` (a :class:`~repro.telemetry.Collector`
        or the trace recorder); receives the per-cycle hooks. ``None`` (the
        default) keeps the hot path hook-free.
    """

    engine_name = "reference"

    def __init__(
        self,
        g: Graph,
        trees: Sequence[SpanningTree],
        flits_per_tree: Sequence[int],
        link_capacity: int = 1,
        buffer_size: Optional[int] = None,
        faults: Optional[FaultSchedule] = None,
        telemetry=None,
    ):
        self.m, self.capacity, self.buffer_size = check_engine_args(
            g, trees, flits_per_tree, link_capacity, buffer_size, faults
        )
        self.g = g
        self.trees = list(trees)
        self.faults = faults if faults else None
        self.telemetry = telemetry
        self.cycle = 0  # cycles stepped so far (the c-th step is cycle c)

        # Per-tree state.
        n = g.n
        self.n = n
        # up_delivered[t][v]: flits from v fully ARRIVED at v's parent.
        self.up_delivered: List[List[int]] = [[0] * n for _ in trees]
        # bc_delivered[t][v]: broadcast flits fully arrived at v.
        self.bc_delivered: List[List[int]] = [[0] * n for _ in trees]

        # Flows and per-direction arbitration queues.
        self.flows: List[_Flow] = []
        self.channel_flows: Dict[Tuple[int, int], List[int]] = {}
        self._rr: Dict[Tuple[int, int], int] = {}
        # credit bookkeeping: the flow that forwards a node's reduction
        # upward, and the flows that re-broadcast at a node
        self._up_flow_of: Dict[Tuple[int, int], int] = {}
        self._bc_flows_from: Dict[Tuple[int, int], List[int]] = {}
        for ti, t in enumerate(trees):
            for v, p in t.parent.items():
                up = _Flow(ti, REDUCE, v, p)
                dn = _Flow(ti, BROADCAST, p, v)
                for fl in (up, dn):
                    fid = len(self.flows)
                    self.flows.append(fl)
                    self.channel_flows.setdefault((fl.src, fl.dst), []).append(fid)
                    if fl.kind == REDUCE:
                        self._up_flow_of[(ti, v)] = fid
                    else:
                        self._bc_flows_from.setdefault((ti, p), []).append(fid)
        for ch in self.channel_flows:
            self._rr[ch] = 0
        self._sent_snap: List[int] = [0] * len(self.flows)

        # hoisted per-call structures for the hot budget helpers:
        # per-(tree, node) children tuples (t.children builds a fresh
        # tuple per call) and a per-flow consumer spec so _consumed /
        # _consumed_now never rebuild dict lookups in the step loop
        self._kids: List[List[Tuple[int, ...]]] = [
            [t.children(v) for v in range(n)] for t in trees
        ]
        for fl in self.flows:
            ti, dst = fl.tree, fl.dst
            kids_bc = self._bc_flows_from.get((ti, dst), ())
            if fl.kind == REDUCE:
                if dst == trees[ti].root:
                    fl.cons = (
                        (_CONS_MIN_SENT, tuple(kids_bc))
                        if kids_bc
                        else (_CONS_CONST, self.m[ti])
                    )
                else:
                    fl.cons = (_CONS_SENT, self._up_flow_of[(ti, dst)])
            elif not kids_bc:  # broadcast into a leaf
                fl.cons = (_CONS_DELIVERED, dst)
            else:
                fl.cons = (_CONS_MIN_SENT, tuple(kids_bc))

        # In-flight flits land at the receiver at the next cycle boundary.
        self._landing: List[Tuple[int, int]] = []  # (flow id, count)
        self.flits_moved = 0
        self.channel_flits: Dict[Tuple[int, int], int] = {
            ch: 0 for ch in self.channel_flows
        }

    # ------------------------------------------------------------ dynamics

    def _aggregated(self, ti: int, v: int) -> int:
        """Flits fully aggregated at node ``v`` for tree ``ti``: limited by
        the slowest child stream (own input is always resident)."""
        kids = self._kids[ti][v]
        if not kids:
            return self.m[ti]
        up = self.up_delivered[ti]
        return min(up[c] for c in kids)

    def _eligible(self, flow: _Flow) -> int:
        """How many more flits this flow could inject right now."""
        ti = flow.tree
        if flow.kind == REDUCE:
            return self._aggregated(ti, flow.src) - flow.sent
        # broadcast: the source must itself hold the flit
        t = self.trees[ti]
        if flow.src == t.root:
            avail = self._aggregated(ti, flow.src)
        else:
            avail = self.bc_delivered[ti][flow.src]
        return avail - flow.sent

    def _consumed(self, flow: _Flow) -> int:
        """Flits of ``flow`` its receiver has consumed (start-of-cycle view).

        Consumption frees a credit slot: a reduction flit is consumed once
        the receiver forwarded the aggregated flit toward the root (the
        root consumes by pushing it into every broadcast stream); a
        broadcast flit is consumed once re-broadcast to all children
        (leaves consume on delivery). Dispatches on the per-flow consumer
        spec hoisted in ``__init__``."""
        mode, payload = flow.cons
        if mode == _CONS_MIN_SENT:
            snap = self._sent_snap
            return min(snap[f] for f in payload)
        if mode == _CONS_SENT:
            return self._sent_snap[payload]
        if mode == _CONS_DELIVERED:
            return self.bc_delivered[flow.tree][payload]
        return payload  # _CONS_CONST: m_i

    def _consumed_now(self, flow: _Flow) -> int:
        """Like :meth:`_consumed` but against the *current* counters (not
        the start-of-cycle snapshot) — the post-step receiver-side view
        the telemetry queue probe samples."""
        mode, payload = flow.cons
        if mode == _CONS_MIN_SENT:
            flows = self.flows
            return min(flows[f].sent for f in payload)
        if mode == _CONS_SENT:
            return self.flows[payload].sent
        if mode == _CONS_DELIVERED:
            return self.bc_delivered[flow.tree][payload]
        return payload  # _CONS_CONST: m_i

    def _credit(self, fid: int) -> int:
        """Remaining credit slots for flow ``fid`` (inf when unbuffered)."""
        if self.buffer_size is None:
            return 1 << 30
        flow = self.flows[fid]
        outstanding = flow.sent - self._consumed(flow)
        return self.buffer_size - outstanding

    def _tree_done(self, ti: int) -> bool:
        t = self.trees[ti]
        m = self.m[ti]
        if m == 0:
            return True
        if self._aggregated(ti, t.root) < m:
            return False
        bc = self.bc_delivered[ti]
        return all(bc[v] >= m for v in t.parent)

    # ----------------------------------------------------- engine protocol

    def done_mask(self) -> np.ndarray:
        """Per-tree completion, counting only flits that have landed."""
        return np.fromiter(
            (self._tree_done(i) for i in range(len(self.trees))),
            dtype=bool,
            count=len(self.trees),
        )

    def channels(self) -> List[Tuple[int, int]]:
        """Directed channels carrying at least one flow, in creation order."""
        return list(self.channel_flows)

    def channel_flit_counts(self) -> List[int]:
        """Cumulative flits moved per channel, aligned with :meth:`channels`."""
        return [self.channel_flits[ch] for ch in self.channel_flows]

    def channel_flit_array(self) -> np.ndarray:
        """:meth:`channel_flit_counts` as a fresh int64 array."""
        return np.array(self.channel_flit_counts(), dtype=np.int64)

    def delivered_floor(self) -> List[int]:
        """Per-tree count of flits fully delivered to *every* node (landed
        broadcast floor) — the prefix of each sub-vector that is complete
        and need not be redone after a failure."""
        out = []
        for ti, t in enumerate(self.trees):
            if not t.parent:
                out.append(self.m[ti])
            else:
                bc = self.bc_delivered[ti]
                out.append(min(min(bc[v] for v in t.parent), self.m[ti]))
        return out

    def reduced_at_root(self) -> List[int]:
        """Per-tree count of flits fully aggregated at the root; the gap to
        :meth:`delivered_floor` is pipeline work a recovery discards."""
        return [
            min(self._aggregated(ti, t.root), self.m[ti])
            for ti, t in enumerate(self.trees)
        ]

    def queue_occupancy(self) -> List[int]:
        """Per-router receiver-side queue occupancy: flits sent toward the
        router (landed or in flight) minus flits its consumer stage has
        drained — the occupancy a credit buffer would hold. Identical
        across engines at every cycle (telemetry-differential-tested)."""
        out = [0] * self.n
        for fl in self.flows:
            out[fl.dst] += fl.sent - self._consumed_now(fl)
        return out

    def phase_flit_totals(self) -> Tuple[List[int], List[int]]:
        """Cumulative (reduce, broadcast) flit-hops per tree."""
        red = [0] * len(self.trees)
        bc = [0] * len(self.trees)
        for fl in self.flows:
            if fl.kind == REDUCE:
                red[fl.tree] += fl.sent
            else:
                bc[fl.tree] += fl.sent
        return red, bc

    def step(self) -> int:
        """Advance one cycle; returns the number of flits transferred."""
        return self.finish_cycle(self.begin_cycle())

    # ------------------------------------------------- two-phase stepping

    def begin_cycle(self) -> Dict[Tuple[int, int], Optional[Dict[int, int]]]:
        """Phases 1–2 of one cycle: advance the clock, land last cycle's
        in-flight flits, and compute each channel's per-flow budgets from
        the start-of-cycle snapshot (credits are computed against
        start-of-cycle sent counters so credit return takes a full cycle,
        like a real credit loop).  A down channel maps to ``None`` — it
        grants nothing and its pointer holds still.

        This is the reference half of the two-phase stepping API the
        multi-tenant fabric (:mod:`repro.tenancy.fabric`) drives; see
        :meth:`FastCycleSimulator.begin_cycle`.  ``step()`` is exactly
        ``finish_cycle(begin_cycle())``.
        """
        self.cycle += 1
        dead = (
            self.faults.down_edges_at(self.cycle)
            if self.faults is not None
            else ()
        )
        # 1. land last cycle's in-flight flits
        for fid, cnt in self._landing:
            fl = self.flows[fid]
            if fl.kind == REDUCE:
                self.up_delivered[fl.tree][fl.src] += cnt
            else:
                self.bc_delivered[fl.tree][fl.dst] += cnt
        self._landing = []

        # 2. per-channel budgets from the cycle-start snapshot.  Within a
        # cycle only `sent` counters of already-arbitrated channels change,
        # and every flow lives on exactly one channel, so hoisting the
        # budget computation ahead of the arbitration loop is
        # behavior-identical to computing it per channel in the loop.
        self._sent_snap = [f.sent for f in self.flows]
        budgets: Dict[Tuple[int, int], Optional[Dict[int, int]]] = {}
        for ch, fids in self.channel_flows.items():
            if dead and canonical_edge(*ch) in dead:
                # a down link grants nothing and its pointers hold still —
                # exactly as if every flow on the channel had zero budget
                budgets[ch] = None
                continue
            budgets[ch] = {
                fid: min(
                    self._eligible(self.flows[fid]),
                    self._credit(fid),
                )
                for fid in fids
            }
        return budgets

    def finish_cycle(
        self,
        budgets: Dict[Tuple[int, int], Optional[Dict[int, int]]],
        blocked: Optional[np.ndarray] = None,
    ) -> int:
        """Phase 3 of one cycle: round-robin arbitration against the
        :meth:`begin_cycle` budgets.  ``blocked`` is ``None`` or a boolean
        mask over :meth:`channels` (length C); a masked channel is gated
        off this cycle — same semantics as a down link.  Returns the
        number of flits transferred."""
        mask = gate_mask(blocked, len(self.channel_flows))
        moved = 0
        for ci, (ch, fids) in enumerate(self.channel_flows.items()):
            budget = budgets[ch]
            if budget is None or (mask is not None and mask[ci]):
                continue
            slots = self.capacity
            start = self._rr[ch]
            k = len(fids)
            idle_scan = 0
            i = start
            granted: Dict[int, int] = {}
            while slots > 0 and idle_scan < k:
                fid = fids[i % k]
                if budget[fid] > 0:
                    budget[fid] -= 1
                    granted[fid] = granted.get(fid, 0) + 1
                    slots -= 1
                    idle_scan = 0
                else:
                    idle_scan += 1
                i += 1
            self._rr[ch] = i % k if k else 0
            for fid, cnt in granted.items():
                self.flows[fid].sent += cnt
                self._landing.append((fid, cnt))
                self.channel_flits[ch] += cnt
                moved += cnt
        self.flits_moved += moved
        return moved

    def channel_demand(
        self, budgets: Dict[Tuple[int, int], Optional[Dict[int, int]]]
    ) -> List[int]:
        """Per-channel count of flows with a positive budget (aligned with
        :meth:`channels`) — the fabric arbiter's work-conservation view."""
        out = []
        for ch in self.channel_flows:
            b = budgets[ch]
            out.append(0 if b is None else sum(1 for v in b.values() if v > 0))
        return out

    def channel_keys(self) -> np.ndarray:
        """``src * n + dst`` of each channel, aligned with
        :meth:`channels` (int64) — the key the fabric groups sharers by."""
        chs = np.array(list(self.channel_flows), dtype=np.int64).reshape(-1, 2)
        return chs[:, 0] * self.n + chs[:, 1]

    def run(self, max_cycles: Optional[int] = None) -> CycleStats:
        """Run to completion of all trees under the :class:`EngineRun`
        contract (stall, guard and stats semantics shared by every
        engine)."""
        run = EngineRun(self, max_cycles)
        while not run.finished:
            run.tick(self.step())
        return run.stats()


def simulate_allreduce(
    g: Graph,
    trees: Sequence[SpanningTree],
    flits_per_tree: Sequence[int],
    link_capacity: int = 1,
    max_cycles: Optional[int] = None,
    buffer_size: Optional[int] = None,
    engine: str = "reference",
    faults: Optional[FaultSchedule] = None,
    telemetry=None,
) -> CycleStats:
    """One-shot cycle simulation with a selectable engine.

    ``engine="reference"`` runs the mechanism-faithful per-flit
    :class:`CycleSimulator`; ``engine="fast"`` runs the NumPy-vectorized
    :class:`~repro.simulator.fastcycle.FastCycleSimulator`;
    ``engine="leap"`` runs the cycle-leaping
    :class:`~repro.simulator.leap.LeapCycleSimulator` (O(depth + #events)
    wall clock, message-size independent).  The three are cycle-exact
    equivalents, so the choice only affects wall-clock time.  Many runs
    over one plan belong in
    :meth:`~repro.simulator.batched.BatchedCycleSimulator.run_batch`
    instead.

    ``faults`` injects a dynamic link-failure schedule, honored
    identically by every engine; a run severed for good raises
    :class:`SimulationStalled` at the exact cycle progress stopped.

    ``telemetry`` attaches a :class:`~repro.telemetry.Collector`; the run
    emits counters and sampled link/queue probes into it (byte-identical
    across engines) and finalizes the stream — including on a stall, so
    a severed run still yields a complete JSONL log before the exception
    propagates.
    """
    from repro.simulator.engine import make_engine

    sim = make_engine(
        engine,
        g,
        trees,
        flits_per_tree,
        link_capacity,
        buffer_size,
        faults,
        telemetry=telemetry,
    )
    try:
        stats = sim.run(max_cycles)
    except SimulationStalled as stall:
        if telemetry is not None:
            telemetry.finish(stall.cycle, completed=False)
        raise
    if telemetry is not None:
        telemetry.finish(stats.cycles, completed=True)
    return stats
