"""The collector: engine-side telemetry hooks and counter aggregation.

A :class:`Collector` is handed to ``simulate_allreduce(telemetry=...)``
(or :func:`repro.simulator.recovery.run_with_recovery`) and receives a
small set of hook calls from whichever cycle engine runs:

- ``on_run_start(engine)`` — a leg begins (recovery re-plans start new
  legs); emits the run header (first leg only) and a ``leg`` record with
  the leg's channel list, so sample vectors are self-describing;
- ``on_cycle(engine, cycle, moved)`` — after every *stepped* cycle;
  counts stall cycles and, every ``sample_every`` cycles, emits a
  :class:`Probe` sample (per-channel window flit counts + per-router
  queue occupancy);
- ``on_leap(engine, start_cycle, steady, k)`` — the leap engine is about
  to jump ``k`` verified periods; samples due inside the jumped region
  are *reconstructed* from the verified period (cum counters advance by
  the per-period channel delta plus the in-period prefix; queues advance
  linearly at the argmin-stable per-phase drift the verifier bounded), so
  the sample stream is bit-identical to the per-cycle engines';
- ``on_idle(engine, start, end)`` — the leap engine fast-forwarded a dead
  wait; the state is a fixpoint, so due samples repeat the frozen state;
- ``on_run_end(engine, cycle, completed)`` — the leg finished (or
  stalled); emits the leg's :class:`CounterSet` as a ``counters`` record;
- ``on_episode(episode)`` — the recovery runtime handled a failure;
- ``finish(total_cycles, completed)`` — the collective is over; emits the
  optional ``perf`` record and the ``end`` record.

The five engine hooks (``on_run_start`` through ``on_run_end``) are the
whole observer protocol of ``run()``; the recorder behind
:func:`repro.simulator.trace.trace_allreduce` implements the same five.
Window counts come from the engine's ``channel_flit_array()`` on every
engine, and a leap's per-period channel flits from the verified
period's ``phase_chd``.

Everything engine-identifying (leap jump counts, stepped/skipped cycle
tallies, wall-clock) is quarantined in the opt-in ``perf`` record
(``include_perf=True``) so the *default* JSONL output of the three
engines is byte-identical for the same seeded run — the telemetry
differential test pins exactly that.

With ``telemetry=None`` the engines skip every hook behind one ``is not
None`` test per cycle: instrumentation costs nothing when off.

A collector can additionally carry one streaming *tap*
(:meth:`Collector.set_tap`): an observer notified of every leg start
(``tap.on_leg(engine, leg)``) and every emitted sample
(``tap.on_sample(probe)``) the moment they happen. Taps observe the
already-recorded stream — they run *after* the record is appended and
never mutate it, so an attached-but-passive tap leaves the JSONL output
byte-identical to an untapped run. Exceptions raised by a tap propagate
into the engine's step loop; the congestion controller of
:mod:`repro.simulator.adaptive` uses exactly that as its control-flow
channel for mid-run re-planning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.utils.errors import whole

__all__ = ["Collector", "CounterSet", "Probe"]


@dataclass(frozen=True)
class Probe:
    """One sampled observation of the fabric.

    ``link_flits`` is the number of flits each directed channel moved in
    the *window* ending at this sample (aligned with the leg record's
    ``channels`` list); ``queue`` is the receiver-side queue occupancy per
    router — flits sent toward the router (landed or in flight) that its
    consumer stage has not yet drained. Both are exact integers, which is
    what keeps the JSONL byte-identical across engines.
    """

    cycle: int
    abs_cycle: int
    link_flits: Tuple[int, ...]
    queue: Tuple[int, ...]

    def to_record(self, leg: int) -> Dict[str, Any]:
        return _sample_record(
            leg,
            self.cycle,
            self.abs_cycle,
            list(self.link_flits),
            list(self.queue),
        )


def _sample_record(
    leg: int, cycle: int, abs_cycle: int, link_flits: List[int], queue: List[int]
) -> Dict[str, Any]:
    return {
        "t": "sample",
        "leg": leg,
        "cycle": cycle,
        "abs": abs_cycle,
        "link_flits": link_flits,
        "queue": queue,
    }


@dataclass(frozen=True)
class CounterSet:
    """End-of-leg counters, identical across engines for the same run.

    ``leap_jumps`` is the one engine-specific member: it is reported to
    *callers* (the leap engine took jumps, the others stepped) but is
    deliberately excluded from the JSONL ``counters`` record — engine
    identity lives in the opt-in ``perf`` record instead, so default
    telemetry output stays byte-identical across the engine zoo.
    """

    reduce_hops: Tuple[int, ...]  # per-tree flits moved child -> parent
    broadcast_hops: Tuple[int, ...]  # per-tree flits moved parent -> child
    delivered: Tuple[int, ...]  # per-tree fully-delivered floor
    reduced_at_root: Tuple[int, ...]  # per-tree reduced-at-root frontier
    dropped: Tuple[int, ...]  # reduced but not delivered (lost on stall)
    stall_cycles: int  # stepped cycles that moved zero flits
    fault_events: int  # schedule events whose down-cycle has passed
    flits_moved: int  # total directed flit-hops
    leap_jumps: int = 0  # jumps taken (leap engine only; not serialized)

    @classmethod
    def from_engine(cls, engine: Any, cycle: int, stall_cycles: int) -> "CounterSet":
        red, bc = engine.phase_flit_totals()
        delivered = engine.delivered_floor()
        reduced = engine.reduced_at_root()
        faults = engine.faults
        fault_events = (
            sum(1 for ev in faults.events if ev.down <= cycle)
            if faults is not None
            else 0
        )
        return cls(
            reduce_hops=tuple(int(x) for x in red),
            broadcast_hops=tuple(int(x) for x in bc),
            delivered=tuple(int(x) for x in delivered),
            reduced_at_root=tuple(int(x) for x in reduced),
            dropped=tuple(int(r) - int(d) for r, d in zip(reduced, delivered)),
            stall_cycles=int(stall_cycles),
            fault_events=int(fault_events),
            flits_moved=int(engine.flits_moved),
            leap_jumps=len(getattr(engine, "leap_log", ())),
        )

    def to_record(self, leg: int, cycle: int, completed: bool) -> Dict[str, Any]:
        return {
            "t": "counters",
            "leg": leg,
            "cycle": cycle,
            "completed": completed,
            "flits_moved": self.flits_moved,
            "stall_cycles": self.stall_cycles,
            "fault_events": self.fault_events,
            "reduce_hops": list(self.reduce_hops),
            "broadcast_hops": list(self.broadcast_hops),
            "delivered": list(self.delivered),
            "reduced_at_root": list(self.reduced_at_root),
            "dropped": list(self.dropped),
        }

    @classmethod
    def from_record(cls, rec: Dict[str, Any]) -> "CounterSet":
        return cls(
            reduce_hops=tuple(rec["reduce_hops"]),
            broadcast_hops=tuple(rec["broadcast_hops"]),
            delivered=tuple(rec["delivered"]),
            reduced_at_root=tuple(rec["reduced_at_root"]),
            dropped=tuple(rec["dropped"]),
            stall_cycles=rec["stall_cycles"],
            fault_events=rec["fault_events"],
            flits_moved=rec["flits_moved"],
        )


class Collector:
    """Accumulates telemetry records from one collective (possibly
    multi-leg under recovery). See the module docstring for the hook
    protocol; :mod:`repro.telemetry.writer` defines the record schema.
    """

    def __init__(self, sample_every: int = 64, include_perf: bool = False):
        self.sample_every = whole("sample_every", sample_every)
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1 cycle")
        self.include_perf = bool(include_perf)
        #: absolute cycles consumed by previous legs (recovery sets this)
        self.offset = 0
        self.records: List[Dict[str, Any]] = []
        self.counters: List[CounterSet] = []  # one per finished leg
        self.construction_ns: Optional[Dict[str, int]] = None
        self._leg = -1
        self._next_sample = 0
        self._last_cum: Optional[np.ndarray] = None
        self._stall_cycles = 0
        self._episodes = 0
        self._engine_meta: List[Dict[str, Any]] = []
        self._finished = False
        #: optional streaming observer (see :meth:`set_tap`)
        self.tap: Optional[Any] = None

    # ------------------------------------------------------------- plumbing

    def set_construction(self, timer: Any) -> None:
        """Attach a :class:`repro.utils.profiling.StageTimer` holding the
        plan/engine construction stages; surfaces in the ``perf`` record
        so construction cost appears alongside simulation cost."""
        self.construction_ns = dict(timer.as_dict_ns())

    def set_tap(self, tap: Optional[Any]) -> None:
        """Attach (or detach, with ``None``) the streaming tap. The tap
        must provide ``on_leg(engine, leg)`` and ``on_sample(probe)``;
        both are called after the corresponding record is already in
        ``self.records``, so taps can only observe, never rewrite."""
        self.tap = tap

    def _window(self, cum: np.ndarray) -> List[int]:
        """Flits per channel since the previous sample; ``cum`` becomes
        the new reference."""
        assert self._last_cum is not None
        window = cum - self._last_cum
        self._last_cum = cum
        return window.tolist()

    def _emit_sample(self, cycle: int, link_flits: List[int], queue: List[int]) -> None:
        """Record one sample and hand it to the tap as a :class:`Probe`.
        The record keeps the lists it is given: a reconstructed window
        that repeats across samples is one list shared by their records."""
        abs_cycle = int(self.offset + cycle)
        self.records.append(
            _sample_record(self._leg, cycle, abs_cycle, link_flits, queue)
        )
        if self.tap is not None:
            self.tap.on_sample(
                Probe(
                    cycle=cycle,
                    abs_cycle=abs_cycle,
                    link_flits=tuple(link_flits),
                    queue=tuple(queue),
                )
            )

    # ----------------------------------------------------------- hook calls

    def on_run_start(self, engine: Any) -> None:
        if not self.records:
            self.records.append(
                {
                    "t": "header",
                    "v": 1,
                    "sample_every": self.sample_every,
                    "capacity": int(engine.capacity),
                    "buffer": (
                        None if engine.buffer_size is None else int(engine.buffer_size)
                    ),
                }
            )
        self._leg += 1
        channels = engine.channels()
        self.records.append(
            {
                "t": "leg",
                "leg": self._leg,
                "offset": int(self.offset),
                "n": int(engine.n),
                "trees": len(engine.trees),
                "m": [int(x) for x in engine.m],
                "roots": [int(t.root) for t in engine.trees],
                "channels": channels,  # (u, v) tuples: JSONL writes arrays
            }
        )
        self._next_sample = self.sample_every
        self._last_cum = np.zeros(len(channels), dtype=np.int64)
        self._stall_cycles = 0
        self._engine_meta.append(
            {
                "leg": self._leg,
                "engine": getattr(engine, "engine_name", type(engine).__name__),
            }
        )
        if self.tap is not None:
            self.tap.on_leg(engine, self._leg)

    def on_cycle(self, engine: Any, cycle: int, moved: int) -> None:
        if moved == 0:
            self._stall_cycles += 1
        if cycle == self._next_sample:
            self._emit_sample(
                self._next_sample,
                self._window(engine.channel_flit_array()),
                engine.queue_occupancy(),
            )
            self._next_sample += self.sample_every

    def on_leap(self, engine: Any, start_cycle: int, steady: Any, k: int) -> None:
        """Reconstruct samples inside a ``k``-period jump starting at
        ``start_cycle`` (engine state is still pre-leap). Cycle
        ``start + i*P + j + 1`` repeats verified phase ``j``: cumulative
        channel counters advance by ``i`` whole-period deltas plus the
        in-period prefix, and queues advance linearly at the per-phase
        drift the verifier bounded (argmin-stable rates, never boundary
        deltas)."""
        P = steady.period
        # phase-major rows, prefix-summed by row additions: numpy 2.4
        # accumulates along a short axis slowly on either layout (25k
        # channels, 2-core host: np.cumsum ~140 / ~370 us at P = 1 / 2,
        # this copy and loop ~7 / ~30 us; the loop stays ahead up to
        # P ~ 16 at the channel counts the ring budget allows there)
        prefix = steady.phase_chd.T.copy()  # (P, C), summed in place below
        zero_phases = int((prefix.sum(axis=1) == 0).sum())
        self._stall_cycles += k * zero_phases
        end = start_cycle + k * P
        if self._next_sample > end:
            return
        if steady.phase_q is None:  # pragma: no cover - guarded by design
            raise RuntimeError(
                "leap steady state carries no telemetry phases; attach the "
                "collector at engine construction, not mid-run"
            )
        E = self.sample_every
        due = np.arange(self._next_sample, end + 1, E)
        i, j = np.divmod(due - start_cycle - 1, P)
        base = engine.channel_flit_array()
        for p in range(1, P):
            prefix[p] += prefix[p - 1]
        per_period = prefix[-1]  # the channel flits of one whole period
        windows = [self._window(base + int(i[0]) * per_period + prefix[j[0]])]
        # due samples sit E cycles apart, so each later window depends only
        # on its predecessor's phase: at most P distinct windows, built once
        distinct: Dict[int, List[int]] = {}
        for jp in j[:-1].tolist():
            if jp not in distinct:
                di, jn = divmod(jp + E, P)
                w = di * per_period + prefix[jn] - prefix[jp]
                distinct[jp] = w.tolist()
            windows.append(distinct[jp])
        self._last_cum = base + int(i[-1]) * per_period + prefix[j[-1]]
        queues = steady.phase_q[j] + (i + 1)[:, None] * steady.phase_dq[j]
        for cycle, w, queue in zip(due.tolist(), windows, queues.tolist()):
            self._emit_sample(cycle, w, queue)
        self._next_sample = int(due[-1]) + E

    def on_idle(self, engine: Any, start_cycle: int, end_cycle: int) -> None:
        """A dead wait was fast-forwarded from ``start_cycle`` to
        ``end_cycle``: every skipped cycle moved nothing and the state is
        a fixpoint, so due samples repeat the frozen observation."""
        self._stall_cycles += end_cycle - start_cycle
        if self._next_sample > end_cycle:
            return
        window = self._window(engine.channel_flit_array())
        queue = engine.queue_occupancy()
        idle = [0] * len(window)
        while self._next_sample <= end_cycle:
            self._emit_sample(self._next_sample, window, queue)
            window = idle  # nothing moves after the first due sample
            self._next_sample += self.sample_every

    def on_run_end(self, engine: Any, cycle: int, completed: bool) -> None:
        counters = CounterSet.from_engine(engine, cycle, self._stall_cycles)
        self.counters.append(counters)
        self.records.append(counters.to_record(self._leg, int(cycle), completed))
        meta = self._engine_meta[-1]
        for attr in ("stepped_cycles", "idle_skipped"):
            val = getattr(engine, attr, None)
            meta[attr] = None if val is None else int(val)
        meta["leaps"] = counters.leap_jumps if hasattr(engine, "leap_log") else None

    def on_episode(self, episode: Any) -> None:
        self.records.append(
            {
                "t": "episode",
                "index": self._episodes,
                "kind": str(getattr(episode, "kind", "fault")),
                "fault_cycle": int(episode.fault_cycle),
                "detect_cycle": int(episode.detect_cycle),
                "failed_links": [[int(u), int(v)] for u, v in episode.failed_links],
                "policy": episode.policy,
                "trees_lost": [int(i) for i in episode.trees_lost],
                "trees_regrown": int(episode.trees_regrown),
                "flits_delivered": int(episode.flits_delivered),
                "flits_redone": int(episode.flits_redone),
                "bandwidth_before": float(episode.bandwidth_before),
            }
        )
        self._episodes += 1

    def finish(self, total_cycles: int, completed: bool = True) -> None:
        if self._finished:
            return
        self._finished = True
        if self.include_perf:
            self.records.append(
                {
                    "t": "perf",
                    "engines": list(self._engine_meta),
                    "construction_ns": self.construction_ns,
                    "construction_total_ns": (
                        sum(self.construction_ns.values())
                        if self.construction_ns
                        else None
                    ),
                }
            )
        self.records.append(
            {
                "t": "end",
                "cycles": int(total_cycles),
                "legs": self._leg + 1,
                "completed": completed,
            }
        )

    # ------------------------------------------------------------ rendering

    def to_jsonl(self) -> str:
        from repro.telemetry.writer import TelemetryWriter

        return TelemetryWriter(self.records).to_jsonl()

    def write(self, path: Any) -> None:
        from repro.telemetry.writer import TelemetryWriter

        TelemetryWriter(self.records).write(path)
