"""JSONL serialization and the round-tripping reader.

Schema (one canonical-JSON object per line; ``t`` discriminates):

========== ===========================================================
record     fields
========== ===========================================================
header     ``v`` (schema version, 1), ``sample_every``, ``capacity``,
           ``buffer`` (null = unbuffered)
leg        ``leg``, ``offset`` (absolute cycles before this leg),
           ``n``, ``trees``, ``m`` (per-tree flits), ``roots``,
           ``channels`` (directed ``[u, v]`` pairs; sample vectors
           align with this list)
sample     ``leg``, ``cycle`` (leg-relative), ``abs`` (offset+cycle),
           ``link_flits`` (per-channel flits in the window ending at
           this cycle), ``queue`` (per-router occupancy)
counters   ``leg``, ``cycle``, ``completed``, ``flits_moved``,
           ``stall_cycles``, ``fault_events``, per-tree
           ``reduce_hops`` / ``broadcast_hops`` / ``delivered`` /
           ``reduced_at_root`` / ``dropped``
episode    ``index``, ``kind`` (``"fault"`` | ``"congestion"``),
           ``fault_cycle``, ``detect_cycle``, ``failed_links``
           (down links for faults, demoted links for congestion),
           ``policy``, ``trees_lost``, ``trees_regrown``,
           ``flits_delivered``, ``flits_redone``, ``bandwidth_before``
perf       opt-in (``include_perf=True``): per-leg engine identity and
           step/leap/idle tallies, plus ``construction_ns`` stage map —
           the only record allowed to differ across engines
end        ``cycles`` (absolute total), ``legs``, ``completed``
========== ===========================================================

Serialization is canonical (sorted keys, no whitespace), so equal record
streams produce byte-equal files — the property the three-engine
telemetry differential test asserts. :func:`read_telemetry` /
:func:`loads_telemetry` parse a file back into :class:`TelemetryRun`,
whose per-leg sample matrices are numpy arrays and whose
:meth:`TelemetryRun.to_jsonl` reproduces the input losslessly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.telemetry.collector import CounterSet
from repro.utils.store import canonical_json

__all__ = [
    "SCHEMA_VERSION",
    "TelemetryWriter",
    "LegTelemetry",
    "TelemetryRun",
    "dumps_record",
    "loads_telemetry",
    "read_telemetry",
]

SCHEMA_VERSION = 1


# canonical JSON — equal dicts give equal bytes, which the differential
# guarantees build on
dumps_record = canonical_json


class TelemetryWriter:
    """Serializes a record stream to canonical JSONL."""

    def __init__(self, records: List[Dict[str, Any]]):
        self.records = list(records)

    def to_jsonl(self) -> str:
        if not self.records:
            return ""
        return "\n".join(dumps_record(r) for r in self.records) + "\n"

    def write(self, path: Union[str, "os.PathLike[str]"]) -> None:
        with open(os.fspath(path), "w") as f:
            f.write(self.to_jsonl())


@dataclass
class LegTelemetry:
    """One leg's samples and counters, as numpy arrays.

    ``cycles``/``abs_cycles`` are ``(S,)``; ``link_flits`` is ``(S, C)``
    aligned with ``channels``; ``queue`` is ``(S, n)``.
    """

    index: int
    offset: int
    n: int
    trees: int
    m: Tuple[int, ...]
    roots: Tuple[int, ...]
    channels: List[Tuple[int, int]]
    cycles: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    abs_cycles: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    link_flits: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0), dtype=np.int64)
    )
    queue: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.int64))
    counters: Optional[CounterSet] = None
    end_cycle: Optional[int] = None
    completed: Optional[bool] = None

    def utilization(self, sample_every: int, capacity: int) -> np.ndarray:
        """Per-sample per-channel utilization in [0, 1]: window flits over
        the window's transfer capacity."""
        denom = float(sample_every * capacity)
        return self.link_flits / denom


@dataclass
class TelemetryRun:
    """A parsed telemetry stream: header + per-leg arrays + episodes."""

    records: List[Dict[str, Any]]
    header: Dict[str, Any]
    legs: List[LegTelemetry]
    episodes: List[Dict[str, Any]]
    end: Optional[Dict[str, Any]]
    perf: Optional[Dict[str, Any]]

    @property
    def sample_every(self) -> int:
        return int(self.header["sample_every"])

    @property
    def capacity(self) -> int:
        return int(self.header["capacity"])

    def leg(self, i: int = 0) -> LegTelemetry:
        return self.legs[i]

    def utilization(self, leg: int = 0) -> np.ndarray:
        return self.legs[leg].utilization(self.sample_every, self.capacity)

    def mean_link_utilization(self, leg: int = 0) -> np.ndarray:
        """Mean utilization per channel across the leg's sample windows."""
        util = self.utilization(leg)
        if util.shape[0] == 0:
            return np.zeros(len(self.legs[leg].channels))
        return util.mean(axis=0)

    def hot_links(
        self, top: int = 5, leg: int = 0
    ) -> List[Tuple[Tuple[int, int], float, int]]:
        """The ``top`` busiest directed channels of a leg:
        ``(channel, mean utilization, total sampled flits)``, busiest
        first; ties broken by channel order for determinism."""
        lt = self.legs[leg]
        mean = self.mean_link_utilization(leg)
        totals = (
            lt.link_flits.sum(axis=0)
            if lt.link_flits.size
            else np.zeros(len(lt.channels), dtype=np.int64)
        )
        order = sorted(range(len(lt.channels)), key=lambda c: (-mean[c], c))
        return [
            (lt.channels[c], float(mean[c]), int(totals[c])) for c in order[:top]
        ]

    def queue_peaks(self, top: int = 5, leg: int = 0) -> List[Tuple[int, int]]:
        """The ``top`` routers by peak sampled queue occupancy:
        ``(router, peak)``, deepest first."""
        lt = self.legs[leg]
        if lt.queue.size == 0:
            return []
        peaks = lt.queue.max(axis=0)
        order = sorted(range(lt.n), key=lambda v: (-int(peaks[v]), v))
        return [(v, int(peaks[v])) for v in order[:top]]

    def to_jsonl(self) -> str:
        """Lossless re-serialization of the parsed stream."""
        return TelemetryWriter(self.records).to_jsonl()


def _parse(records: List[Dict[str, Any]]) -> TelemetryRun:
    header: Dict[str, Any] = {}
    legs: List[LegTelemetry] = []
    samples: Dict[int, List[Dict[str, Any]]] = {}
    episodes: List[Dict[str, Any]] = []
    end: Optional[Dict[str, Any]] = None
    perf: Optional[Dict[str, Any]] = None
    for rec in records:
        t = rec.get("t")
        if t == "header":
            header = rec
        elif t == "leg":
            legs.append(
                LegTelemetry(
                    index=rec["leg"],
                    offset=rec["offset"],
                    n=rec["n"],
                    trees=rec["trees"],
                    m=tuple(rec["m"]),
                    roots=tuple(rec["roots"]),
                    channels=[(u, v) for u, v in rec["channels"]],
                )
            )
            samples[rec["leg"]] = []
        elif t == "sample":
            samples[rec["leg"]].append(rec)
        elif t == "counters":
            lt = legs[rec["leg"]]
            lt.counters = CounterSet.from_record(rec)
            lt.end_cycle = rec["cycle"]
            lt.completed = rec["completed"]
        elif t == "episode":
            episodes.append(rec)
        elif t == "perf":
            perf = rec
        elif t == "end":
            end = rec
        else:
            raise ValueError(f"unknown telemetry record type {t!r}")
    for lt in legs:
        recs = samples.get(lt.index, [])
        C = len(lt.channels)
        if recs:
            lt.cycles = np.asarray([r["cycle"] for r in recs], dtype=np.int64)
            lt.abs_cycles = np.asarray([r["abs"] for r in recs], dtype=np.int64)
            lt.link_flits = np.asarray(
                [r["link_flits"] for r in recs], dtype=np.int64
            ).reshape(len(recs), C)
            lt.queue = np.asarray([r["queue"] for r in recs], dtype=np.int64).reshape(
                len(recs), lt.n
            )
        else:
            lt.link_flits = np.zeros((0, C), dtype=np.int64)
            lt.queue = np.zeros((0, lt.n), dtype=np.int64)
    if not header:
        raise ValueError("telemetry stream has no header record")
    return TelemetryRun(
        records=records,
        header=header,
        legs=legs,
        episodes=episodes,
        end=end,
        perf=perf,
    )


def loads_telemetry(text: str) -> TelemetryRun:
    """Parse a JSONL telemetry string into a :class:`TelemetryRun`."""
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    return _parse(records)


def read_telemetry(path: Union[str, "os.PathLike[str]"]) -> TelemetryRun:
    """Read and parse a telemetry JSONL file."""
    with open(os.fspath(path)) as f:
        return loads_telemetry(f.read())
