"""Host-speed index: a fixed reference kernel timed beside the jobs.

On a shared host the whole machine drifts between faster and slower
states for seconds to minutes; runs of one workload minutes apart have
read up to 2x apart. The reference kernel mixes the same kind of work the
library does (small NumPy array operations driven by a Python loop) but
calls no ``repro`` code, so a change to the library cannot move it.
Timed right after a job, against :data:`NOMINAL_MS`, it says how fast the
host was while the job ran; the benchmark divides the job's wall time by
that slowdown.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's fastest time on the 2-core x86_64 host (Python 3.11,
#: numpy 2.4) the benchmark was written on.
NOMINAL_MS = 1.3

_SEED = np.arange(512, dtype=np.int64) * 7919 % 1021


def reference_kernel() -> int:
    a = _SEED.copy()
    acc = 0
    tally = {}
    for i in range(40):
        order = np.argsort(a, kind="stable")
        counts = np.bincount(a[order[:256]] % 61, minlength=61)
        acc += int(np.minimum(a, counts.max() * 17).sum()) & 0xFF
        tally[i % 13] = tally.get(i % 13, 0) + acc
        a = (a * 5 + 3) % 1021
    return acc + len(tally)


def slowdown(calls: int = 3) -> float:
    """How much slower than nominal the host runs right now: the fastest of
    ``calls`` timed kernel calls ÷ :data:`NOMINAL_MS`."""
    fastest = None
    for _ in range(calls):
        t0 = time.perf_counter_ns()
        reference_kernel()
        dt = time.perf_counter_ns() - t0
        fastest = dt if fastest is None else min(fastest, dt)
    return fastest / 1e6 / NOMINAL_MS
