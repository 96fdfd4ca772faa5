"""Spans around the library's public layer functions, recorded from here.

:class:`Tracer` wraps each layer entry point in a function that records a
span — name, start and end (``perf_counter_ns``), parent span, job id and
the benchmark phase — plus a few counts read off the call's arguments and
result. Wrapping rebinds every module attribute of the loaded ``repro``
modules that holds the original function (so ``from x import f`` bindings
are covered) and the class attribute for methods; :meth:`Tracer.uninstall`
puts the originals back. No file under ``src/`` is touched.

Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# span name -> the layer it is attributed to in the share.* metrics
SHARE_OF = {
    "job": "job",
    "plan.build": "plan",
    "plancache.get_plan": "plancache",
    "replan.cached": "replan",
    "replan.surgery": "replan",
    "trees.greedy": "greedy",
    "partition": "partition",
    "engine.build": "engine_build",
    "step.fused": "step",
    "step.python": "step_python",
    "adaptive.window": "controller",
    "leap.run": "leap",
    "batched.run": "batched",
    "replan.loop": "replan_loop",
    "tenancy.place": "tenancy_place",
    "tenancy.fabric": "tenancy_fabric",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "phase", "info")

    def __init__(self, name, start, parent, job, phase):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.phase = phase
        self.info: Dict[str, Any] = {}

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.enabled = False
        self.job: Optional[int] = None
        self.phase = "setup"

    # ----------------------------------------------------------- recording

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter_ns(), parent, self.job, self.phase)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None,
             prepare: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span. ``prepare(args, kwargs)`` may add keyword
        arguments to a traced call; ``note(span, args, kwargs, result, exc)``
        fills the span's counts, and returning a string renames the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if prepare is not None:
                prepare(args, kwargs)
            span = self.open(name)
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                self.close(span)
                if note is not None:
                    renamed = note(span, args, kwargs, out, exc)
                    if renamed:
                        span.name = renamed

        return traced

    # ------------------------------------------------------------ patching

    def patch_function(self, module: str, attr: str, name: str, note=None,
                       prepare=None) -> None:
        """Wrap ``module.attr`` everywhere it is bound."""
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(name, original, note, prepare)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls: type, attr: str, name: str, note=None) -> None:
        """Wrap ``cls.attr`` (subclasses that override it are not affected)."""
        original = cls.__dict__[attr]
        wrapper = self.wrap(name, original, note)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics read."""
        import repro.analysis.adaptive  # noqa: F401  (bindings to rewrap)
        import repro.analysis.montecarlo  # noqa: F401
        import repro.core.faults  # noqa: F401
        import repro.tenancy  # noqa: F401
        from repro.simulator import adaptive as adaptive_mod
        from repro.simulator import batched, fastcycle, leap
        from repro.tenancy import fabric

        self.patch_function("repro.core.plan", "build_plan", "plan.build",
                            note=_note_build_plan, prepare=_give_stage_timer)
        self.patch_function("repro.core.plancache", "get_plan", "plancache.get_plan")
        self.patch_function("repro.core.plancache", "cached_replan", "replan.cached")
        for fn in ("demoted_plan", "repaired_plan", "degraded_plan"):
            self.patch_function("repro.core.faults", fn, "replan.surgery")
        self.patch_function("repro.trees.greedy", "greedy_tree", "trees.greedy")
        self.patch_function("repro.core.bandwidth", "optimal_partition", "partition")
        self.patch_function("repro.simulator.engine", "make_engine", "engine.build")
        self.patch_function("repro.simulator.recovery", "run_replan_loop",
                            "replan.loop", note=_note_replan_loop)
        # LeapCycleSimulator overrides run, so this sees fast engines only
        self.patch_method(fastcycle.FastCycleSimulator, "run", "step.fused",
                          note=_note_fast_run)
        self.patch_method(leap.LeapCycleSimulator, "run", "leap.run",
                          note=_note_leap_run)
        self.patch_method(batched.BatchedCycleSimulator, "run_batch", "batched.run",
                          note=_note_run_batch)
        self.patch_method(adaptive_mod.CongestionController, "on_sample",
                          "adaptive.window")
        self.patch_function("repro.tenancy.placement", "place_jobs", "tenancy.place")
        self.patch_method(fabric.FabricSimulator, "run", "tenancy.fabric",
                          note=_note_fabric_run)

    # ------------------------------------------------------------- reading

    def self_ns(self) -> List[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.ns
        return own

    def dump(self, path, extra: Dict[str, Any]) -> None:
        own = self.self_ns()
        by_name: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        for s, o in zip(self.spans, own):
            row = by_name[s.name]
            row[0] += 1
            row[1] += s.ns
            row[2] += o
        doc = dict(extra)
        doc["columns"] = ["name", "start_ns", "end_ns", "parent", "job", "phase", "info"]
        doc["spans"] = [
            [s.name, s.start, s.end, s.parent, s.job, s.phase, s.info] for s in self.spans
        ]
        doc["by_name"] = {
            k: {"calls": v[0], "total_ms": v[1] / 1e6, "self_ms": v[2] / 1e6}
            for k, v in sorted(by_name.items())
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, default=str))


# ------------------------------------------------------------------ notes


def _give_stage_timer(args, kwargs):
    """A ``build_plan`` call without a StageTimer gets one, so its graph /
    trees / fill stages land on the span."""
    from repro.utils.profiling import StageTimer

    if len(args) < 6 and kwargs.get("timer") is None:
        kwargs["timer"] = StageTimer()


def _note_build_plan(span, args, kwargs, out, exc):
    timer = kwargs.get("timer")
    if timer is not None:
        span.info.update(timer.as_dict_ns())


def _note_fast_run(span, args, kwargs, out, exc):
    sim = args[0]
    span.info["stepped"] = int(sim.cycle)
    if out is not None:
        span.info["flits"] = int(out.flits_moved)
    if sim.kernel_impl == "python":
        return "step.python"
    return None


def _note_leap_run(span, args, kwargs, out, exc):
    sim = args[0]
    span.info["stepped"] = int(sim.stepped_cycles)
    span.info["cycles"] = int(sim.cycle)
    span.info["leaps"] = len(sim.leap_log)
    if out is not None:
        span.info["flits"] = int(out.flits_moved)


def _note_run_batch(span, args, kwargs, out, exc):
    if out is None:
        return
    span.info["lane_cycles"] = sum(
        o.stats.cycles if o.stats is not None else int(o.stall_cycle or 0) for o in out
    )


def _note_replan_loop(span, args, kwargs, out, exc):
    if out is None:
        return
    span.info["fault_episodes"] = sum(1 for e in out.episodes if e.kind == "fault")
    span.info["congestion_episodes"] = sum(
        1 for e in out.episodes if e.kind == "congestion"
    )
    span.info["redone"] = int(out.flits_redone)
    span.info["flits_total"] = int(out.flits_total)


def _note_fabric_run(span, args, kwargs, out, exc):
    if out is None:
        return
    span.info["cycles"] = int(out.cycles)
    span.info["blocked"] = sum(o.blocked_cycles for o in out.outcomes)
    span.info["local"] = sum(o.local_cycles for o in out.outcomes)
    span.info["flits"] = sum(o.flits_moved for o in out.outcomes)
