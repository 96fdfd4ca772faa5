"""Shared hypothesis strategies and fixtures for the test suite.

Centralizes the plan/topology/workload boilerplate that used to be copied
inline across ``tests/test_differential.py``,
``tests/test_properties_crosscutting.py`` and friends:

- :data:`PLANS` / :func:`plan_keys` — every valid (q, scheme) pair at
  small radix, built once per session (schemes are parity-restricted:
  ``low-depth`` needs odd q, ``low-depth-even`` even q);
- :func:`message_sizes`, :func:`seeds`, :func:`seeded_rngs`,
  :func:`reduce_ops`, :func:`buffer_sizes`, :func:`link_capacities` —
  workload knobs;
- :data:`TOPOLOGIES` / :func:`topology_names` / :func:`random_embedding`
  — small named topologies plus seeded random spanning-tree embeddings
  for cross-cutting invariants;
- :data:`CYCLE_ENGINES` / :func:`cycle_engines` — every registered cycle
  engine, for differential suites that must cover all of them;
- :data:`RUN_ENGINES` / :func:`run_engine` — those engines plus
  ``"batched"``, a one-lane ``BatchedCycleSimulator.run_batch``, for
  suites that pin every stepping implementation to one run's result;
- :data:`OBSERVERS` / :func:`observer` — run an engine unobserved
  (``"auto"``) or with a per-cycle Python collector (``"python"``), for
  suites that pin that observation changes no observable;
- :func:`observables` — every frontier a single-run engine exposes, for
  suites that compare two engines' states;
- :func:`batch_specs` / :func:`materialize_lanes` — random heterogeneous
  lane batches for the batched engine's differential suite;
- :func:`engine_layouts` / :func:`pointer_bits` — the vectorized engines'
  index layouts over plans and random embeddings, and random round-robin
  pointer bits with a trailing lane axis, for the arbitration closed
  forms' oracle suites.

Everything is deterministic: strategies only emit seeds or seeded
generators, never global-randomness draws, so failing examples shrink and
replay bit-for-bit.
"""

from functools import lru_cache

import numpy as np
from hypothesis import strategies as st

from repro.core import build_plan
from repro.topology import (
    hypercube_graph,
    polarfly_graph,
    random_regular_graph,
    torus_graph,
)
from repro.trees import random_spanning_trees

__all__ = [
    "PLANS",
    "PLAN_KEYS",
    "get_plan",
    "plan_keys",
    "message_sizes",
    "seeds",
    "seeded_rngs",
    "reduce_ops",
    "buffer_sizes",
    "link_capacities",
    "TOPOLOGIES",
    "topology_names",
    "random_embedding",
    "CYCLE_ENGINES",
    "RUN_ENGINES",
    "run_engine",
    "OBSERVERS",
    "observer",
    "observables",
    "cycle_engines",
    "fault_specs",
    "materialize_faults",
    "plan_used_links",
    "batch_specs",
    "materialize_lanes",
    "arbitration_policies",
    "placement_modes",
    "tenant_mixes",
    "materialize_jobs",
    "engine_layouts",
    "pointer_bits",
]

#: every registered cycle-engine name, reference first (kept in sync with
#: repro.simulator.engine.ENGINES by tests/test_leap.py)
CYCLE_ENGINES = ("reference", "fast", "leap")

#: the names :func:`run_engine` takes: the cycle engines plus the batched
#: lane evaluator
RUN_ENGINES = CYCLE_ENGINES + ("batched",)


def run_engine(engine, g, trees, flits_per_tree, link_capacity=1,
               buffer_size=None, faults=None, max_cycles=None):
    """Run one Allreduce to its ``CycleStats`` on ``engine``.

    ``"batched"`` runs it as the only lane of a
    ``BatchedCycleSimulator.run_batch``; the lane's ``result()`` returns
    the stats or raises what a serial run raises (``SimulationStalled``,
    ``CycleLimitExceeded``).  The other names go through ``make_engine``.
    """
    from repro.simulator import BatchedCycleSimulator, LaneSpec, make_engine

    if engine == "batched":
        lane = LaneSpec(flits_per_tree, link_capacity, buffer_size, faults)
        (out,) = BatchedCycleSimulator(g, trees, lanes=[lane]).run_batch(max_cycles)
        return out.result()
    return make_engine(
        engine, g, trees, flits_per_tree, link_capacity, buffer_size, faults=faults
    ).run(max_cycles)


#: how a run is observed: ``"auto"`` runs unobserved (the engines skip
#: every telemetry hook), ``"python"`` attaches a
#: :class:`~repro.telemetry.Collector` that the engine calls back from
#: Python on every stepped cycle and leap, the way adaptive runs do. Each
#: engine has one stepping path, so both modes give identical observables.
OBSERVERS = ("auto", "python")


def observer(mode: str):
    """A fresh collector for ``mode == "python"``; ``None`` otherwise."""
    if mode == "python":
        from repro.telemetry import Collector

        return Collector(sample_every=8)
    return None


def observables(sim):
    """A single-run engine's state as it is observable: cycle, flits and
    channel totals, the delivered / reduced frontiers, queues, per-phase
    totals and per-tree completion."""
    return (
        sim.cycle,
        sim.flits_moved,
        tuple(sim.channel_flit_counts()),
        tuple(sim.delivered_floor()),
        tuple(sim.reduced_at_root()),
        tuple(sim.queue_occupancy()),
        tuple(map(tuple, sim.phase_flit_totals())),
        tuple(sim.done_mask()),
    )


def cycle_engines(subset=None):
    """Strategy over cycle-engine names."""
    return st.sampled_from(CYCLE_ENGINES if subset is None else tuple(subset))


def _valid(q: int, scheme: str) -> bool:
    if scheme == "low-depth":
        return q % 2 == 1
    if scheme == "low-depth-even":
        return q % 2 == 0
    return True


class _LazyPlans:
    """Mapping-ish view over every valid (q, scheme) key that builds each
    plan on first access (building all plans eagerly at import would slow
    collection of every test module that imports this package)."""

    def __init__(self, qs=(3, 4, 5)):
        self._keys = tuple(
            sorted(
                (q, scheme)
                for q in qs
                for scheme in ("low-depth", "low-depth-even", "edge-disjoint", "single")
                if _valid(q, scheme)
            )
        )

    def keys(self):
        return self._keys

    def __iter__(self):
        return iter(self._keys)

    def __contains__(self, key):
        return key in self._keys

    def __getitem__(self, key):
        if key not in self._keys:
            raise KeyError(key)
        return get_plan(*key)


@lru_cache(maxsize=None)
def get_plan(q: int, scheme: str):
    """Session-cached :func:`repro.core.build_plan`."""
    return build_plan(q, scheme)


PLANS = _LazyPlans()
PLAN_KEYS = PLANS.keys()


def plan_keys(qs=None):
    """Strategy over valid (q, scheme) keys; pass ``qs`` to narrow radix."""
    keys = PLAN_KEYS if qs is None else tuple(k for k in PLAN_KEYS if k[0] in qs)
    return st.sampled_from(keys)


def message_sizes(min_value: int = 1, max_value: int = 48):
    """Allreduce vector lengths (in flits/elements)."""
    return st.integers(min_value=min_value, max_value=max_value)


def seeds(max_value: int = 1000):
    return st.integers(min_value=0, max_value=max_value)


def seeded_rngs(max_seed: int = 1000):
    """Deterministic ``np.random.Generator`` instances (shrinks via the
    underlying seed)."""
    return seeds(max_seed).map(np.random.default_rng)


def reduce_ops():
    return st.sampled_from(["sum", "max"])


def buffer_sizes(max_value: int = 6):
    """Credit flow control off (``None``) or a small per-flow slot count."""
    return st.one_of(st.none(), st.integers(min_value=1, max_value=max_value))


def link_capacities(max_value: int = 4):
    return st.integers(min_value=1, max_value=max_value)


TOPOLOGIES = {
    "pf3": lambda: polarfly_graph(3).graph,
    "pf5": lambda: polarfly_graph(5).graph,
    "hc4": lambda: hypercube_graph(4),
    "torus33": lambda: torus_graph([3, 3]),
    "rr": lambda: random_regular_graph(14, 4, seed=2),
}


def topology_names(subset=None):
    names = sorted(TOPOLOGIES) if subset is None else sorted(subset)
    return st.sampled_from(names)


@lru_cache(maxsize=None)
def _topology(name: str):
    return TOPOLOGIES[name]()


def random_embedding(name: str, k: int, seed: int):
    """A named topology plus ``k`` seeded random spanning trees."""
    g = _topology(name)
    return g, random_spanning_trees(g, k, seed=seed)


# --------------------------------------------------------- fault injection

def fault_specs(max_events: int = 2, max_down: int = 40, max_window: int = 60,
                transient_only: bool = False):
    """Strategy over abstract fault specs: sorted tuples of
    ``(link_rank, down, duration-or-None)``, independent of any concrete
    topology. Distinct ranks per spec keep per-edge windows trivially
    non-overlapping; :func:`materialize_faults` binds ranks to a plan's
    used links. ``duration=None`` (a permanent failure) is excluded with
    ``transient_only=True`` — the run then always completes."""
    duration = st.integers(min_value=1, max_value=max_window)
    if not transient_only:
        duration = st.one_of(st.none(), duration)
    event = st.tuples(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=1, max_value=max_down),
        duration,
    )
    return st.lists(
        event, min_size=1, max_size=max_events, unique_by=lambda e: e[0]
    ).map(lambda evs: tuple(sorted(evs)))


def plan_used_links(plan):
    """Sorted physical links the embedding actually routes over."""
    used = set()
    for t in plan.trees:
        used |= t.edges
    return sorted(used)


def materialize_faults(plan, spec):
    """Bind an abstract fault spec to a plan, returning a
    ``FaultSchedule`` over the plan's used links (ranks wrap around)."""
    from repro.simulator import FaultSchedule

    links = plan_used_links(plan)
    seen = set()
    events = []
    for rank, down, dur in spec:
        edge = links[rank % len(links)]
        if edge in seen:  # distinct ranks can still alias after the wrap
            continue
        seen.add(edge)
        events.append((edge, down, None if dur is None else down + dur))
    return FaultSchedule(events)


# ------------------------------------------------------------ lane batches

def batch_specs(max_lanes: int = 8, max_m: int = 12, max_capacity: int = 3,
                max_buffer: int = 4, with_faults: bool = True):
    """Strategy over abstract batched-engine lane batches.

    Each batch is a non-empty tuple of per-lane specs
    ``(m, link_capacity, buffer_size-or-None, fault_spec-or-None)`` —
    heterogeneous message sizes, capacities and credit buffers, with an
    optional abstract fault spec per lane (see :func:`fault_specs`).
    Everything is plan-independent; :func:`materialize_lanes` binds a
    batch to a concrete plan as ``LaneSpec`` objects.
    """
    fault = (
        st.one_of(st.none(), fault_specs(max_events=2, max_down=20))
        if with_faults
        else st.none()
    )
    lane = st.tuples(
        st.integers(min_value=0, max_value=max_m),
        st.integers(min_value=1, max_value=max_capacity),
        st.one_of(st.none(), st.integers(min_value=1, max_value=max_buffer)),
        fault,
    )
    return st.lists(lane, min_size=1, max_size=max_lanes).map(tuple)


def materialize_lanes(plan, batch):
    """Bind an abstract batch spec to a plan: a list of concrete
    ``LaneSpec`` objects (uniform per-tree split of each lane's ``m``)."""
    from repro.simulator import LaneSpec

    lanes = []
    for m, capacity, buffer_size, fault_spec in batch:
        lanes.append(
            LaneSpec(
                (m,) * plan.num_trees,
                link_capacity=capacity,
                buffer_size=buffer_size,
                faults=(
                    materialize_faults(plan, fault_spec)
                    if fault_spec is not None
                    else None
                ),
            )
        )
    return lanes


# ------------------------------------------------------------ tenant mixes

def arbitration_policies(subset=None):
    """Strategy over fabric arbitration policies."""
    from repro.tenancy import POLICIES

    return st.sampled_from(POLICIES if subset is None else tuple(subset))


def placement_modes():
    """Strategy over placement modes (shared / partitioned)."""
    from repro.tenancy import PLACEMENT_MODES

    return st.sampled_from(PLACEMENT_MODES)


def tenant_mixes(max_tenants: int = 4, max_m: int = 16, max_arrival: int = 24,
                 max_tree_count: int = 3):
    """Strategy over abstract tenant job mixes: non-empty tuples of
    ``(arrival, m, tree_count)`` — plan-independent (tree counts may
    exceed a small plan's pool; :func:`materialize_jobs` clamps them)."""
    job = st.tuples(
        st.integers(min_value=0, max_value=max_arrival),
        st.integers(min_value=1, max_value=max_m),
        st.integers(min_value=1, max_value=max_tree_count),
    )
    return st.lists(job, min_size=1, max_size=max_tenants).map(tuple)


def materialize_jobs(mix, num_trees: int, mode: str = "shared"):
    """Bind an abstract mix to a plan's tree pool: tenant ids are assigned
    in arrival order, tree counts clamp to the pool (and, in partitioned
    mode, to what remains — surplus jobs are dropped rather than
    rejected, so every drawn mix is admissible)."""
    from repro.tenancy import TenantJob

    jobs = []
    remaining = num_trees
    for arrival, m, tc in sorted(mix):
        if mode == "partitioned":
            if remaining == 0:
                break
            tc = min(tc, remaining)
            remaining -= tc
        else:
            tc = min(tc, num_trees)
        jobs.append(
            TenantJob(tenant=len(jobs), arrival=arrival, m=m, tree_count=tc)
        )
    return tuple(jobs)


# ------------------------------------------------------- engine layouts

@lru_cache(maxsize=None)
def _layout(source, key):
    from repro.simulator.engine_layout import EngineLayout

    if source == "plan":
        plan = get_plan(*key)
        return EngineLayout.build(plan.topology, plan.trees)
    g, trees = random_embedding(*key)
    return EngineLayout.build(g, trees)


def engine_layouts(min_trees: int = 1, max_trees: int = 6, schemes=None):
    """Strategy over :class:`~repro.simulator.engine_layout.EngineLayout`
    instances: every small plan (of ``schemes``, default all; at most two
    flows per channel) and random embeddings of ``min_trees`` to
    ``max_trees`` spanning trees of PolarFly q = 3, 5 (a directed channel
    carries at most one flow per tree).  Layouts are cached per key and
    must not be modified."""
    keys = tuple(k for k in PLAN_KEYS if schemes is None or k[1] in schemes)
    plans = st.sampled_from(keys).map(lambda key: _layout("plan", key))
    embedded = st.tuples(
        topology_names(["pf3", "pf5"]),
        st.integers(min_value=min_trees, max_value=max_trees),
        seeds(200),
    ).map(lambda key: _layout("embedding", key))
    return st.one_of(plans, embedded)


def pointer_bits(lay, rng, lanes=None):
    """Random round-robin pointer bits over ``lay``: one set bit per
    channel (and per lane), (F,) or (F, lanes)."""
    if lanes is None:
        slot = (rng.random(lay.num_channels) * lay.ch_k).astype(np.int64)
        return lay.flow_slot == slot[lay.flow_ch]
    draw = rng.random((lay.num_channels, lanes)) * lay.ch_k[:, None]
    return lay.flow_slot[:, None] == draw.astype(np.int64)[lay.flow_ch]
