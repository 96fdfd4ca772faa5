"""In-network-computing simulator substrate.

Three fidelities, all exercising the Section 4.3/4.4 dataflow:

- :mod:`repro.simulator.functional` — numerically exact execution on NumPy
  vectors (proves the multi-tree schedule computes the right answer);
- :mod:`repro.simulator.cycle` — flit-level pipelined simulation with
  per-channel fair arbitration (validates the Algorithm 1 bandwidth model
  and the depth-proportional latency); :mod:`repro.simulator.fastcycle`
  is its NumPy-vectorized cycle-exact twin, selectable via
  ``simulate_allreduce(..., engine="fast")``, and
  :mod:`repro.simulator.leap` the cycle-leaping engine
  (``engine="leap"``) whose ``run()`` is O(depth + #events) in wall
  clock, independent of message size, while staying cycle-exact (it
  steps with the fast engine's fused per-cycle step; the reference
  engine never delegates, so it stays an independent oracle).  Those
  three are the single-run engines (:data:`ENGINES`);
  :mod:`repro.simulator.batched` is the lane evaluator that runs many
  fast-engine-identical runs of one plan in a single
  :meth:`BatchedCycleSimulator.run_batch` call;
- :mod:`repro.simulator.fluid` — closed-form max-min rate model for large
  configurations.

Dynamic link failures: :mod:`repro.simulator.faultsched` schedules them
(every cycle engine honors the same :class:`FaultSchedule` with identical
semantics) and :mod:`repro.simulator.recovery` re-plans mid-flight when a
failure permanently severs progress; :mod:`repro.simulator.adaptive`
rides the same episode loop to migrate load off *contended* (not dead)
links, driven by a congestion controller tapping the telemetry stream.

:mod:`repro.simulator.router` / :mod:`repro.simulator.network` model the
router resources (VCs, reduction engines, port fan-in) of Section 5.1.
"""

from repro.simulator.config_gen import (
    FabricConfig,
    VCAssignment,
    assign_virtual_channels,
    generate_fabric_config,
)
from repro.simulator.cycle import (
    CycleLimitExceeded,
    CycleSimulator,
    CycleStats,
    EngineRun,
    SimulationStalled,
    simulate_allreduce,
)
from repro.simulator.batched import BatchedCycleSimulator, LaneOutcome, LaneSpec
from repro.simulator.engine import ENGINES, CycleEngine, make_engine
from repro.simulator.fastcycle import FastCycleSimulator
from repro.simulator.faultsched import FaultEvent, FaultSchedule
from repro.simulator.fluid import FluidResult, fluid_simulate
from repro.simulator.functional import REDUCE_OPS, execute_plan, reduce_on_tree, verify_plan
from repro.simulator.leap import LeapCycleSimulator
from repro.simulator.network import Network
from repro.simulator.packet import PacketLevelSimulator, PacketStats, packet_allreduce
from repro.simulator.adaptive import (
    ADAPTIVE_ENGINES,
    AdaptivePolicy,
    AdaptiveResult,
    CongestionController,
    ReplanSignal,
    run_adaptive,
)
from repro.simulator.recovery import (
    RECOVERY_POLICIES,
    EpisodeInterrupt,
    RecoveryEpisode,
    RecoveryError,
    RecoveryResult,
    ReplanEpisode,
    run_replan_loop,
    run_with_recovery,
)
from repro.simulator.trace import (
    ChannelTrace,
    CompressedTrace,
    render_waterfall,
    trace_allreduce,
)
from repro.simulator.router import (
    EmbeddingResources,
    RouterConfig,
    TreePort,
    build_router_configs,
    embedding_resources,
)

#: the serial step is one fused NumPy path; no compiled kernel exists
#: (kept as constants for host fingerprints that record them)
HAVE_NUMBA = False
KERNEL_IMPL = "numpy"

__all__ = [
    "FabricConfig",
    "VCAssignment",
    "assign_virtual_channels",
    "generate_fabric_config",
    "CycleSimulator",
    "CycleStats",
    "CycleLimitExceeded",
    "EngineRun",
    "SimulationStalled",
    "simulate_allreduce",
    "FaultEvent",
    "FaultSchedule",
    "RECOVERY_POLICIES",
    "EpisodeInterrupt",
    "RecoveryEpisode",
    "RecoveryError",
    "RecoveryResult",
    "ReplanEpisode",
    "run_replan_loop",
    "run_with_recovery",
    "ADAPTIVE_ENGINES",
    "AdaptivePolicy",
    "AdaptiveResult",
    "CongestionController",
    "ReplanSignal",
    "run_adaptive",
    "CycleEngine",
    "ENGINES",
    "make_engine",
    "HAVE_NUMBA",
    "KERNEL_IMPL",
    "FastCycleSimulator",
    "LeapCycleSimulator",
    "BatchedCycleSimulator",
    "LaneSpec",
    "LaneOutcome",
    "FluidResult",
    "fluid_simulate",
    "REDUCE_OPS",
    "execute_plan",
    "reduce_on_tree",
    "verify_plan",
    "Network",
    "PacketLevelSimulator",
    "PacketStats",
    "packet_allreduce",
    "ChannelTrace",
    "CompressedTrace",
    "trace_allreduce",
    "render_waterfall",
    "EmbeddingResources",
    "RouterConfig",
    "TreePort",
    "build_router_configs",
    "embedding_resources",
]
