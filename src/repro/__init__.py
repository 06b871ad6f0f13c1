"""repro — reproduction of *Broadcasting on Large Scale Heterogeneous
Platforms under the Bounded Multi-Port Model* (Beaumont, Bonichon,
Eyraud-Dubois, Uznański, Agrawal; IPDPS 2010 / IEEE TPDS 2014).

Quick tour
----------

>>> from repro import Instance, cyclic_optimum, optimal_acyclic_throughput
>>> inst = Instance(6.0, (5.0, 5.0), (4.0, 1.0, 1.0))   # Figure 1
>>> round(cyclic_optimum(inst), 10)                      # Lemma 5.1
4.4
>>> t_ac, word = optimal_acyclic_throughput(inst)        # Theorem 4.1
>>> round(t_ac, 9), word
(4.0, 'gogog')

Dynamic platforms (``repro.runtime``)
-------------------------------------

The static pipeline above freezes the platform; the runtime subsystem
replays *evolving* swarms (join/leave/bandwidth-drift events) through an
event-driven engine and re-runs the optimizer under pluggable controller
policies (static / periodic / reactive / incremental):

>>> from repro.runtime import get_scenario, scenario_names
>>> sorted(scenario_names())[:3]
['diurnal', 'flash-crowd', 'live-stream']
>>> run = get_scenario("rack-failure").build(seed=1)
>>> (run.platform.num_alive, len(run.events)) == (30, 9)
True

Feed ``run`` to :class:`~repro.runtime.RuntimeEngine` with a controller
to get per-epoch goodput, repair latency, and delivered-vs-planned rate;
:func:`~repro.runtime.run_batch` fans whole scenario grids across worker
processes.  From a shell: ``python -m repro runtime --scenario
steady-churn --controller reactive``.

Subpackages
-----------

* :mod:`repro.core` — instances, schemes, throughput, bounds, coding words;
* :mod:`repro.algorithms` — Algorithms 1/2, Theorem 4.1/5.2 constructions,
  LP reference solvers, baselines;
* :mod:`repro.flows` — Dinic max-flow, broadcast-tree decomposition;
* :mod:`repro.instances` — the six random distributions of Figure 19 and
  every named family from the figures/proofs;
* :mod:`repro.simulation` — randomized packet transport + fluid schedules;
* :mod:`repro.estimation` — Bedibe-style LastMile model instantiation;
* :mod:`repro.experiments` — one module per table/figure of the paper;
* :mod:`repro.planning` — the plan lifecycle: LRU-memoized Theorem 4.1
  solves, the planner seam, incremental overlay repair;
* :mod:`repro.runtime` — event-driven dynamic-platform engine, adaptive
  re-optimization controllers, scenario registry, parallel batch sweeps.
"""

from .algorithms import (
    AcyclicSolution,
    GreedyResult,
    GreedyStep,
    PartialSolution,
    acyclic_guarded_scheme,
    acyclic_open_scheme,
    cyclic_open_scheme,
    deficit_index,
    exhaustive_acyclic_throughput,
    greedy_test,
    greedy_word,
    multi_tree_scheme,
    optimal_acyclic_throughput,
    optimal_cyclic_lp,
    order_lp_throughput,
    partial_run,
    random_tree_scheme,
    scheme_from_word,
    source_star_scheme,
)
from .core import (
    FIVE_SEVENTHS,
    GUARDED,
    OPEN,
    SOURCE,
    THEOREM63_ALPHA,
    THEOREM63_LIMIT,
    BroadcastScheme,
    DecompositionError,
    EstimationError,
    InfeasibleThroughputError,
    Instance,
    InvalidInstanceError,
    InvalidSchemeError,
    NodeKind,
    ReproError,
    WordState,
    acyclic_open_optimum,
    all_words,
    best_omega_throughput,
    best_omega_word,
    cyclic_open_optimum,
    cyclic_optimum,
    dag_throughput,
    exact_acyclic_optimum,
    exact_cyclic_optimum,
    exact_word_throughput,
    exact_word_throughput_for,
    f_alpha,
    g_alpha,
    homogeneous_word_valid,
    is_valid_word,
    maxflow_throughput,
    omega1,
    omega2,
    open_only_ratio_bound,
    per_receiver_flows,
    proof_word,
    proof_word_throughput,
    scheme_throughput,
    theorem63_acyclic_upper_bound,
    word_from_order,
    word_throughput,
    word_to_order,
    word_trace,
)
from .estimation import (
    EstimatedPlatformView,
    LastMileEstimate,
    LastMileGroundTruth,
    Measurement,
    OnlineEstimator,
    ProbeScheduler,
    estimate_lastmile,
    sample_measurements,
)
from .flows import (
    BroadcastTree,
    FlowNetwork,
    decompose_broadcast_trees,
    maxflow,
    min_cut,
    verify_decomposition,
)
from .instances import (
    DISTRIBUTIONS,
    FIVE_SEVENTHS_EPS,
    PLANETLAB_TABLE,
    ThreePartition,
    brute_force_three_partition,
    figure1_instance,
    figure2_word,
    figure5_word,
    figure6_instance,
    figure6_optimal_scheme,
    five_sevenths_instance,
    random_instance,
    random_yes_instance,
    reduction_instance,
    saturating_source_bw,
    scheme_from_partition,
    theorem63_alpha_fraction,
    theorem63_instance,
    tight_homogeneous_instance,
    verify_strict_degree_scheme,
)
from .planning import (
    FullRebuildPlanner,
    IncrementalRepairPlanner,
    PlanCache,
    PlanDelta,
    Planner,
    make_planner,
    planner_names,
)
from .runtime import (
    BandwidthDrift,
    BatchJob,
    DynamicPlatform,
    EpochReport,
    IncrementalController,
    NodeJoin,
    NodeLeave,
    PeriodicController,
    Plan,
    ReactiveController,
    RunResult,
    RunSummary,
    RuntimeEngine,
    Scenario,
    ScenarioRun,
    StaticController,
    controller_names,
    get_scenario,
    make_controller,
    register_scenario,
    run_batch,
    scenario_grid,
    scenario_names,
    summarize_batch,
)
from .simulation import (
    FluidSchedule,
    PacketSimEngine,
    PacketSimResult,
    available_backends,
    fluid_schedule,
    simulate_packet_broadcast,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Instance",
    "NodeKind",
    "SOURCE",
    "BroadcastScheme",
    "WordState",
    "scheme_throughput",
    "dag_throughput",
    "maxflow_throughput",
    "per_receiver_flows",
    "acyclic_open_optimum",
    "cyclic_optimum",
    "cyclic_open_optimum",
    "open_only_ratio_bound",
    "theorem63_acyclic_upper_bound",
    "f_alpha",
    "g_alpha",
    "FIVE_SEVENTHS",
    "THEOREM63_LIMIT",
    "THEOREM63_ALPHA",
    "OPEN",
    "GUARDED",
    "word_trace",
    "is_valid_word",
    "word_throughput",
    "word_to_order",
    "word_from_order",
    "all_words",
    "homogeneous_word_valid",
    "exact_word_throughput",
    "exact_word_throughput_for",
    "exact_acyclic_optimum",
    "exact_cyclic_optimum",
    "omega1",
    "omega2",
    "proof_word",
    "best_omega_word",
    "best_omega_throughput",
    "proof_word_throughput",
    # errors
    "ReproError",
    "InvalidInstanceError",
    "InvalidSchemeError",
    "InfeasibleThroughputError",
    "DecompositionError",
    "EstimationError",
    # algorithms
    "acyclic_open_scheme",
    "deficit_index",
    "partial_run",
    "PartialSolution",
    "greedy_test",
    "greedy_word",
    "GreedyResult",
    "GreedyStep",
    "optimal_acyclic_throughput",
    "scheme_from_word",
    "acyclic_guarded_scheme",
    "AcyclicSolution",
    "cyclic_open_scheme",
    "order_lp_throughput",
    "exhaustive_acyclic_throughput",
    "optimal_cyclic_lp",
    "source_star_scheme",
    "random_tree_scheme",
    "multi_tree_scheme",
    # flows
    "FlowNetwork",
    "maxflow",
    "min_cut",
    "BroadcastTree",
    "decompose_broadcast_trees",
    "verify_decomposition",
    # instances
    "figure1_instance",
    "figure2_word",
    "figure5_word",
    "figure6_instance",
    "figure6_optimal_scheme",
    "five_sevenths_instance",
    "FIVE_SEVENTHS_EPS",
    "theorem63_instance",
    "theorem63_alpha_fraction",
    "tight_homogeneous_instance",
    "DISTRIBUTIONS",
    "random_instance",
    "saturating_source_bw",
    "PLANETLAB_TABLE",
    "ThreePartition",
    "reduction_instance",
    "scheme_from_partition",
    "verify_strict_degree_scheme",
    "brute_force_three_partition",
    "random_yes_instance",
    # runtime
    "RuntimeEngine",
    "DynamicPlatform",
    "NodeJoin",
    "NodeLeave",
    "BandwidthDrift",
    "Plan",
    "EpochReport",
    "RunResult",
    "StaticController",
    "PeriodicController",
    "ReactiveController",
    "IncrementalController",
    "make_controller",
    "controller_names",
    # planning
    "PlanCache",
    "PlanDelta",
    "Planner",
    "FullRebuildPlanner",
    "IncrementalRepairPlanner",
    "make_planner",
    "planner_names",
    "Scenario",
    "ScenarioRun",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "BatchJob",
    "RunSummary",
    "run_batch",
    "scenario_grid",
    "summarize_batch",
    # simulation
    "simulate_packet_broadcast",
    "PacketSimResult",
    "PacketSimEngine",
    "available_backends",
    "fluid_schedule",
    "FluidSchedule",
    # estimation
    "LastMileGroundTruth",
    "Measurement",
    "ProbeScheduler",
    "OnlineEstimator",
    "EstimatedPlatformView",
    "sample_measurements",
    "estimate_lastmile",
    "LastMileEstimate",
]
