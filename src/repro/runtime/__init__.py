"""Event-driven runtime for dynamic platforms.

The paper optimizes a *frozen* platform; its conclusion concedes the
result is "probably not resilient to churn".  This subsystem closes that
gap: a heapq-ordered event engine advances an evolving swarm (arrivals,
departures, bandwidth drift) while pluggable controller policies decide
when to re-run the Theorem 4.1 optimizer, and every epoch is validated
through the same randomized packet transport as the static pipeline.

Layout:

* :mod:`~repro.runtime.events` — event types, the queue, the mutable
  :class:`~repro.runtime.events.DynamicPlatform`;
* :mod:`~repro.runtime.engine` — the epoch loop, planner injection and
  per-epoch plan-cost accounting, run records;
* :mod:`~repro.runtime.controller` — static / periodic / reactive /
  incremental re-optimization policies plus a name registry;
* :mod:`~repro.runtime.scenarios` — declarative named workloads
  (steady churn, flash crowd, diurnal drift, rack failure, Mathieu-style
  live streaming) and the user-extensible registry;
* :mod:`~repro.runtime.batch` — serial or process-pool sweep runner
  with per-process overlay memoization.

Plan construction itself (the Theorem 4.1 pipeline, the LRU
:class:`~repro.planning.PlanCache`, incremental repair) lives in
:mod:`repro.planning`; ``Plan`` remains importable from here for
backward compatibility.  The measurement loop that lets
controllers plan on *estimated* rather than oracle bandwidths
(``RuntimeEngine(estimation="online")``) lives in
:mod:`repro.estimation.online` and plugs in through ``engine.view``.
"""

from ..planning import (
    PLANNERS,
    FullRebuildPlanner,
    IncrementalRepairPlanner,
    PlanCache,
    PlanDelta,
    PlanOutcome,
    Planner,
    make_planner,
    planner_names,
)
from .batch import (
    BatchJob,
    RunSummary,
    run_batch,
    run_job,
    scenario_grid,
    summarize_batch,
)
from .controller import (
    CONTROLLERS,
    Controller,
    IncrementalController,
    PeriodicController,
    ReactiveController,
    StaticController,
    controller_names,
    make_controller,
)
from .engine import EpochReport, Plan, RunResult, RuntimeEngine
from .events import (
    BandwidthDrift,
    DynamicPlatform,
    Event,
    EventQueue,
    NodeJoin,
    NodeLeave,
    NodeState,
)
from .scenarios import (
    SCENARIOS,
    DiurnalDrift,
    FlashCrowd,
    LiveStreamTrace,
    RackFailure,
    Scenario,
    ScenarioRun,
    SteadyChurn,
    get_scenario,
    register_scenario,
    scenario_names,
    spec_from_dict,
    spec_to_dict,
)

__all__ = [
    # events
    "Event",
    "NodeJoin",
    "NodeLeave",
    "BandwidthDrift",
    "EventQueue",
    "NodeState",
    "DynamicPlatform",
    # engine
    "RuntimeEngine",
    "Plan",
    "EpochReport",
    "RunResult",
    # planning seam (re-exported from repro.planning)
    "PlanCache",
    "PlanDelta",
    "PlanOutcome",
    "Planner",
    "FullRebuildPlanner",
    "IncrementalRepairPlanner",
    "PLANNERS",
    "make_planner",
    "planner_names",
    # controllers
    "Controller",
    "StaticController",
    "PeriodicController",
    "ReactiveController",
    "IncrementalController",
    "CONTROLLERS",
    "make_controller",
    "controller_names",
    # scenarios
    "Scenario",
    "ScenarioRun",
    "SteadyChurn",
    "FlashCrowd",
    "DiurnalDrift",
    "RackFailure",
    "LiveStreamTrace",
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "spec_to_dict",
    "spec_from_dict",
    # batch
    "BatchJob",
    "RunSummary",
    "run_job",
    "run_batch",
    "scenario_grid",
    "summarize_batch",
]
