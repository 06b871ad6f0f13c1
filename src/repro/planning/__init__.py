"""Plan lifecycle: construction, caching, incremental repair.

The paper's pipeline produces one overlay for one frozen platform; the
runtime engine (:mod:`repro.runtime`) needs a stream of them as the
platform churns.  This subsystem owns that *plan lifecycle* — extracted
from the engine so that *how* plans are produced is a seam, independent
of *when* controllers request them:

* :mod:`~repro.planning.plan` — :class:`Plan` (the committed overlay),
  :class:`PlanDelta` (what an incremental repair changed),
  :class:`PlanOutcome` (a planner's answer, with cost accounting);
* :mod:`~repro.planning.cache` — :class:`PlanCache`, the LRU memo of
  Theorem 4.1 search results, ``(T*_ac, word)`` pairs that each planner
  packs itself (hit/miss/eviction counters);
* :mod:`~repro.planning.planner` — the :class:`Planner` protocol,
  :class:`FullRebuildPlanner` (the historical always-reoptimize path)
  and :func:`plan_step`, the one timed build-or-replan call;
* :mod:`~repro.planning.repair` — :class:`IncrementalRepairPlanner`,
  which packs each build straight into its own overlay model, patches
  that overlay locally (resumable Lemma 4.6 packing) and falls back to
  a full rebuild past a degradation tolerance;
* :mod:`~repro.planning.collapsed` — :class:`ClassCollapsedPlanner`,
  which plans in run-length (class, multiplicity) space and expands
  per-node structure lazily — the n = 10^5..10^6 scale path, with
  bit-identical rates to the per-node pipeline.

Planners are registered by name in :data:`PLANNERS` and spawned via
:func:`make_planner`, mirroring the controller registry.
"""

from .batching import coalesce_events
from .cache import CacheStats, PlanCache
from .plan import Plan, PlanDelta, PlanOutcome
from .planner import (
    PLANNERS,
    FullRebuildPlanner,
    Planner,
    make_planner,
    plan_step,
    planner_names,
)
from .collapsed import ClassCollapsedPlanner
from .repair import IncrementalRepairPlanner

PLANNERS.setdefault(IncrementalRepairPlanner.name, IncrementalRepairPlanner)
PLANNERS.setdefault(ClassCollapsedPlanner.name, ClassCollapsedPlanner)

__all__ = [
    "Plan",
    "PlanDelta",
    "PlanOutcome",
    "PlanCache",
    "CacheStats",
    "Planner",
    "FullRebuildPlanner",
    "IncrementalRepairPlanner",
    "ClassCollapsedPlanner",
    "PLANNERS",
    "coalesce_events",
    "make_planner",
    "plan_step",
    "planner_names",
]
