"""Churn experiments — quantifying the paper's resilience caveat.

The conclusion of the paper states the constructed overlays "should be
resilient to small variations in the communication performance of nodes.
However [the solution] is probably not resilient to churn."  This module
turns that remark into a measurement, delegating the mechanics to the
event-driven engine of :mod:`repro.runtime`:

1. build the Theorem 4.1 overlay for a swarm;
2. schedule the departure of the structurally most-important relay
   (largest forwarded rate) halfway through the run and replay the
   platform under the *static* (no-repair) controller, measuring the
   goodput collapse of the nodes downstream of it;
3. *static repair*: the repaired rate a tracker-style recomputation
   would restore is the recomputed ``T*_ac`` of the surviving swarm —
   which the engine recomputes (memoized) for every epoch anyway.

The headline numbers: churn is indeed catastrophic without repair
(downstream nodes starve), while a recomputation restores near-optimal
throughput — i.e. the fragility lies in the static overlay, not in the
model.  Since the planning seam landed, the same trace is additionally
replayed under the reactive (full rebuild) and incremental (local
repair) policies, so the report also answers *what the repair costs*:
both restore the survivors, but the incremental planner does it without
paying a dichotomic search (``repair_plan_seconds`` vs
``rebuild_plan_seconds``).  The full dynamic story (scenario sweeps,
tolerance ablations) lives in :mod:`repro.runtime` and
:mod:`repro.experiments.ablations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..algorithms.acyclic_guarded import scheme_from_word
from ..instances.generators import random_instance
from ..planning import PlanCache
from ..runtime.controller import (
    IncrementalController,
    ReactiveController,
    StaticController,
)
from ..runtime.engine import RuntimeEngine
from ..runtime.events import DynamicPlatform, NodeLeave

__all__ = ["ChurnReport", "churn_experiment"]


@dataclass
class ChurnReport:
    """Outcome of one churn-injection run."""

    size: int
    planned_rate: float  #: overlay rate before the failure
    failed_node: int  #: the relay that departs
    failed_forwarding: float  #: rate it was forwarding
    healthy_min_goodput: float  #: worst goodput, no failure (control epoch)
    churn_min_goodput: float  #: worst goodput among survivors, post-failure
    starved_nodes: int  #: survivors below 50% of the planned rate
    repaired_rate: float  #: T*_ac of the surviving swarm (static repair)
    # Repair-vs-rebuild columns (one replay each of the same trace):
    rebuild_min_goodput: float = 0.0  #: post-failure worst goodput, reactive
    repair_min_goodput: float = 0.0  #: post-failure worst goodput, incremental
    rebuild_plan_seconds: float = 0.0  #: planner wall time of the rebuild
    repair_plan_seconds: float = 0.0  #: planner wall time of the repair
    incremental_repairs: int = 0  #: deltas applied (0 = the repair fell back)

    @property
    def repair_ratio(self) -> float:
        """Repaired rate relative to the original planned rate."""
        if self.planned_rate <= 0:
            return 1.0
        return self.repaired_rate / self.planned_rate

    @property
    def repair_vs_rebuild(self) -> float:
        """Post-failure goodput of local repair relative to full rebuild."""
        if self.rebuild_min_goodput <= 0:
            return 1.0
        return self.repair_min_goodput / self.rebuild_min_goodput


def churn_experiment(
    size: int = 40,
    open_prob: float = 0.5,
    *,
    distribution: str = "Unif100",
    slots: int = 300,
    seed: Optional[int] = 23,
) -> ChurnReport:
    """Fail the busiest relay mid-run and measure collapse + repair.

    One engine run under the no-repair policy: the epoch before the
    departure is the healthy control window, the epoch after it shows the
    collapse, and the recomputed per-epoch ``T*_ac`` of the survivors is
    exactly the rate a static re-optimization would restore.  Epochs
    run on the engine's default transport (cold, ``auto``).

    The same trace is then replayed under the reactive (full-rebuild)
    and incremental (local-repair) policies, filling the repair-vs-
    rebuild columns of the report.
    """
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, size, open_prob, distribution)

    cache = PlanCache()
    rate, word = cache.solve(inst)
    scheme = scheme_from_word(inst, word, rate)

    # The busiest relay: the non-source node forwarding the most rate.
    forwarding = [(scheme.out_rate(v), v) for v in inst.receivers()]
    failed_forwarding, failed = max(forwarding)

    def replay(controller, replay_cache):
        engine = RuntimeEngine(
            DynamicPlatform.from_instance(inst),
            [NodeLeave(time=slots // 2, node_id=failed)],
            slots,
            seed=seed,
            cache=replay_cache,
        )
        return engine.run(controller)

    result = replay(StaticController(), cache)
    healthy, churned = result.epochs[0], result.epochs[-1]
    # The last epoch starts at the failure boundary, so its plan_seconds
    # is exactly what the post-departure re-planning decision cost.  The
    # repair-vs-rebuild replays each get a *fresh* cache: a shared memo
    # would turn the reactive rebuild into a dict lookup and the cost
    # columns into noise.
    rebuilt = replay(ReactiveController(), PlanCache())
    repaired = replay(IncrementalController(), PlanCache())
    return ChurnReport(
        size=size,
        planned_rate=rate,
        failed_node=failed,
        failed_forwarding=failed_forwarding,
        healthy_min_goodput=healthy.min_goodput,
        churn_min_goodput=churned.min_goodput,
        starved_nodes=churned.starved,
        repaired_rate=churned.optimal_rate,
        rebuild_min_goodput=rebuilt.epochs[-1].min_goodput,
        repair_min_goodput=repaired.epochs[-1].min_goodput,
        rebuild_plan_seconds=rebuilt.epochs[-1].plan_seconds,
        repair_plan_seconds=repaired.epochs[-1].plan_seconds,
        incremental_repairs=repaired.repairs,
    )
