"""The plan-lifecycle seam: *how* a plan is produced, behind a protocol.

Controllers (:mod:`repro.runtime.controller`) decide *when* the overlay
changes; planners decide *how*.  Callers reach two hooks, through one
timed :func:`plan_step`:

* :meth:`Planner.build` — full optimization of the current alive swarm
  (the Theorem 4.1 search, memoized through the engine's
  :class:`~repro.planning.cache.PlanCache`, then one Lemma 4.6 packing);
* :meth:`Planner.replan` — react to applied platform events with a
  :class:`~repro.planning.plan.PlanOutcome`: either an incremental
  repair of the live plan or a fallback full build.

:class:`FullRebuildPlanner` is the historical behavior extracted intact
from ``RuntimeEngine.build_plan``: every replanning request pays a full
dichotomic search + Lemma 4.6 re-packing.  The incremental alternative
lives in :mod:`repro.planning.repair`.

Planners are registered by name in :data:`PLANNERS` (filled by
:mod:`repro.planning`) so the CLI and picklable batch job specs can
spawn them, mirroring the controller registry.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional

from ..algorithms.acyclic_guarded import scheme_from_word
from .plan import Plan, PlanOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.engine import RuntimeEngine

__all__ = [
    "Planner",
    "FullRebuildPlanner",
    "PLANNERS",
    "make_planner",
    "plan_step",
    "planner_names",
]


class Planner:
    """Base planner protocol (stateful: one instance per engine run)."""

    name = "base"

    def build(self, engine: "RuntimeEngine") -> Plan:
        """Fully optimize the current alive swarm into a fresh plan.

        The plan's ``instance`` is the canonical snapshot of
        ``engine.view`` it read (equal by value): in oracle mode the
        engine scores the build's first epoch against it instead of
        snapshotting the unchanged platform again.
        """
        raise NotImplementedError

    def replan(
        self, engine: "RuntimeEngine", plan: Plan, events: Iterable[object]
    ) -> PlanOutcome:
        """React to applied events; default: always a full rebuild."""
        return PlanOutcome(self.build(engine), op="build")


class FullRebuildPlanner(Planner):
    """Today's behavior: every plan is a from-scratch optimization at
    the exact ``T*_ac`` of the snapshot it reads."""

    name = "full"

    def build(self, engine: "RuntimeEngine") -> Plan:
        """Snapshot, solve (memoized) and pack a fresh scheme.

        Planners read ``engine.view``, not the platform directly: in
        oracle mode that *is* the platform, under ``estimation="online"``
        it is the estimated facade — either way the same snapshot
        contract, so the whole planning stack is estimation-agnostic.
        """
        instance, node_ids = engine.view.snapshot()
        rate, word = engine.cache.solve(instance)
        return Plan(
            instance=instance,
            scheme=scheme_from_word(instance, word, rate),
            rate=rate,
            node_ids=node_ids,
            built_at=engine.now,
        )


def plan_step(
    planner: Planner, host, plan: Optional[Plan], events: Iterable[object]
) -> PlanOutcome:
    """One timed planner call on ``host`` (an engine or a plane session):
    a build when ``plan is None``, else a replan of ``plan`` against
    ``events``; the outcome's ``seconds`` is the call's wall time."""
    started = time.perf_counter()  # repro: noqa REP002 -- plan-op timing telemetry (compare=False); not replayed
    if plan is None:
        outcome = PlanOutcome(planner.build(host), op="build")
    else:
        outcome = planner.replan(host, plan, events)
    outcome.seconds = time.perf_counter() - started  # repro: noqa REP002 -- plan-op timing telemetry (compare=False); not replayed
    return outcome


#: Name -> factory registry (picklable job specs carry the name plus
#: keyword arguments).  Filled here and by :mod:`repro.planning.repair`.
PLANNERS: Dict[str, Callable[..., Planner]] = {
    FullRebuildPlanner.name: FullRebuildPlanner,
}


def make_planner(name: str, **kwargs) -> Planner:
    """Instantiate a registered planner by name."""
    try:
        factory = PLANNERS[name]
    except KeyError:
        known = ", ".join(sorted(PLANNERS))
        raise KeyError(f"unknown planner {name!r} (known: {known})") from None
    return factory(**kwargs)


def planner_names() -> list[str]:
    return sorted(PLANNERS)
