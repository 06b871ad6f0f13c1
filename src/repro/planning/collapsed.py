"""Class-collapsed planning: optimize over runs, expand at transport time.

Realistic swarms are *class-structured*: a handful of bandwidth classes
(ADSL tiers, campus uplinks, seedbox hosts) repeated across 10^5-10^6
peers.  The per-node Theorem 4.1 pipeline is O(n) *per bisection probe*
and materializes O(n) adjacency dicts per plan — at n = 10^6 that wall
is planning, not simulation.  :class:`ClassCollapsedPlanner` runs the
whole pipeline in run-length space instead:

* the dichotomic search probes :func:`~repro.algorithms.greedy.greedy_segments`
  (Algorithm 2 over ``(class, multiplicity)`` runs, O(runs + word
  alternations) per probe, bit-identical verdicts to the scalar loop);
* :func:`~repro.algorithms.acyclic_guarded.pack_segments` packs whole
  segments against FIFO *block* pools (Lemma 4.6 at class granularity);
* the resulting :class:`~repro.core.runs.RunScheme` is wrapped in a
  :class:`~repro.core.runs.LazyExpandedScheme` — a real
  :class:`~repro.core.scheme.BroadcastScheme` whose per-node adjacency
  is only materialized when the transport actually walks edges.

Rates are **bit-identical** to :class:`FullRebuildPlanner`'s: the upper
bracket uses the same correctly-rounded ``fsum`` expression and every
probe verdict matches the scalar oracle, so the bisection iterates are
equal as floats (the tier-1 equivalence property tests pin this).

Churn that preserves class counts (every departure paired with a
same-class join) never re-plans: the collapsed scheme depends only on
the run-length structure, so a swap repair just relabels external ids
in the plan's ``node_ids`` — O(changes), not O(n).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional

from ..core.bounds import cyclic_optimum
from ..core.runs import ClassRuns, LazyExpandedScheme
from .plan import Plan, PlanDelta, PlanOutcome, class_preserving_swaps
from .planner import FullRebuildPlanner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.engine import RuntimeEngine

__all__ = ["ClassCollapsedPlanner"]


class ClassCollapsedPlanner(FullRebuildPlanner):
    """Plan in run-length space; expand per-node structure lazily."""

    name = "collapsed"

    def __init__(self) -> None:
        self.builds = 0  #: full collapsed optimizations performed
        self.swaps = 0  #: class-preserving relabel repairs
        self._plan: Optional[Plan] = None
        self._runs: Optional[ClassRuns] = None
        self._class_of: Dict[int, tuple[str, float]] = {}
        self._index: Dict[int, int] = {}  #: ext id -> canonical position

    # ------------------------------------------------------------------
    def _solve_runs(self, cache, runs: ClassRuns):
        """Memoized collapsed solve.

        Keyed on the *runs* (not the expanded instance): two epochs with
        the same class multiset hit the same entry regardless of which
        external peers fill the classes.
        """
        from ..algorithms.acyclic_guarded import collapsed_scheme

        key = ("collapsed", runs)
        sol = cache.get(key)
        if sol is None:
            sol = collapsed_scheme(runs)
            cache.put(key, sol)
        return sol

    def build(self, engine: "RuntimeEngine") -> Plan:
        instance, node_ids = engine.view.snapshot()
        runs = ClassRuns.from_instance(instance)
        sol = self._solve_runs(engine.cache, runs)
        plan = Plan(
            instance=instance,
            scheme=LazyExpandedScheme(sol.scheme),
            rate=sol.throughput,
            node_ids=node_ids,
            built_at=engine.now,
        )
        self.builds += 1
        self._plan = plan
        self._runs = runs
        self._class_of = {
            ext: (instance.kind(k), instance.bandwidth(k))
            for k, ext in enumerate(node_ids)
            if k != 0
        }
        self._index = {ext: k for k, ext in enumerate(node_ids)}
        return plan

    # ------------------------------------------------------------------
    def replan(
        self, engine: "RuntimeEngine", plan: Plan, events: Iterable[object]
    ) -> PlanOutcome:
        events = tuple(events)
        if self._plan is not plan:
            return PlanOutcome(self.build(engine), op="build")
        swaps = class_preserving_swaps(events, self._class_of.get)
        if swaps is None:
            return PlanOutcome(self.build(engine), op="build")
        node_ids = list(plan.node_ids)
        departed: list[int] = []
        joined: list[int] = []
        for old, new, kind, bandwidth in swaps:
            if new in self._index:
                return PlanOutcome(
                    self.build(engine),
                    op="build",
                    fallback=True,
                    reason=f"swap join of already-planned node {new}",
                )
            k = self._index.pop(old)
            node_ids[k] = new
            self._index[new] = k
            del self._class_of[old]
            self._class_of[new] = (kind, bandwidth)
            departed.append(old)
            joined.append(new)
        new_plan = Plan(
            instance=plan.instance,
            scheme=plan.scheme,  # class structure unchanged: share it
            rate=plan.rate,
            node_ids=node_ids,
            built_at=engine.now,
        )
        bound = cyclic_optimum(plan.instance)
        delta = PlanDelta(
            base_built_at=plan.built_at,
            departed=tuple(departed),
            joined=tuple(joined),
            rate=plan.rate,
            optimal_bound=bound,
            degradation=(
                max(0.0, 1.0 - plan.rate / bound) if bound > 0 else 0.0
            ),
        )
        self.swaps += 1
        self._plan = new_plan
        return PlanOutcome(new_plan, op="repair", delta=delta)
