"""Plan-lifecycle records: the committed overlay and its deltas.

A :class:`Plan` is what a planner hands the runtime engine: a Theorem 4.1
overlay frozen at build time, in the canonical space of its instance,
plus the id map back to live peers.  A :class:`PlanDelta` describes an
*incremental* transition between two plans (which peers departed /
joined / drifted, how many edges moved, how far the kept rate sits from
the current optimum), and a :class:`PlanOutcome` is the planner's full
answer to a replanning request — the plan, whether it was repaired or
rebuilt, and (filled in by the engine) the wall clock the decision cost.
:func:`class_preserving_swaps` is the churn pattern both delta planners
answer without touching the overlay's structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..core.instance import Instance
from ..core.scheme import BroadcastScheme

__all__ = ["Plan", "PlanDelta", "PlanOutcome", "class_preserving_swaps"]


@dataclass
class Plan:
    """An overlay the controller committed to, frozen at build time.

    The scheme lives in the *canonical space* of ``instance``;
    ``node_ids[k]`` maps canonical position ``k`` back to the external id
    it was built for.  Peers that join later are simply absent — the
    whole point of the runtime is measuring what that costs.
    """

    instance: Instance
    scheme: BroadcastScheme
    rate: float
    node_ids: list[int]
    built_at: int

    @property
    def size(self) -> int:
        return len(self.node_ids)


@dataclass(frozen=True)
class PlanDelta:
    """What one incremental repair changed, relative to the previous plan."""

    base_built_at: int  #: ``built_at`` of the plan the delta was applied to
    departed: tuple[int, ...] = ()  #: external ids removed from the overlay
    joined: tuple[int, ...] = ()  #: external ids attached as new leaves
    drifted: tuple[int, ...] = ()  #: external ids whose bandwidth changed
    refed: tuple[int, ...] = ()  #: orphaned receivers re-fed from spare credit
    edges_removed: int = 0
    edges_added: int = 0
    rate: float = 0.0  #: rate the repaired plan still provisions
    optimal_bound: float = 0.0  #: Lemma 5.1 upper bound ``T*`` of the members
    degradation: float = 0.0  #: ``max(0, 1 - rate / optimal_bound)``

    @property
    def touched(self) -> int:
        """Peers the repair had to look at (the locality measure)."""
        return len(
            set(self.departed) | set(self.joined) | set(self.drifted)
            | set(self.refed)
        )


@dataclass
class PlanOutcome:
    """A planner's answer to one replanning request."""

    plan: Plan
    op: str  #: ``"build"`` (full optimization) or ``"repair"`` (delta)
    fallback: bool = False  #: a repair was attempted but fell back to build
    reason: str = ""  #: why the fallback happened (empty otherwise)
    delta: Optional[PlanDelta] = None  #: filled for ``op == "repair"``
    seconds: float = field(default=0.0, compare=False)  #: planner wall time


def class_preserving_swaps(
    events: tuple, class_of: Callable[[int], Optional[tuple]]
) -> Optional[list[tuple[int, int, str, float]]]:
    """Pair each departure with a same-class join, or ``None``.

    A batch of only leaves and joins whose (kind, bandwidth) multisets
    match exactly preserves the class counts of the swarm, so each
    replacement can inherit its predecessor's overlay role.
    ``class_of(node)`` is the planned (kind, bandwidth) of a departing
    node, ``None`` when the plan does not hold it.  Returns
    ``(departed, joined, kind, bandwidth)`` rows in join order.
    """
    # Deferred import: repro.runtime imports repro.planning at module
    # load, so the event types can only be resolved lazily here.
    from ..runtime.events import NodeJoin, NodeLeave

    leaves: list[int] = []
    joins: list = []
    for ev in events:
        if isinstance(ev, NodeLeave):
            leaves.append(ev.node_id)
        elif isinstance(ev, NodeJoin):
            if ev.node_id is None:
                return None
            joins.append(ev)
        else:
            return None
    if not leaves or len(leaves) != len(joins):
        return None
    pending: Dict[tuple, list[int]] = {}
    for node in leaves:
        cls = class_of(node)
        if cls is None:
            return None
        pending.setdefault(cls, []).append(node)
    swaps = []
    for ev in joins:
        stack = pending.get((ev.kind, ev.bandwidth))
        if not stack:
            return None
        swaps.append((stack.pop(), ev.node_id, ev.kind, ev.bandwidth))
    return swaps
