"""Controller policies: when does the tracker re-run the optimizer?

The engine is deliberately policy-free; everything about *when* to pay
for a re-optimization lives here.  Four built-in policies span the
design space the paper's conclusion gestures at:

* :class:`StaticController` — the paper's setting: optimize once, never
  repair.  Under churn this starves every peer downstream of a departure
  (the baseline the other policies are measured against).
* :class:`PeriodicController` — a tracker on a timer: re-plan every
  ``period`` slots whether or not anything changed.  Bounded staleness,
  bounded (amortized) optimization cost, no event feed required.
* :class:`ReactiveController` — event-triggered: re-plan as soon as
  membership changes (departures always; arrivals optionally), go back
  to sleep otherwise — a rebuild under the default full planner.
* :class:`IncrementalController` — the reactive triggers plus drift,
  paired with the :class:`~repro.planning.IncrementalRepairPlanner`,
  which patches the surviving overlay and falls back to a rebuild past
  its degradation tolerance.

Controllers decide *when* the overlay changes — every hook answers at
most yes/no — and the engine's planner (:mod:`repro.planning`) decides
*how*; a policy's ``planner`` attribute names the planner
``RuntimeEngine(planner=None)`` pairs with it.  Custom policies
subclass :class:`Controller` (three small hooks) and can be registered
by name in :data:`CONTROLLERS` so the CLI and the batch runner can
spawn them from picklable specs.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .events import BandwidthDrift, Event, NodeJoin, NodeLeave

__all__ = [
    "Controller",
    "StaticController",
    "PeriodicController",
    "ReactiveController",
    "IncrementalController",
    "CONTROLLERS",
    "make_controller",
    "controller_names",
]


class Controller:
    """Base policy: the engine builds the initial overlay, then nothing.

    Subclasses override :meth:`on_change` (do applied events call for a
    new plan?) and optionally :meth:`wake_after` (request an epoch
    boundary even when no event is pending — how the periodic policy
    gets its timer).
    """

    name = "base"
    #: Registry name of the planner ``RuntimeEngine(planner=None)`` uses.
    planner = "full"

    def start(self, now: int) -> None:
        """Reset per-run state; the engine builds the first plan at ``now``."""

    def wake_after(self, now: int) -> Optional[int]:
        """Next self-scheduled wake-up slot strictly after ``now``."""
        return None

    def on_change(self, now: int, events: tuple[Event, ...]) -> bool:
        """Whether the events applied at ``now`` call for a new plan."""
        return False


class StaticController(Controller):
    """No repair, ever — the paper's static overlay under churn."""

    name = "static"


class PeriodicController(Controller):
    """Re-plan on a fixed timer, blind to the event feed."""

    name = "periodic"

    def __init__(self, period: int = 120) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period = int(period)
        self._last_built = 0

    def start(self, now: int) -> None:
        self._last_built = now

    def wake_after(self, now: int) -> Optional[int]:
        return self._last_built + self.period

    def on_change(self, now: int, events: tuple[Event, ...]) -> bool:
        if now - self._last_built < self.period:
            return False
        self._last_built = now
        return True


class ReactiveController(Controller):
    """Re-plan the instant membership changes; sleep otherwise.

    :attr:`triggers` lists the event classes that call for a re-plan:
    departures (the catastrophic case) and arrivals, so flash crowds get
    served; drift is left out because a sine wobble would otherwise
    re-plan every sample.  With the default full planner every re-plan
    is an event-triggered rebuild.
    """

    name = "reactive"
    triggers: tuple[type, ...] = (NodeLeave, NodeJoin)

    def on_change(self, now: int, events: tuple[Event, ...]) -> bool:
        return any(isinstance(ev, self.triggers) for ev in events)


class IncrementalController(ReactiveController):
    """The reactive triggers plus drift, paired with the incremental
    repair planner: repairs are cheap, and feeding drift to the planner
    keeps its overlay model's bandwidths in sync.
    """

    name = "incremental"
    planner = "incremental"
    triggers = (NodeLeave, NodeJoin, BandwidthDrift)


#: Name -> factory registry (picklable job specs carry the name plus
#: keyword arguments, so batch workers can rebuild the policy locally).
CONTROLLERS: Dict[str, Callable[..., Controller]] = {
    StaticController.name: StaticController,
    PeriodicController.name: PeriodicController,
    ReactiveController.name: ReactiveController,
    IncrementalController.name: IncrementalController,
}


def make_controller(name: str, **kwargs) -> Controller:
    """Instantiate a registered policy by name."""
    try:
        factory = CONTROLLERS[name]
    except KeyError:
        known = ", ".join(sorted(CONTROLLERS))
        raise KeyError(f"unknown controller {name!r} (known: {known})") from None
    return factory(**kwargs)


def controller_names() -> list[str]:
    return sorted(CONTROLLERS)
