"""Session specs and the fleet builder: K channels over one shared swarm.

A :class:`SessionSpec` declares one broadcast channel: its own origin
(``source_bw`` — origins are per-channel, only *member* upload is a
shared resource), the demand rate of the stream (``inf`` = best effort),
a priority weight for the broker/admission, and the subset of shared
platform nodes subscribed to it.  ``members`` lists every external id
that ever subscribes — including peers that only join mid-run — since
subscription is control-plane knowledge, not liveness.

:func:`make_fleet` turns any registered scenario into a multi-tenant
:class:`FleetRun`: it materializes the shared scenario once (platform +
event list, exactly as a single-tenant run would see them) and assigns
every node that ever exists to one primary session plus, with
probability ``overlap`` per extra channel, to additional ones —
``overlap=0`` partitions the swarm (no shared nodes, the uncontended
regime), larger values create the contention the broker arbitrates.
Assignment derives from the fleet seed alone, so the same
``(scenario, seed, num_sessions, overlap)`` tuple always yields the
same fleet, in any process.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional, Union

from ..runtime.events import DynamicPlatform, Event, NodeJoin
from ..runtime.scenarios import Scenario, get_scenario

__all__ = ["SessionSpec", "FleetRun", "make_fleet"]


@dataclass(frozen=True)
class SessionSpec:
    """One broadcast channel sharing the platform with its siblings."""

    name: str
    source_bw: float
    demand: float = math.inf  #: target stream rate (``inf`` = best effort)
    priority: float = 1.0  #: broker / admission weight
    members: tuple[int, ...] = ()  #: external ids ever subscribed

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("session name must be non-empty")
        if not self.source_bw >= 0:
            raise ValueError(f"source_bw must be >= 0, got {self.source_bw}")
        if not self.demand > 0:
            raise ValueError(f"demand must be > 0, got {self.demand}")
        if math.isinf(min(self.source_bw, self.demand)):
            raise ValueError(
                "origin rate min(source_bw, demand) must be finite, got "
                f"source_bw={self.source_bw}, demand={self.demand}"
            )
        if not 0 < self.priority < math.inf:
            raise ValueError(
                f"priority must be finite and > 0, got {self.priority}"
            )
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"duplicate members in session {self.name!r}")


@dataclass(frozen=True)
class FleetRun:
    """A materialized multi-tenant workload: everything a fleet run needs.

    ``membership`` inverts the specs' member lists (node id -> session
    names, spec order) and covers every id that ever appears in
    ``events``; the shared ``platform``/``events``/``horizon`` triple is
    exactly what the equivalent single-tenant :class:`~repro.runtime.
    scenarios.ScenarioRun` would carry.
    """

    name: str
    platform: DynamicPlatform
    events: tuple[Event, ...]
    horizon: int
    seed: int
    sessions: tuple[SessionSpec, ...]
    membership: Dict[int, tuple[str, ...]]


def make_fleet(
    scenario: Union[str, Scenario],
    num_sessions: int,
    seed: int = 0,
    *,
    overlap: float = 0.0,
    demand: float = math.inf,
    source_bw: Optional[float] = None,
    name: str = "",
) -> FleetRun:
    """Materialize ``scenario`` as ``num_sessions`` concurrent channels.

    Every node that ever exists (initial population plus joiners) gets a
    primary session uniformly at random and subscribes to each *other*
    session independently with probability ``overlap``; the two RNG uses
    are driven by one seeded stream, so the fleet is a pure function of
    its arguments.  ``source_bw`` defaults to the scenario platform's
    own source bandwidth — each channel's origin is provisioned like the
    single-tenant source; ``demand`` applies to every session.
    """
    if num_sessions < 1:
        raise ValueError(f"num_sessions must be >= 1, got {num_sessions}")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    run = spec.build(seed, name=name or getattr(scenario, "name", "") or "")
    origin = run.platform.source_bw if source_bw is None else source_bw

    node_ids = sorted(
        set(run.platform.nodes)
        | {
            ev.node_id
            for ev in run.events
            if isinstance(ev, NodeJoin) and ev.node_id is not None
        }
    )
    rng = random.Random(f"{seed}:fleet:{num_sessions}:{overlap}")
    session_names = [f"s{k}" for k in range(num_sessions)]
    members: Dict[str, list[int]] = {s: [] for s in session_names}
    membership: Dict[int, tuple[str, ...]] = {}
    for node in node_ids:
        primary = rng.randrange(num_sessions)
        subscribed = [
            s
            for k, s in enumerate(session_names)
            if k == primary or (num_sessions > 1 and rng.random() < overlap)
        ]
        membership[node] = tuple(subscribed)
        for s in subscribed:
            members[s].append(node)

    sessions = tuple(
        SessionSpec(
            name=s,
            source_bw=origin,
            demand=demand,
            members=tuple(members[s]),
        )
        for s in session_names
    )
    return FleetRun(
        name=run.name,
        platform=run.platform,
        events=run.events,
        horizon=run.horizon,
        seed=seed,
        sessions=sessions,
        membership=membership,
    )
