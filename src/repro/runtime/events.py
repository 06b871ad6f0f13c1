"""Platform events and the mutable node population they act on.

The static optimization problem of the paper freezes the platform: a
source, ``n`` open nodes, ``m`` guarded nodes, fixed bandwidths.  The
runtime subsystem lifts that restriction.  A :class:`DynamicPlatform`
holds the *live* population keyed by stable external node ids, and three
event types mutate it over (slotted) time:

* :class:`NodeJoin` — a peer arrives with a class and an upload bandwidth;
* :class:`NodeLeave` — a peer departs or crashes (the source never leaves);
* :class:`BandwidthDrift` — a peer's upload bandwidth changes in place.

Events are totally ordered by :class:`EventQueue` (a heapq keyed on
``(time, sequence)``, so simultaneous events preserve insertion order).
Scenario generators (:mod:`repro.runtime.scenarios`) emit event lists;
the engine (:mod:`repro.runtime.engine`) drains the queue and re-runs the
bounded multi-port optimizer on snapshots of the surviving swarm.

The bridge back to the static solvers is :meth:`DynamicPlatform.snapshot`:
it canonicalizes the alive population into an :class:`~repro.core.instance.
Instance` (class-wise sorted, as every algorithm requires) and returns the
id map from canonical node positions back to external ids.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from ..core.instance import Instance, NodeKind, canonicalize_population

__all__ = [
    "Event",
    "NodeJoin",
    "NodeLeave",
    "BandwidthDrift",
    "EventQueue",
    "NodeState",
    "DynamicPlatform",
]


@dataclass(frozen=True)
class Event:
    """Base class: something that happens to the platform at ``time``.

    ``time`` is measured in simulation slots (the unit of
    :func:`~repro.simulation.packet_sim.simulate_packet_broadcast`).
    """

    time: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class NodeJoin(Event):
    """A peer arrives.

    ``node_id`` may be pre-assigned by the scenario generator (so later
    events can target the same peer); when ``None`` the platform assigns
    the next fresh id on application.
    """

    kind: str = NodeKind.OPEN
    bandwidth: float = 1.0
    node_id: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in (NodeKind.OPEN, NodeKind.GUARDED):
            raise ValueError(f"unknown node kind {self.kind!r}")
        if not self.bandwidth >= 0:
            raise ValueError(f"join bandwidth must be >= 0, got {self.bandwidth}")


@dataclass(frozen=True)
class NodeLeave(Event):
    """A peer departs (gracefully or by crashing — the model is the same:
    all of its overlay edges go dark)."""

    node_id: int = -1


@dataclass(frozen=True)
class BandwidthDrift(Event):
    """A peer's upload bandwidth changes to ``bandwidth``."""

    node_id: int = -1
    bandwidth: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.bandwidth >= 0:
            raise ValueError(f"drift bandwidth must be >= 0, got {self.bandwidth}")


class EventQueue:
    """Min-heap of events keyed on ``(time, insertion order)``.

    Ties on ``time`` pop in insertion order, so scenario generators can
    rely on e.g. a leave scheduled before a join at the same slot being
    applied first.
    """

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self._seq = itertools.count()
        self._heap: list[tuple[int, int, Event]] = []
        for ev in events:
            self.push(ev)

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, (event.time, next(self._seq), event))

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def peek_time(self) -> Optional[int]:
        """Time of the earliest pending event (None when empty)."""
        return self._heap[0][0] if self._heap else None

    def pop_until(self, time: int) -> list[Event]:
        """Pop every event with ``event.time <= time``, in order."""
        fired = []
        while self._heap and self._heap[0][0] <= time:
            fired.append(heapq.heappop(self._heap)[2])
        return fired

    def drain(self) -> Iterator[Event]:
        """Pop everything in order (mainly for tests/inspection)."""
        while self._heap:
            yield heapq.heappop(self._heap)[2]


@dataclass
class NodeState:
    """Lifecycle record of one peer, kept even after departure."""

    node_id: int
    kind: str
    bandwidth: float
    alive: bool = True
    joined_at: int = 0
    left_at: Optional[int] = None


@dataclass
class DynamicPlatform:
    """The mutable population: a source plus an evolving receiver set.

    External node ids are stable for the whole run (the source is always
    id 0); canonical instance positions are *not* stable — they change
    with every join/leave/drift — which is exactly why :meth:`snapshot`
    returns the id map alongside the instance.
    """

    source_bw: float
    nodes: dict[int, NodeState] = field(default_factory=dict)
    _next_id: int = 1

    @classmethod
    def from_instance(cls, instance: Instance) -> "DynamicPlatform":
        """Seed the population from a static instance.

        External ids 1..n+m initially coincide with the canonical paper
        indexing of ``instance`` (they diverge as soon as churn starts).
        """
        platform = cls(source_bw=instance.source_bw)
        for i in instance.receivers():
            platform.nodes[i] = NodeState(
                node_id=i,
                kind=instance.kind(i),
                bandwidth=instance.bandwidth(i),
            )
        platform._next_id = instance.num_nodes
        return platform

    # ------------------------------------------------------------------
    # Population queries
    # ------------------------------------------------------------------
    def alive_ids(self) -> list[int]:
        """Ids of the currently-alive receivers (sorted, source excluded)."""
        return sorted(i for i, s in self.nodes.items() if s.alive)

    def is_alive(self, node_id: int) -> bool:
        if node_id == 0:
            return True  # the source never fails in the model
        state = self.nodes.get(node_id)
        return state is not None and state.alive

    @property
    def num_alive(self) -> int:
        return sum(1 for s in self.nodes.values() if s.alive)

    @property
    def next_id(self) -> int:
        """The id the next anonymous :class:`NodeJoin` would receive."""
        return self._next_id

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply(self, event: Event) -> int:
        """Apply one event; returns the affected external node id."""
        if isinstance(event, NodeJoin):
            node_id = event.node_id
            if node_id is None:
                node_id = self._next_id
            if node_id in self.nodes and self.nodes[node_id].alive:
                raise ValueError(f"node {node_id} joined twice")
            self._next_id = max(self._next_id, node_id + 1)
            self.nodes[node_id] = NodeState(
                node_id=node_id,
                kind=event.kind,
                bandwidth=event.bandwidth,
                joined_at=event.time,
            )
            return node_id
        if isinstance(event, NodeLeave):
            state = self._live_state(event.node_id, "leave")
            state.alive = False
            state.left_at = event.time
            return event.node_id
        if isinstance(event, BandwidthDrift):
            state = self._live_state(event.node_id, "drift")
            state.bandwidth = event.bandwidth
            return event.node_id
        raise TypeError(f"unknown event type {type(event).__name__}")

    def _live_state(self, node_id: int, what: str) -> NodeState:
        if node_id == 0:
            raise ValueError(f"the source cannot {what}")
        state = self.nodes.get(node_id)
        if state is None or not state.alive:
            raise ValueError(f"{what} targets unknown/departed node {node_id}")
        return state

    def alive_capacities(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, bandwidths)`` arrays of the alive receivers, ids
        ascending as :meth:`alive_ids` lists them: the oracle uploads
        estimation error is scored against."""
        states = self.nodes
        ids = np.fromiter(
            (i for i, s in states.items() if s.alive), dtype=np.int64
        )
        bandwidths = np.fromiter(
            (s.bandwidth for s in states.values() if s.alive),
            dtype=np.float64,
            count=len(ids),
        )
        order = np.argsort(ids, kind="stable")
        return ids[order], bandwidths[order]

    def true_capacities(self, node_ids: Iterable[int]) -> list[float]:
        """Oracle upload capacity per external id, in ``node_ids`` order.

        Id 0 is the source; departed or unknown peers report 0.0 (their
        edges are dark).  This is *the* rule for clipping a plan's edge
        rates back to ground truth — shared by the engine's estimation
        transport and the flow-level estimation-gap analysis so the two
        paths cannot drift.
        """
        caps = []
        for node_id in node_ids:
            if node_id == 0:
                caps.append(self.source_bw)
            else:
                state = self.nodes.get(node_id)
                caps.append(0.0 if state is None else state.bandwidth)
        return caps

    # ------------------------------------------------------------------
    # Bridge to the static optimizer
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple[Instance, list[int]]:
        """Canonical instance of the alive swarm plus the id map.

        Returns ``(instance, node_ids)`` where ``node_ids[k]`` is the
        external id of canonical node ``k`` (``node_ids[0] == 0``, the
        source).  Every solver output computed on ``instance`` can be
        mapped back to live peers through this list.
        """
        nodes = sorted(self.nodes.items())
        opens = [
            (i, s.bandwidth)
            for i, s in nodes
            if s.alive and s.kind == NodeKind.OPEN
        ]
        guardeds = [
            (i, s.bandwidth)
            for i, s in nodes
            if s.alive and s.kind == NodeKind.GUARDED
        ]
        return canonicalize_population(self.source_bw, opens, guardeds)
