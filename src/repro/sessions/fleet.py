"""The fleet engine: K concurrent broadcast sessions over one platform.

This is where the four shipped seams compose.  A :class:`FleetEngine`
run has two phases:

1. **Arbitration timeline** (:meth:`FleetEngine.prepare`).  The shared
   event list is walked once; at ``t=0`` and at every churn/drift
   boundary the :class:`~repro.sessions.broker.CapacityBroker`
   re-arbitrates each shared node's upload across its subscribed
   sessions.  The walk compiles one *session-local* workload per
   channel: a :class:`~repro.runtime.events.DynamicPlatform` whose
   member bandwidths are the broker's grants, plus an event list where
   shared joins/leaves become session joins/leaves and every allocation
   change lands as a :class:`~repro.runtime.events.BandwidthDrift` —
   so each session's controller reacts to broker decisions exactly as
   it reacts to physical drift.  Admission control runs before the
   walk: sessions whose allocated Lemma 5.1 bound sits below
   ``admission_floor`` are rejected (capacity returns to the pool and
   arbitration repeats) or admitted-but-degraded, per policy.
2. **Session execution** (:meth:`FleetEngine.run`).  Each admitted
   session is an independent :class:`~repro.runtime.engine.RuntimeEngine`
   run — its own controller, planner, plan cache and (optional)
   estimation loop over its own arborescence — so sessions shard across
   a process pool like batch jobs
   (:func:`~repro.runtime.batch.run_ordered`).  Results are
   bit-identical across ``serial`` and ``process`` modes and
   independent of dispatch order: every job is self-contained and
   seeded from the fleet seed plus the session *name*, never from
   scheduling.

Estimation is amortized fleet-wide: the fleet-level ``probes_per_node``
budget is scaled by ``initial alive / total subscriptions`` before it
reaches the per-session engines, so an overlapped fleet pays roughly
one platform's worth of probes per epoch in total, not K of them
(cross-session probe *sharing* is a roadmap follow-on).
"""

from __future__ import annotations

import copy
import math
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Union

from ..estimation.online import PROBES_PER_NODE
from ..runtime.batch import run_ordered
from ..runtime.controller import make_controller
from ..runtime.engine import RunResult, RuntimeEngine
from ..runtime.events import (
    BandwidthDrift,
    DynamicPlatform,
    Event,
    EventQueue,
    NodeJoin,
    NodeLeave,
    NodeState,
)
from .arbiter import (
    GRANT_EPS,
    Arbiter,
    make_claim,
    resolve_arbitration,
    serves_nobody,
)
from .broker import Allocation, CapacityBroker, lemma51_bound
from .spec import FleetRun, SessionSpec

__all__ = [
    "FleetEngine",
    "FleetResult",
    "SessionResult",
    "jain_fairness",
    "session_goodput",
]

def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)`` in ``(0, 1]``.

    1.0 means perfectly even; ``1/n`` means one value holds everything.
    Empty or all-zero inputs score 1.0 (nothing is unfairly shared).
    """
    values = list(values)
    square_sum = sum(v * v for v in values)
    if not values or square_sum <= 0:
        return 1.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


def session_goodput(result: Optional[RunResult]) -> float:
    """Slot-weighted mean of per-epoch mean receiver goodput (a rate).

    Epochs with no alive receiver are skipped — a drained session has
    nobody to measure, and its vacuous epochs must neither drag the
    mean down nor prop it up.
    """
    if result is None:
        return 0.0
    served = [e for e in result.epochs if e.num_alive > 0]
    slots = sum(e.slots for e in served)
    if slots == 0:
        return 0.0
    return math.fsum(e.mean_goodput * e.slots for e in served) / slots


@dataclass(frozen=True)
class _SessionJob:
    """One session's self-contained engine run (picklable)."""

    name: str
    platform: DynamicPlatform
    events: tuple[Event, ...]
    horizon: int
    seed: Optional[int]
    controller: str
    controller_kwargs: tuple
    engine_kwargs: tuple


def _run_session(job: _SessionJob, cache=None) -> tuple[str, RunResult, int]:
    """Execute one session job (top-level: picklable for pools).

    The engine consumes a *copy* of the job's platform, so jobs stay
    pristine: ``FleetEngine.run`` can be called repeatedly (and in
    different modes) against the same prepared jobs.  ``cache`` is an
    optional shared :class:`~repro.planning.PlanCache` — only injected
    on in-process execution, where no pool boundary is in play.
    """
    platform = copy.deepcopy(job.platform)
    engine = RuntimeEngine(
        platform,
        job.events,
        job.horizon,
        seed=job.seed,
        cache=cache,
        **dict(job.engine_kwargs),
    )
    controller = make_controller(job.controller, **dict(job.controller_kwargs))
    result = engine.run(controller)
    result.scenario = job.name
    return job.name, result, platform.num_alive


@dataclass
class SessionResult:
    """One channel's outcome inside a fleet run."""

    name: str
    status: str  #: ``"admitted"`` / ``"degraded"`` / ``"rejected"``
    demand: float
    priority: float
    subscribed: int  #: external ids ever subscribed to the session
    initial_members: int  #: alive members at admission time
    bound: float  #: Lemma 5.1 bound under the initial allocation
    solo_bound: float  #: bound with every member's full upload (uncontended)
    min_bound: float  #: worst allocated bound over the whole timeline
    result: Optional[RunResult] = None  #: ``None`` for rejected sessions
    final_alive: int = 0

    @property
    def goodput(self) -> float:
        """Mean per-receiver delivered rate over the run (0 if rejected)."""
        return session_goodput(self.result)

    @property
    def ceiling(self) -> float:
        """The rate this session could ever reach: ``min(demand, solo)``.

        0.0 when unbounded (a memberless session has a vacuous infinite
        bound — it can serve nobody, so its ceiling is nothing).
        """
        ceiling = min(self.demand, self.solo_bound)
        return ceiling if math.isfinite(ceiling) else 0.0


@dataclass
class FleetResult:
    """Everything one fleet run produced."""

    scenario: str
    broker: str
    admission: str
    admission_floor: float
    horizon: int
    seed: Optional[int]
    sessions: list[SessionResult]
    rearbitrations: int  #: broker rounds the timeline paid for
    probes_per_node: float = 0.0  #: per-session budget after amortization
    wall_time: float = field(default=0.0, compare=False)

    @property
    def admitted(self) -> list[SessionResult]:
        return [s for s in self.sessions if s.status != "rejected"]

    @property
    def admission_rate(self) -> float:
        if not self.sessions:
            return 1.0
        return len(self.admitted) / len(self.sessions)

    @property
    def aggregate_goodput(self) -> float:
        """Sum of admitted sessions' mean delivered rates (fleet goodput)."""
        return math.fsum(s.goodput for s in self.admitted)

    @property
    def bound_sum(self) -> float:
        """Sum of admitted sessions' rate ceilings (the uncontended ideal)."""
        return sum(s.ceiling for s in self.admitted)

    @property
    def fairness(self) -> float:
        """Jain index of admitted sessions' goodput, normalized by ceiling."""
        return jain_fairness(
            [
                s.goodput / s.ceiling
                for s in self.admitted
                if s.ceiling > 0
            ]
        )

    @property
    def worst_session_goodput(self) -> float:
        if not self.admitted:
            return 0.0
        return min(s.goodput for s in self.admitted)

    @property
    def total_rebuilds(self) -> int:
        return sum(s.result.rebuilds for s in self.admitted if s.result)

    @property
    def total_probes(self) -> int:
        return sum(s.result.probes for s in self.admitted if s.result)


class FleetEngine:
    """Drives K sessions over one shared platform under one broker."""

    def __init__(
        self,
        platform: DynamicPlatform,
        events: Iterable[Event],
        horizon: int,
        sessions: Sequence[SessionSpec],
        membership: Optional[Dict[int, tuple[str, ...]]] = None,
        *,
        broker: Union[str, CapacityBroker] = "waterfill",
        admission: str = "degrade",
        admission_floor: float = 0.0,
        seed: Optional[int] = 0,
        controller: str = "reactive",
        controller_kwargs: Optional[dict] = None,
        scenario: str = "",
        cache=None,
        **engine_kwargs,
    ) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if not sessions:
            raise ValueError("a fleet needs at least one session")
        names = [s.name for s in sessions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate session names: {names}")
        self.broker, self.admission, self.admission_floor = (
            resolve_arbitration(broker, admission, admission_floor)
        )
        self.platform = platform
        self.events = tuple(events)
        self.horizon = int(horizon)
        self.sessions = tuple(sessions)
        self.membership = dict(membership or {})
        self.seed = seed
        self.controller = controller
        self.controller_kwargs = tuple(sorted((controller_kwargs or {}).items()))
        self.scenario = scenario
        #: Optional shared PlanCache, used only for in-process execution
        #: (a pool boundary cannot share it).
        self.cache = cache
        self.engine_kwargs = dict(engine_kwargs)
        self._prepared: Optional[list[_SessionJob]] = None
        self._results: Optional[Dict[str, SessionResult]] = None
        #: Unmemoized: the platform churns between rounds.
        self._arbiter = Arbiter(platform, memoize=False)
        self.probes_per_node = 0.0

    @property
    def rearbitrations(self) -> int:
        """Broker rounds the timeline paid for (admission trials too)."""
        return self._arbiter.rearbitrations

    @classmethod
    def from_fleet(cls, fleet: FleetRun, **kwargs) -> "FleetEngine":
        """Build an engine straight from :func:`~repro.sessions.make_fleet`."""
        kwargs.setdefault("seed", fleet.seed)
        return cls(
            fleet.platform,
            fleet.events,
            fleet.horizon,
            fleet.sessions,
            fleet.membership,
            scenario=fleet.name,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Phase 1: the arbitration timeline
    # ------------------------------------------------------------------
    def _admit(self) -> tuple[list[SessionSpec], Dict[str, str], Allocation]:
        """Start-of-stream admission control on the initial allocation.

        Under the ``reject`` policy the lowest-priority below-floor
        session is dropped and arbitration repeats (its members' upload
        returns to the pool, which can lift the survivors above the
        floor); under ``degrade`` every below-floor session is admitted
        but marked, so operators see which channels run underwater.
        Sessions with no alive member at start of stream are rejected
        under either policy (:func:`~repro.sessions.arbiter.serves_nobody`).
        """
        _kinds, bandwidths = self._arbiter.alive()
        status = {
            sp.name: "rejected"
            for sp in self.sessions
            if serves_nobody(sp, bandwidths)
        }
        active = [sp for sp in self.sessions if sp.name not in status]
        while active:
            alloc = self._arbiter.arbitrate(self.broker, active).alloc
            verdicts = {
                sp.name: self.admission.verdict(
                    alloc.bounds.get(sp.name, 0.0), self.admission_floor
                )
                for sp in active
            }
            below = [sp for sp in active if verdicts[sp.name] == "rejected"]
            if not below:
                status.update(verdicts)
                return active, status, alloc
            victim = min(
                below,
                key=lambda sp: (sp.priority, alloc.bounds.get(sp.name, 0.0), sp.name),
            )
            status[victim.name] = "rejected"
            active.remove(victim)
        # Nobody is admitted, so nobody holds capacity: the last trial
        # allocation still carries the victims' grants and bounds, and
        # returning it would leak them into initial/min-bound accounting.
        return active, status, Allocation()

    def _membership_of(self, node_id: int) -> tuple[str, ...]:
        """Sessions a node subscribes to; unknown ids (anonymous joins)
        are pinned deterministically by hashing the id with the seed."""
        subs = self.membership.get(node_id)
        if subs is None:
            idx = zlib.crc32(
                f"{self.seed}:member:{node_id}".encode()
            ) % len(self.sessions)
            subs = (self.sessions[idx].name,)
            self.membership[node_id] = subs
        return subs

    def prepare(self) -> list[_SessionJob]:
        """Run the arbitration timeline; compile one job per session."""
        if self._prepared is not None:
            return self._prepared

        active, status, alloc = self._admit()
        self._status = status
        self._initial_bounds = dict(alloc.bounds)
        self._min_bounds = dict(alloc.bounds)
        kinds, bandwidths = self._arbiter.alive()
        claims = [make_claim(sp, bandwidths) for sp in self.sessions]
        self._solo_bounds = {
            claim.name: lemma51_bound(
                claim.source_bw, claim.demand, claim.members, kinds, bandwidths
            )
            for claim in claims
        }
        self._initial_members = {
            claim.name: len(claim.members) for claim in claims
        }

        # Fleet-wide probe amortization: scale the per-node budget so the
        # whole fleet pays ~one platform's worth of probes per boundary.
        fleet_pps = float(
            self.engine_kwargs.get("probes_per_node", PROBES_PER_NODE)
        )
        subscriptions = sum(
            self._initial_members[sp.name] for sp in active
        )
        alive_now = len(bandwidths)
        self.probes_per_node = (
            fleet_pps * alive_now / subscriptions if subscriptions else 0.0
        )

        # Session-local initial platforms: subscribed alive members at
        # their granted bandwidth; the session's own origin is node 0,
        # capped by demand (Lemma 5.1's first term, enforced natively).
        platforms: Dict[str, DynamicPlatform] = {}
        session_events: Dict[str, list[Event]] = {}
        granted: Dict[str, Dict[int, float]] = {}
        for sp in active:
            nodes = {
                n: NodeState(
                    node_id=n,
                    kind=kinds[n],
                    bandwidth=alloc.bandwidth(sp.name, n, bandwidths[n]),
                )
                for n in sp.members
                if n in bandwidths
            }
            platform = DynamicPlatform(
                source_bw=min(sp.source_bw, sp.demand), nodes=nodes
            )
            platform._next_id = max(
                self.platform.next_id, max(nodes, default=0) + 1
            )
            platforms[sp.name] = platform
            session_events[sp.name] = []
            granted[sp.name] = {
                n: st.bandwidth for n, st in nodes.items()
            }

        active_names = {sp.name for sp in active}
        queue = EventQueue(self.events)
        while queue:
            now = queue.peek_time()
            fired = queue.pop_until(now)
            applied: list[Event] = []
            for ev in fired:
                assigned = self.platform.apply(ev)
                if isinstance(ev, NodeJoin) and ev.node_id is None:
                    ev = NodeJoin(
                        time=ev.time,
                        kind=ev.kind,
                        bandwidth=ev.bandwidth,
                        node_id=assigned,
                    )
                applied.append(ev)
            arb = self._arbiter.arbitrate(self.broker, active)
            alloc, kinds, bandwidths = arb.alloc, arb.kinds, arb.bandwidths
            for name, bound in alloc.bounds.items():
                if bound < self._min_bounds.get(name, float("inf")):
                    self._min_bounds[name] = bound
            # Membership changes first (leaves before joins preserves the
            # shared ordering), then allocation ripples as drift events.
            for ev in applied:
                for name in self._membership_of(
                    ev.node_id if ev.node_id is not None else -1
                ):
                    if name not in active_names:
                        continue
                    if isinstance(ev, NodeLeave):
                        if granted[name].pop(ev.node_id, None) is not None:
                            session_events[name].append(
                                NodeLeave(time=now, node_id=ev.node_id)
                            )
                    elif isinstance(ev, NodeJoin):
                        share = alloc.bandwidth(
                            name, ev.node_id, ev.bandwidth
                        )
                        granted[name][ev.node_id] = share
                        session_events[name].append(
                            NodeJoin(
                                time=now,
                                kind=ev.kind,
                                bandwidth=share,
                                node_id=ev.node_id,
                            )
                        )
            for sp in active:
                grants = granted[sp.name]
                for node_id, old_share in grants.items():
                    if node_id not in bandwidths:
                        continue
                    share = alloc.bandwidth(
                        sp.name, node_id, bandwidths[node_id]
                    )
                    if abs(share - old_share) > GRANT_EPS:
                        grants[node_id] = share
                        session_events[sp.name].append(
                            BandwidthDrift(
                                time=now, node_id=node_id, bandwidth=share
                            )
                        )

        jobs = []
        engine_kwargs = dict(self.engine_kwargs)
        if engine_kwargs.get("estimation") == "online":
            engine_kwargs["probes_per_node"] = self.probes_per_node
        else:
            engine_kwargs.pop("probes_per_node", None)
        for sp in active:
            jobs.append(
                _SessionJob(
                    name=sp.name,
                    platform=platforms[sp.name],
                    events=tuple(session_events[sp.name]),
                    horizon=self.horizon,
                    seed=self._session_seed(sp.name),
                    controller=self.controller,
                    controller_kwargs=self.controller_kwargs,
                    engine_kwargs=tuple(sorted(engine_kwargs.items())),
                )
            )
        self._prepared = jobs
        return jobs

    def _session_seed(self, name: str) -> Optional[int]:
        """Per-session engine seed: a pure function of fleet seed and the
        session *name* — never of dispatch or spec order."""
        if self.seed is None:
            return None
        return (zlib.crc32(f"{self.seed}:{name}".encode()) ^ self.seed) & 0x7FFFFFFF

    # ------------------------------------------------------------------
    # Phase 2: session execution
    # ------------------------------------------------------------------
    def run(
        self, *, mode: str = "serial", max_workers: Optional[int] = None
    ) -> FleetResult:
        """Execute every admitted session; results in spec order.

        ``mode`` is ``"serial"`` (in-process) or ``"process"`` —
        identical results either way, sessions are independent trees.
        """
        started = time.perf_counter()  # repro: noqa REP002 -- wall_time telemetry in fleet result; not replayed
        outcomes = run_ordered(
            _run_session,
            self.prepare(),
            mode=mode,
            max_workers=max_workers,
            cache=self.cache,
        )
        by_name = {name: (result, alive) for name, result, alive in outcomes}

        session_results = []
        for sp in self.sessions:
            run_result, final_alive = by_name.get(sp.name, (None, 0))
            session_results.append(
                SessionResult(
                    name=sp.name,
                    status=self._status[sp.name],
                    demand=sp.demand,
                    priority=sp.priority,
                    subscribed=len(sp.members),
                    initial_members=self._initial_members.get(sp.name, 0),
                    bound=self._initial_bounds.get(sp.name, 0.0),
                    solo_bound=self._solo_bounds.get(sp.name, 0.0),
                    min_bound=self._min_bounds.get(sp.name, 0.0),
                    result=run_result,
                    final_alive=final_alive,
                )
            )
        return FleetResult(
            scenario=self.scenario,
            broker=self.broker.name,
            admission=self.admission.name,
            admission_floor=self.admission_floor,
            horizon=self.horizon,
            seed=self.seed,
            sessions=session_results,
            rearbitrations=self.rearbitrations,
            probes_per_node=self.probes_per_node,
            wall_time=time.perf_counter() - started,  # repro: noqa REP002 -- wall_time telemetry in fleet result; not replayed
        )
