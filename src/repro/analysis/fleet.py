"""Fleet-level analysis: aggregate vs per-session goodput, fairness.

Two instruments, mirroring the single-tenant analysis split:

* :func:`fleet_experiment` — the *engine-level* comparison: the same
  multi-tenant workload replayed under each broker policy through full
  :class:`~repro.sessions.FleetEngine` runs (churn, re-arbitration,
  transport validation included), condensed into one
  :class:`FleetComparisonRow` per broker.
* :func:`fleet_flow_report` — the *flow-level* capacity view: one
  arbitration round on a static fleet, each session's Theorem 4.1
  optimum computed on its allocated sub-platform and compared against
  its solo Lemma 5.1 bound.  No transport noise, no churn — this is the
  deterministic instrument the sessions benchmark sweeps at
  ``n = 1000``, where K engine runs per cell would dominate the wall
  clock.

Both report Jain's fairness index over ceiling-normalized session rates
and the fleet aggregate against the sum of per-session bounds (the
uncontended ideal).
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..core.instance import NodeKind, canonicalize_population
from ..planning import PlanCache
from ..runtime.scenarios import Scenario
from ..sessions import (
    FleetEngine,
    FleetResult,
    SessionClaim,
    jain_fairness,
    lemma51_bound,
    make_broker,
    make_fleet,
)
from ..sessions.arbiter import alive_snapshot, make_claim

__all__ = [
    "FleetComparisonRow",
    "FleetFlowReport",
    "FlowSessionRow",
    "fleet_experiment",
    "fleet_flow_report",
    "jain_fairness",
]


@dataclass(frozen=True)
class FleetComparisonRow:
    """One broker policy's engine-level outcome on a shared workload."""

    broker: str
    num_sessions: int
    admitted: int
    aggregate_goodput: float  #: sum of admitted sessions' mean rates
    bound_sum: float  #: sum of admitted sessions' rate ceilings
    fairness: float  #: Jain index over ceiling-normalized goodputs
    admission_rate: float
    worst_session: float  #: lowest admitted session mean rate
    rearbitrations: int
    session_goodputs: tuple[float, ...] = ()  #: per session, spec order


def fleet_experiment(
    scenario: Union[str, Scenario] = "steady-churn",
    num_sessions: int = 3,
    seed: int = 0,
    *,
    overlap: float = 0.3,
    brokers: Sequence[str] = ("equal", "proportional", "waterfill"),
    admission: str = "degrade",
    admission_floor: float = 0.0,
    controller: str = "reactive",
    mode: str = "serial",
    **engine_kwargs,
) -> list[FleetComparisonRow]:
    """Replay one multi-tenant workload under each broker policy.

    The fleet (membership, events, seeds) is identical across rows —
    :func:`~repro.sessions.make_fleet` is a pure function of its
    arguments — so every difference between rows is the broker's.
    """
    rows = []
    for broker in brokers:
        fleet = make_fleet(scenario, num_sessions, seed, overlap=overlap)
        result: FleetResult = FleetEngine.from_fleet(
            fleet,
            broker=broker,
            admission=admission,
            admission_floor=admission_floor,
            controller=controller,
            **engine_kwargs,
        ).run(mode=mode)
        rows.append(
            FleetComparisonRow(
                broker=broker,
                num_sessions=num_sessions,
                admitted=len(result.admitted),
                aggregate_goodput=result.aggregate_goodput,
                bound_sum=result.bound_sum,
                fairness=result.fairness,
                admission_rate=result.admission_rate,
                worst_session=result.worst_session_goodput,
                rearbitrations=result.rearbitrations,
                session_goodputs=tuple(
                    s.goodput for s in result.sessions
                ),
            )
        )
    return rows


@dataclass(frozen=True)
class FlowSessionRow:
    """One session's flow-level capacity under an allocation."""

    name: str
    members: int
    achieved_rate: float  #: Theorem 4.1 optimum of the allocated sub-platform
    solo_rate: float  #: Theorem 4.1 optimum at full member upload
    solo_bound: float  #: Lemma 5.1 bound at full member upload
    alloc_bound: float  #: Lemma 5.1 bound under the allocation


@dataclass(frozen=True)
class FleetFlowReport:
    """Flow-level capacity of one arbitration round."""

    broker: str
    size: int
    num_sessions: int
    overlap: float
    sessions: tuple[FlowSessionRow, ...]

    @property
    def aggregate_rate(self) -> float:
        return math.fsum(s.achieved_rate for s in self.sessions)

    @property
    def bound_sum(self) -> float:
        return math.fsum(s.solo_bound for s in self.sessions)

    @property
    def fairness(self) -> float:
        return jain_fairness(
            [
                s.achieved_rate / s.solo_bound
                for s in self.sessions
                if s.solo_bound > 0
            ]
        )


def fleet_flow_report(
    size: int,
    num_sessions: int,
    *,
    broker: str = "waterfill",
    overlap: float = 0.0,
    seed: int = 0,
    open_prob: float = 0.7,
    distribution: str = "Unif100",
    demand: float = float("inf"),
    cache: Optional[PlanCache] = None,
) -> FleetFlowReport:
    """One arbitration on a static fleet, solved exactly per session."""
    fleet = make_fleet(
        Scenario(size=size, open_prob=open_prob, distribution=distribution),
        num_sessions,
        seed,
        overlap=overlap,
        demand=demand,
    )
    cache = cache if cache is not None else PlanCache()
    kinds, bandwidths = alive_snapshot(fleet.platform)
    claims = [make_claim(sp, bandwidths) for sp in fleet.sessions]
    alloc = make_broker(broker).arbitrate(kinds, bandwidths, claims)

    def solve(claim: SessionClaim, fraction_of) -> float:
        b0 = min(claim.source_bw, claim.demand)
        opens = [
            (n, fraction_of(n) * bandwidths[n])
            for n in claim.members
            if kinds[n] != NodeKind.GUARDED
        ]
        guardeds = [
            (n, fraction_of(n) * bandwidths[n])
            for n in claim.members
            if kinds[n] == NodeKind.GUARDED
        ]
        instance, _ids = canonicalize_population(b0, opens, guardeds)
        return cache.optimal_rate(instance)

    rows = []
    for claim in claims:
        fractions = alloc.fractions[claim.name]
        rows.append(
            FlowSessionRow(
                name=claim.name,
                members=len(claim.members),
                achieved_rate=solve(
                    claim, lambda n, f=fractions: f.get(n, 0.0)
                ),
                solo_rate=solve(claim, lambda _n: 1.0),
                solo_bound=lemma51_bound(
                    claim.source_bw,
                    claim.demand,
                    claim.members,
                    kinds,
                    bandwidths,
                ),
                alloc_bound=alloc.bounds[claim.name],
            )
        )
    return FleetFlowReport(
        broker=broker,
        size=size,
        num_sessions=num_sessions,
        overlap=overlap,
        sessions=tuple(rows),
    )
