"""Fleet-level analysis: aggregate vs per-session goodput, fairness.

:func:`fleet_flow_report` is the *flow-level* capacity view: one
arbitration round on a static fleet, each session's Theorem 4.1
optimum computed on its allocated sub-platform and compared against
its solo Lemma 5.1 bound.  No transport noise, no churn — this is the
deterministic instrument the sessions benchmark sweeps at ``n = 1000``,
where K engine runs per cell would dominate the wall clock.  The
engine-level broker comparison (full :class:`~repro.sessions.FleetEngine`
runs with churn and re-arbitration) is
:func:`~repro.experiments.ablations.sessions_ablation`.

The report gives Jain's fairness index over ceiling-normalized session
rates and the fleet aggregate against the sum of per-session bounds
(the uncontended ideal).
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Optional

from ..core.instance import NodeKind, canonicalize_population
from ..planning import PlanCache
from ..runtime.scenarios import Scenario
from ..sessions import (
    SessionClaim,
    jain_fairness,
    lemma51_bound,
    make_broker,
    make_fleet,
)
from ..sessions.arbiter import alive_snapshot, make_claim

__all__ = [
    "FleetFlowReport",
    "FlowSessionRow",
    "fleet_flow_report",
    "jain_fairness",
]


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
