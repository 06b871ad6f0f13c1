"""The arbitration core shared by the fleet and the control plane.

Under the bounded multi-port model each peer's upload is one budget.
:class:`~repro.sessions.fleet.FleetEngine` and
:class:`~repro.service.plane.ControlPlane` split it across sessions
through this one pipeline: the alive snapshot of the shared platform,
one :class:`~repro.sessions.broker.SessionClaim` per spec (alive members
only), the broker round, and the admission verdict on the resulting
Lemma 5.1 bounds.  Each caller keeps its own reject policy (the fleet
drops the lowest-priority victim and re-arbitrates, the plane refuses
the candidate) and its own grant-diff -> event translation.

Sessions couple only through shared member nodes, so every registered
broker's round factorizes exactly over the connected components of the
claim-member graph.  On a platform that does not change, a component
whose claims did not change has a bit-identical fragment, which a
memoizing :class:`Arbiter` serves from a FIFO memo without running the
broker.  The plane memoizes when it plans incrementally (its platform is
static while it runs); the fleet's platform churns, so it never does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .broker import (
    Allocation,
    CapacityBroker,
    SessionClaim,
    broker_names,
    make_broker,
)
from .spec import SessionSpec

__all__ = [
    "ADMISSIONS",
    "AdmissionPolicy",
    "Arbiter",
    "GRANT_EPS",
    "admission_names",
    "alive_snapshot",
    "get_admission",
    "make_claim",
    "resolve_arbitration",
    "serves_nobody",
]

#: Grant changes below this (bandwidth units) emit no event.
GRANT_EPS = 1e-9

#: Arbitration fragments memoized per claim component (FIFO-evicted).
_FRAGMENT_CAP = 1024


@dataclass(frozen=True)
class AdmissionPolicy:
    """What happens to a session whose bound falls below the floor."""

    name: str
    rejects: bool  #: True: drop the session; False: admit it, marked degraded

    def verdict(self, bound: float, floor: float) -> str:
        """``"admitted"``, ``"degraded"`` or ``"rejected"`` for ``bound``."""
        if bound >= floor:
            return "admitted"
        return "rejected" if self.rejects else "degraded"


#: Name -> policy registry, read by the CLI's ``--help``/``--list`` (like
#: CONTROLLERS / PLANNERS / BROKERS: never hard-code these choices).
ADMISSIONS: Dict[str, AdmissionPolicy] = {
    "reject": AdmissionPolicy("reject", rejects=True),
    "degrade": AdmissionPolicy("degrade", rejects=False),
}


def get_admission(name: str) -> AdmissionPolicy:
    try:
        return ADMISSIONS[name]
    except KeyError:
        known = ", ".join(sorted(ADMISSIONS))
        raise KeyError(
            f"unknown admission policy {name!r} (known: {known})"
        ) from None


def admission_names() -> list[str]:
    return sorted(ADMISSIONS)


def resolve_arbitration(
    broker: Union[str, CapacityBroker], admission: str, admission_floor: float
) -> Tuple[CapacityBroker, AdmissionPolicy, float]:
    """Validate a broker / admission / floor configuration (``ValueError``
    on a bad one) and resolve the registry names."""
    if isinstance(broker, str) and broker not in broker_names():
        raise ValueError(
            f"unknown broker {broker!r} (known: {', '.join(broker_names())})"
        )
    if admission not in ADMISSIONS:
        raise ValueError(
            f"unknown admission policy {admission!r} "
            f"(known: {', '.join(admission_names())})"
        )
    if not admission_floor >= 0:
        raise ValueError(
            f"admission_floor must be >= 0, got {admission_floor}"
        )
    if isinstance(broker, str):
        broker = make_broker(broker)
    return broker, ADMISSIONS[admission], float(admission_floor)


def alive_snapshot(platform) -> Tuple[Dict[int, str], Dict[int, float]]:
    """Kind and total upload of every alive node, in node order."""
    kinds: Dict[int, str] = {}
    bandwidths: Dict[int, float] = {}
    for node_id, state in platform.nodes.items():
        if state.alive:
            kinds[node_id] = state.kind
            bandwidths[node_id] = state.bandwidth
    return kinds, bandwidths


def make_claim(spec: SessionSpec, bandwidths: Dict[int, float]) -> SessionClaim:
    """The session's standing in a round: its spec over alive members."""
    return SessionClaim(
        name=spec.name,
        source_bw=spec.source_bw,
        demand=spec.demand,
        priority=spec.priority,
        members=tuple(n for n in spec.members if n in bandwidths),
    )


def serves_nobody(spec: SessionSpec, bandwidths: Dict[int, float]) -> bool:
    """The no-alive-member rule: such a session has nobody to serve and a
    vacuously infinite Lemma 5.1 bound (it would sail over any floor and
    poison every aggregate), so it is rejected under either policy,
    before any arbitration."""
    return not any(n in bandwidths for n in spec.members)


def claim_components(
    claims: Sequence[SessionClaim],
) -> List[Tuple[SessionClaim, ...]]:
    """Connected components of the claim-member bipartite graph,
    ordered by first claim; claims inside keep their submission order.
    Sessions couple *only* through shared member nodes, so every
    registered broker's arbitration factorizes exactly over these
    components (per-node splits see only that node's subscribers; the
    waterfill feedback rounds couple a session only to its own
    members)."""
    parent = list(range(len(claims)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: Dict[int, int] = {}
    for i, claim in enumerate(claims):
        for node in claim.members:
            j = owner.setdefault(node, i)
            if j != i:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: Dict[int, List[SessionClaim]] = {}
    for i, claim in enumerate(claims):
        groups.setdefault(find(i), []).append(claim)
    return [tuple(groups[root]) for root in sorted(groups)]


class Arbitration(NamedTuple):
    """One round's outcome plus the snapshot and claims it was made on."""

    alloc: Allocation
    kinds: Dict[int, str]
    bandwidths: Dict[int, float]
    claims: List[SessionClaim]
    #: session -> the claim component its fragment is memoized under
    #: (memoizing arbiters only): an unchanged key on an unchanged
    #: platform means bit-identical grants.
    keys: Dict[str, Tuple[SessionClaim, ...]]


class Arbiter:
    """Broker rounds over one shared platform, with their counters.

    ``memoize=False`` snapshots the platform, builds fresh claims and
    runs the broker once over all of them, every round.  ``memoize=True``
    needs a platform that does not change: it snapshots once, reuses a
    claim while its spec object is unchanged (specs are frozen and
    replaced on mutation) and arbitrates per component through the
    fragment memo.  Both give bit-identical allocations.  The broker is
    passed to every round, so callers may swap theirs at any time.
    """

    def __init__(self, platform, *, memoize: bool) -> None:
        self.platform = platform
        self.memoize = memoize
        self.rearbitrations = 0  #: rounds arbitrated
        self.arb_hits = 0  #: claim components served from the memo
        self.arb_misses = 0  #: broker calls
        self._snapshot: Optional[Tuple[Dict[int, str], Dict[int, float]]] = None
        self._claims: Dict[str, Tuple[SessionSpec, SessionClaim]] = {}
        self._fragments: Dict[Tuple[SessionClaim, ...], Allocation] = {}

    def alive(self) -> Tuple[Dict[int, str], Dict[int, float]]:
        """The platform's alive snapshot (taken once when memoizing)."""
        if not self.memoize:
            return alive_snapshot(self.platform)
        if self._snapshot is None:
            self._snapshot = alive_snapshot(self.platform)
        return self._snapshot

    def _claims_for(
        self, specs: Sequence[SessionSpec], bandwidths: Dict[int, float]
    ) -> List[SessionClaim]:
        if not self.memoize:
            return [make_claim(sp, bandwidths) for sp in specs]
        # Rebuilt from this round's specs, so stopped or refused
        # sessions do not linger in the memo.
        memo: Dict[str, Tuple[SessionSpec, SessionClaim]] = {}
        for sp in specs:
            hit = self._claims.get(sp.name)
            if hit is None or hit[0] is not sp:
                hit = (sp, make_claim(sp, bandwidths))
            memo[sp.name] = hit
        self._claims = memo
        return [claim for _spec, claim in memo.values()]

    def arbitrate(
        self, broker: CapacityBroker, specs: Sequence[SessionSpec]
    ) -> Arbitration:
        """One round of ``broker`` over ``specs`` (unique names)."""
        kinds, bandwidths = self.alive()
        claims = self._claims_for(specs, bandwidths)
        self.rearbitrations += 1
        if not self.memoize:
            self.arb_misses += 1
            alloc = broker.arbitrate(kinds, bandwidths, claims)
            return Arbitration(alloc, kinds, bandwidths, claims, {})
        alloc = Allocation()
        keys: Dict[str, Tuple[SessionClaim, ...]] = {}
        for component in claim_components(claims):
            fragment = self._fragments.get(component)
            if fragment is None:
                self.arb_misses += 1
                fragment = broker.arbitrate(kinds, bandwidths, list(component))
                self._fragments[component] = fragment
                if len(self._fragments) > _FRAGMENT_CAP:
                    self._fragments.pop(next(iter(self._fragments)))
            else:
                self.arb_hits += 1
            alloc.fractions.update(fragment.fractions)
            alloc.bounds.update(fragment.bounds)
            for claim in component:
                keys[claim.name] = component
        return Arbitration(alloc, kinds, bandwidths, claims, keys)
