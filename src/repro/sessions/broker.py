"""The capacity broker: split each shared node's upload across sessions.

The bounded multi-port model bounds a node's *aggregate* outgoing
bandwidth; nothing in Theorem 4.1 says all of it must serve one
broadcast.  A production fleet runs many channels at once, and a peer
subscribed to several of them contributes its upload to each — the
broker decides the split.  Formally: for every shared node ``i`` with
upload ``b_i`` subscribed to sessions ``S_i``, the broker chooses
fractions ``f_{s,i} >= 0`` with ``sum_s f_{s,i} <= 1``; session ``s``
then optimizes its own Theorem 4.1 overlay on a sub-platform where node
``i`` uploads ``f_{s,i} * b_i``.

Three policies ship, spanning the obvious design space:

* :class:`EqualShareBroker` — ``1/k`` per subscribed session.  Fair by
  construction, wasteful whenever needs differ: a near-saturated session
  cannot use its share while a starving co-subscriber could.
* :class:`ProportionalBroker` — shares proportional to
  ``priority * effective demand``, where the effective demand is capped
  by the session's *solo* Lemma 5.1 bound (demand the session could
  never convert into rate is not a claim).
* :class:`WaterfillBroker` — progressive filling toward each session's
  Lemma 5.1 bound: every session requests only the member upload it
  needs to sustain ``min(demand, solo bound)``, per-node contention is
  resolved by water-filling (everyone gets ``min(request, theta)`` with
  a common level ``theta``), and sessions left short raise their
  requests on uncontended members over a few deterministic rounds.
  Surplus capacity a capped session cannot use therefore flows to
  co-subscribers that can — the multi-channel analogue of the paper's
  "heterogeneity is a blessing" observation.

Brokers are registered by name in :data:`BROKERS` so the CLI and
picklable batch job specs can spawn them (mirroring the controller and
planner registries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Sequence, Tuple

from ..core.bounds import cyclic_bound
from ..core.instance import NodeKind

__all__ = [
    "SessionClaim",
    "Allocation",
    "CapacityBroker",
    "EqualShareBroker",
    "ProportionalBroker",
    "WaterfillBroker",
    "BROKERS",
    "make_broker",
    "broker_names",
    "lemma51_bound",
]

#: Fraction changes below this are treated as unchanged (so re-arbitration
#: does not flood sessions with no-op drift events).
FRACTION_EPS = 1e-9


@dataclass(frozen=True)
class SessionClaim:
    """One session's standing in an arbitration round (alive members only).

    ``demand`` is the session's target rate (``inf`` = best effort);
    ``source_bw`` is the session's *own* origin uplink — it is not a
    shared resource, but it caps the rate (Lemma 5.1's first term) and
    therefore how much member upload the session can usefully claim.
    """

    name: str
    source_bw: float
    demand: float = math.inf
    priority: float = 1.0
    members: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.source_bw < 0:
            raise ValueError(f"source_bw must be >= 0, got {self.source_bw}")
        if not self.demand > 0:
            raise ValueError(f"demand must be > 0, got {self.demand}")
        if not 0 < self.priority < math.inf:
            raise ValueError(
                f"priority must be finite and > 0, got {self.priority}"
            )


@dataclass
class Allocation:
    """One arbitration outcome: per-session, per-node upload fractions.

    ``fractions[session][node]`` is the fraction of the node's total
    upload granted to the session (fractions of a node sum to <= 1);
    ``bounds[session]`` is the session's Lemma 5.1 bound *under* the
    allocation — the rate ceiling the broker left it with.
    """

    fractions: Dict[str, Dict[int, float]] = field(default_factory=dict)
    bounds: Dict[str, float] = field(default_factory=dict)

    def fraction(self, session: str, node: int) -> float:
        return self.fractions.get(session, {}).get(node, 0.0)

    def bandwidth(self, session: str, node: int, total_bw: float) -> float:
        """Upload bandwidth the session may use on ``node``."""
        return self.fraction(session, node) * total_bw


def lemma51_bound(
    source_bw: float,
    demand: float,
    members: Iterable[int],
    kinds: Mapping[int, str],
    bandwidths: Mapping[int, float],
    fraction_of: Callable[[int], float] = lambda _node: 1.0,
) -> float:
    """Lemma 5.1 rate bound of one session's (possibly partial) platform.

    ``T* <= min(b0', (b0' + O) / m, (b0' + O + G) / (n + m))`` where
    ``b0' = min(source_bw, demand)`` — a channel's origin cannot usefully
    inject beyond the stream's demand rate, so demand caps the first term
    natively — and ``O`` / ``G`` sum the members' *allocated* uploads
    (``fraction_of(node) * bandwidth``).  ``inf`` for a memberless
    session (nothing to bound).
    """
    b0 = min(source_bw, demand)
    n = m = 0
    open_sum = guarded_sum = 0.0
    for node in members:
        share = fraction_of(node) * bandwidths[node]
        if kinds[node] == NodeKind.GUARDED:
            m += 1
            guarded_sum += share
        else:
            n += 1
            open_sum += share
    return cyclic_bound(b0, n, m, open_sum, guarded_sum)


class CapacityBroker:
    """Base policy: per-node weighted split (subclasses set the weights).

    ``arbitrate`` receives the shared platform's alive receivers (kind
    and total upload per external id) plus one :class:`SessionClaim` per
    active session, and returns an :class:`Allocation`.  The default
    implementation computes one weight per session
    (:meth:`_session_weights`) and splits every shared node
    proportionally among its subscribers; :class:`WaterfillBroker`
    overrides the whole round instead.  :class:`ProportionalBroker`
    gives its weights as factor pairs (:meth:`_session_factors`), so a
    subscriber group whose total overflows is rescaled on its own.
    """

    name = "base"

    def arbitrate(
        self,
        kinds: Mapping[int, str],
        bandwidths: Mapping[int, float],
        claims: Sequence[SessionClaim],
    ) -> Allocation:
        factors = self._session_factors(kinds, bandwidths, claims)
        subscribers = _subscriber_sets(claims)
        splits: Dict[Tuple[str, ...], list[float]] = {}
        for names in dict.fromkeys(subscribers.values()):
            splits[names] = _weighted_split([factors[n] for n in names])
        alloc = Allocation(
            fractions={claim.name: {} for claim in claims}
        )
        fractions = alloc.fractions
        for node, names in subscribers.items():
            for name, fraction in zip(names, splits[names]):
                fractions[name][node] = fraction
        _fill_bounds(alloc, kinds, bandwidths, claims)
        return alloc

    def _session_weights(
        self,
        kinds: Mapping[int, str],
        bandwidths: Mapping[int, float],
        claims: Sequence[SessionClaim],
    ) -> Dict[str, float]:
        raise NotImplementedError

    def _session_factors(
        self,
        kinds: Mapping[int, str],
        bandwidths: Mapping[int, float],
        claims: Sequence[SessionClaim],
    ) -> Dict[str, Tuple[float, float]]:
        """Each session's weight as a ``(priority, ceiling)`` product;
        by default ``(weight, 1.0)``."""
        weights = self._session_weights(kinds, bandwidths, claims)
        return {name: (weight, 1.0) for name, weight in weights.items()}


def _weighted_split(factors: Sequence[Tuple[float, float]]) -> list[float]:
    """One subscriber group's fractions, proportional to ``p * c`` per
    ``(p, c)`` pair (even when every weight is 0).  A group whose total
    overflows scales its priorities by one power of two, exact while they
    stay normal, so its weights sum below 1; other groups are untouched.
    """
    weights = [p * c for p, c in factors]
    total = sum(weights)
    if math.isinf(total):
        shift = len(factors).bit_length() + max(
            math.frexp(p)[1] + math.frexp(c)[1] for p, c in factors
        )
        weights = [math.ldexp(p, -shift) * c for p, c in factors]
        total = sum(weights)
    return [
        weight / total if total > 0 else 1.0 / len(weights)
        for weight in weights
    ]


def _subscriber_sets(
    claims: Iterable[SessionClaim],
) -> Dict[int, Tuple[str, ...]]:
    """Node -> the names of its subscribing claims (claim order), in
    first-subscription node order.  A node's split depends only on this
    tuple, and a component has only a handful of distinct tuples, so
    every broker computes one split per tuple rather than per node."""
    subscribers: Dict[int, list[str]] = {}
    for claim in claims:
        for node in claim.members:
            subscribers.setdefault(node, []).append(claim.name)
    return {node: tuple(names) for node, names in subscribers.items()}


def _fill_bounds(
    alloc: Allocation,
    kinds: Mapping[int, str],
    bandwidths: Mapping[int, float],
    claims: Sequence[SessionClaim],
) -> None:
    for claim in claims:
        fractions = alloc.fractions[claim.name]
        alloc.bounds[claim.name] = lemma51_bound(
            claim.source_bw,
            claim.demand,
            claim.members,
            kinds,
            bandwidths,
            fractions.get,
        )


def _solo_ceiling(
    claim: SessionClaim,
    kinds: Mapping[int, str],
    bandwidths: Mapping[int, float],
) -> float:
    """``min(demand, solo Lemma 5.1 bound)`` — the rate the session could
    sustain with *every* member's full upload to itself.  Always finite
    for a session with members (it is capped by ``b0``)."""
    return lemma51_bound(
        claim.source_bw, claim.demand, claim.members, kinds, bandwidths
    )


class EqualShareBroker(CapacityBroker):
    """Every subscriber of a node gets the same fraction (``1/k``)."""

    name = "equal"

    def _session_weights(self, kinds, bandwidths, claims):
        return {claim.name: 1.0 for claim in claims}


class ProportionalBroker(CapacityBroker):
    """Shares proportional to ``priority * min(demand, solo bound)``.

    The solo-bound cap keeps an infinite best-effort demand from
    swallowing every shared node: a session can never convert more than
    its Lemma 5.1 ceiling into rate, so that ceiling is its claim.
    """

    name = "proportional"

    def _session_factors(self, kinds, bandwidths, claims):
        factors = {}
        for claim in claims:
            ceiling = _solo_ceiling(claim, kinds, bandwidths)
            factors[claim.name] = (
                claim.priority, ceiling if math.isfinite(ceiling) else 1.0
            )
        return factors

    def _session_weights(self, kinds, bandwidths, claims):
        factors = self._session_factors(kinds, bandwidths, claims)
        return {name: p * c for name, (p, c) in factors.items()}


class WaterfillBroker(CapacityBroker):
    """Progressive filling toward each session's Lemma 5.1 bound.

    Each session targets ``T_s = min(demand, solo bound)``.  Sustaining
    ``T_s`` for its ``n_s + m_s`` members needs at most
    ``N_s = max(0, T_s * (n_s + m_s) - b0_s)`` of aggregate member
    upload (every receiver must be fed by somebody; the origin covers
    ``b0_s`` of it), so the session requests the uniform fraction
    ``f_s = min(1, N_s / B_s)`` of each member's upload (``B_s`` = the
    members' total).  Contended nodes are water-filled — each subscriber
    receives ``min(f_s, theta)`` with the level ``theta`` chosen to
    exhaust the node — and for ``rounds`` iterations every session still
    short of its need raises its request multiplicatively on the members
    that did not throttle it.  Uncapped leftovers only exist where no
    subscriber wants more, so uncontended fleets converge to their solo
    bounds and contended ones degrade gracefully (the fill level keeps
    every subscriber of a node strictly above zero).
    """

    name = "waterfill"

    def __init__(self, rounds: int = 3) -> None:
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        self.rounds = int(rounds)

    def arbitrate(self, kinds, bandwidths, claims):
        subscribers = _subscriber_sets(claims)
        tuples = tuple(dict.fromkeys(subscribers.values()))

        needs: Dict[str, float] = {}
        requests: Dict[str, float] = {}
        for claim in claims:
            target = _solo_ceiling(claim, kinds, bandwidths)
            size = len(claim.members)
            if not math.isfinite(target) or size == 0:
                needs[claim.name] = 0.0
                requests[claim.name] = 0.0
                continue
            b0 = min(claim.source_bw, claim.demand)
            open_sum = math.fsum(
                bandwidths[n]
                for n in claim.members
                if kinds[n] != NodeKind.GUARDED
            )
            guarded = [
                n for n in claim.members if kinds[n] == NodeKind.GUARDED
            ]
            total_bw = open_sum + math.fsum(bandwidths[n] for n in guarded)
            # Smallest uniform member fraction f that keeps both feeding
            # constraints of Lemma 5.1 at the target rate:
            # (b0 + f*(O+G)) / (n+m) >= T  and  (b0 + f*O) / m >= T.
            fraction = 0.0
            if target * size > b0:
                fraction = (
                    (target * size - b0) / total_bw if total_bw > 0 else 1.0
                )
            if guarded and target * len(guarded) > b0:
                fraction = max(
                    fraction,
                    (target * len(guarded) - b0) / open_sum
                    if open_sum > 0
                    else 1.0,
                )
            requests[claim.name] = min(1.0, fraction)
            needs[claim.name] = requests[claim.name] * total_bw

        alloc = Allocation(fractions={claim.name: {} for claim in claims})
        by_name = {claim.name: claim for claim in claims}
        rows = [
            (bandwidths[node], names) for node, names in subscribers.items()
        ]
        for round_ in range(self.rounds):
            splits = {
                names: list(
                    _waterfill_node(
                        {name: requests[name] for name in names}
                    ).items()
                )
                for names in tuples
            }
            if round_ == self.rounds - 1:
                break  # the last round's requests feed nothing
            # Per-session sums accumulate in node order, exactly as a
            # per-node sweep would add them.
            granted_bw = {claim.name: 0.0 for claim in claims}
            for bandwidth, names in rows:
                for name, fraction in splits[names]:
                    granted_bw[name] += fraction * bandwidth
            # Raise the requests of sessions still short of their need on
            # the members that did not throttle them (multiplicative
            # update; deterministic, converges in a handful of rounds).
            for claim in claims:
                need, got = needs[claim.name], granted_bw[claim.name]
                if need > 0 and got > FRACTION_EPS and got < need:
                    requests[claim.name] = min(
                        1.0, requests[claim.name] * min(need / got, 4.0)
                    )
        # Only the last round's grants survive, so only it writes them,
        # in node order as a per-node sweep would.
        fractions = alloc.fractions
        for node, names in subscribers.items():
            for name, fraction in splits[names]:
                fractions[name][node] = fraction
        _fill_bounds(alloc, kinds, bandwidths, by_name.values())
        return alloc


def _waterfill_node(requests: Dict[str, float]) -> Dict[str, float]:
    """Split one node's unit of upload across ``requests`` fractions.

    Over-subscribed: each session receives ``min(request, theta)`` with
    the common fill level ``theta`` solving
    ``sum_s min(request_s, theta) = 1`` — the classic water-fill, which
    never zeroes a positive request.  Under-subscribed: the grants are
    scaled up proportionally to exhaust the node (work-conserving —
    surplus upload costs nothing and absorbs later churn), which never
    takes a session above fraction 1 because every request is at most
    the total.
    """
    total = sum(requests.values())
    if total <= FRACTION_EPS:
        return dict(requests)
    if total <= 1.0 + FRACTION_EPS:
        return {name: req / total for name, req in requests.items()}
    # Find theta by sweeping the sorted requests (stable order: by
    # request then name, so ties cannot depend on dict insertion).
    items = sorted(requests.items(), key=lambda kv: (kv[1], kv[0]))
    remaining = 1.0
    grants: Dict[str, float] = {}
    for idx, (name, req) in enumerate(items):
        level = remaining / (len(items) - idx)
        if req <= level:
            grants[name] = req
            remaining -= req
        else:
            # Everyone left (including this one) saturates at the level.
            for tail_name, _tail_req in items[idx:]:
                grants[tail_name] = level
            return grants
    return grants


#: Name -> factory registry (picklable job specs carry the name plus
#: keyword arguments, so batch workers can rebuild the broker locally).
BROKERS: Dict[str, Callable[..., CapacityBroker]] = {
    EqualShareBroker.name: EqualShareBroker,
    ProportionalBroker.name: ProportionalBroker,
    WaterfillBroker.name: WaterfillBroker,
}


def make_broker(name: str, **kwargs) -> CapacityBroker:
    """Instantiate a registered broker policy by name."""
    try:
        factory = BROKERS[name]
    except KeyError:
        known = ", ".join(sorted(BROKERS))
        raise KeyError(f"unknown broker {name!r} (known: {known})") from None
    return factory(**kwargs)


def broker_names() -> list[str]:
    return sorted(BROKERS)
