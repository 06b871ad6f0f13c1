"""Typed control-plane requests, the wire codec, and trace generators.

Requests are frozen dataclasses; on the wire each is one JSON object
keyed by ``"op"`` (:func:`encode_request` / :func:`decode_request`), and
each answer is a :class:`Response` object (:func:`encode_response` /
:func:`decode_response`).  The codec is the *only* serialization in the
subsystem — the in-process transport, the asyncio server and the
reservation ledger all round-trip through it, so a request that
survives one survives all three.

:data:`REQUESTS` is the live registry of named **request traces**:
deterministic generators that turn a :func:`~repro.sessions.make_fleet`
workload into a scripted request stream (a list of *batches* — tuples
of requests submitted together).  The CLI's ``repro serve --trace`` and
the service benchmarks are fed from this registry, mirroring
CONTROLLERS / PLANNERS / BROKERS / ADMISSIONS / SCENARIOS: listings and
help strings read the registry, never a hard-coded copy.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..sessions.spec import FleetRun

__all__ = [
    "Request",
    "StartSession",
    "StopSession",
    "MigrateSession",
    "PriorityChange",
    "Query",
    "Response",
    "encode_request",
    "decode_request",
    "check_request",
    "encode_response",
    "decode_response",
    "RequestTrace",
    "REQUESTS",
    "make_trace",
    "trace_names",
]


@dataclass(frozen=True)
class Request:
    """Base class for control-plane requests (see subclasses)."""

    op = "request"


@dataclass(frozen=True)
class StartSession(Request):
    """Admit a new broadcast channel onto the shared platform."""

    op = "start_session"

    name: str = ""
    source_bw: float = 1.0
    demand: float = math.inf
    priority: float = 1.0
    members: Tuple[int, ...] = ()


@dataclass(frozen=True)
class StopSession(Request):
    """Tear a channel down; its grants return to the pool."""

    op = "stop_session"

    name: str = ""


@dataclass(frozen=True)
class MigrateSession(Request):
    """Re-home a running channel without a cold restart.

    ``add`` / ``remove`` move members in and out; ``source_bw`` (when
    not ``None``) re-provisions the channel's origin uplink.  The
    session keeps its plan — membership changes arrive at its planner
    as an incremental delta, not a restart.
    """

    op = "migrate_session"

    name: str = ""
    add: Tuple[int, ...] = ()
    remove: Tuple[int, ...] = ()
    source_bw: Optional[float] = None


@dataclass(frozen=True)
class PriorityChange(Request):
    """Re-weight a channel; the broker preempts capacity accordingly."""

    op = "priority_change"

    name: str = ""
    priority: float = 1.0


@dataclass(frozen=True)
class Query(Request):
    """Read-only state snapshot: one session, or the whole fleet."""

    op = "query"

    name: Optional[str] = None


_REQUEST_TYPES: Dict[str, type] = {
    cls.op: cls
    for cls in (StartSession, StopSession, MigrateSession, PriorityChange, Query)
}


def encode_request(req: Request) -> dict:
    """One JSON-ready object per request, keyed by ``"op"``."""
    if isinstance(req, StartSession):
        return {
            "op": req.op,
            "name": req.name,
            "source_bw": req.source_bw,
            "demand": req.demand,
            "priority": req.priority,
            "members": list(req.members),
        }
    if isinstance(req, StopSession):
        return {"op": req.op, "name": req.name}
    if isinstance(req, MigrateSession):
        return {
            "op": req.op,
            "name": req.name,
            "add": list(req.add),
            "remove": list(req.remove),
            "source_bw": req.source_bw,
        }
    if isinstance(req, PriorityChange):
        return {"op": req.op, "name": req.name, "priority": req.priority}
    if isinstance(req, Query):
        return {"op": req.op, "name": req.name}
    raise TypeError(f"unknown request type {type(req).__name__}")


def decode_request(payload: dict) -> Request:
    """Inverse of :func:`encode_request` (raises on unknown ``op``).

    Field types are left to :func:`check_request`, which the plane runs
    on every request before it serves a batch.
    """
    if not isinstance(payload, dict):
        raise ValueError("a request must be a JSON object")
    op = payload.get("op")
    cls = _REQUEST_TYPES.get(op)
    if cls is None:
        known = ", ".join(sorted(_REQUEST_TYPES))
        raise ValueError(f"unknown request op {op!r} (known: {known})")
    data = {k: v for k, v in payload.items() if k != "op"}
    for key in ("members", "add", "remove"):
        if isinstance(data.get(key), list):
            data[key] = tuple(data[key])
    return cls(**data)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_node_id(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_node_ids(value) -> bool:
    return isinstance(value, tuple) and all(map(_is_node_id, value))


def _type_of(value) -> str:
    """How an error names a rejected value: a node-id list (decoded to a
    tuple) by its first offending element and that element's index."""
    if isinstance(value, tuple):
        for k, v in enumerate(value):
            if not _is_node_id(v):
                return f"{type(v).__name__} at index {k}"
    return type(value).__name__


#: Per annotated field type: its check and how an error names it.
_FIELD_TYPES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "Optional[str]": (lambda v: v is None or isinstance(v, str), "a string"),
    "float": (_is_number, "a number"),
    "Optional[float]": (lambda v: v is None or _is_number(v), "a number"),
    "Tuple[int, ...]": (_is_node_ids, "a list of node ids"),
}


def check_request(req: Request) -> None:
    """Raise ``ValueError`` unless ``req`` is a known request type whose
    every field has its declared type (a wire payload can carry any JSON
    value in any field)."""
    if _REQUEST_TYPES.get(getattr(req, "op", None)) is not type(req):
        raise ValueError(f"unknown request type {type(req).__name__}")
    for f in dataclasses.fields(req):
        ok, what = _FIELD_TYPES[f.type]
        value = getattr(req, f.name)
        if not ok(value):
            raise ValueError(
                f"{req.op}: field {f.name!r} must be {what}, "
                f"got {_type_of(value)}"
            )


@dataclass(frozen=True)
class Response:
    """The plane's answer to one request.

    ``status`` is the request outcome: ``"admitted"`` / ``"degraded"``
    / ``"rejected"`` for starts, ``"stopped"`` / ``"applied"`` for the
    other mutations, ``"ok"`` for queries and ``"error"`` for anything
    invalid (``error`` carries the reason; nothing was mutated).
    ``latency_ms`` is the request's amortized share of its batch's wall
    time — *measurement*, excluded from ledger verification and from
    equality.
    """

    op: str
    name: str = ""
    status: str = "ok"
    bound: float = 0.0  #: session's Lemma 5.1 bound under the new grants
    error: str = ""
    seq: int = 0  #: batch sequence number that served the request
    state: Optional[dict] = None  #: query payload (``None`` otherwise)
    latency_ms: float = field(default=0.0, compare=False)


def encode_response(resp: Response, *, timing: bool = True) -> dict:
    """JSON-ready response; ``timing=False`` drops ``latency_ms`` (the
    ledger's form — replayed wall clocks can never be bit-identical)."""
    payload = {
        "op": resp.op,
        "name": resp.name,
        "status": resp.status,
        "bound": resp.bound,
        "error": resp.error,
        "seq": resp.seq,
        "state": resp.state,
    }
    if timing:
        payload["latency_ms"] = resp.latency_ms
    return payload


def decode_response(payload: dict) -> Response:
    return Response(**payload)


# ----------------------------------------------------------------------
# Request traces
# ----------------------------------------------------------------------

#: One trace: batches of requests, submitted tuple-by-tuple.
Trace = List[Tuple[Request, ...]]

#: A trace builder receives the fleet workload and a seed.
TraceBuilder = Callable[[FleetRun, int], Trace]


@dataclass(frozen=True)
class RequestTrace:
    """A registered request-stream generator (see :data:`REQUESTS`)."""

    name: str
    description: str
    build: TraceBuilder


def _starts(fleet: FleetRun) -> List[StartSession]:
    return [
        StartSession(
            name=sp.name,
            source_bw=sp.source_bw,
            demand=sp.demand,
            priority=sp.priority,
            members=sp.members,
        )
        for sp in fleet.sessions
    ]


def _trace_mixed(fleet: FleetRun, seed: int) -> Trace:
    """The operational steady state: every request type, interleaved."""
    rng = random.Random(f"{seed}:trace:mixed")
    names = [sp.name for sp in fleet.sessions]
    # Migrations may only move nodes the shared platform knows *now* —
    # fleet member lists can also carry future joiners from the
    # scenario's event stream, which a static plane rejects.
    platform_nodes = fleet.platform.nodes
    membership = {
        sp.name: [n for n in sp.members if n in platform_nodes]
        for sp in fleet.sessions
    }
    trace: Trace = [(req,) for req in _starts(fleet)]
    trace.append((Query(),))
    for round_ in range(2):
        for k, name in enumerate(names):
            trace.append(
                (PriorityChange(name=name, priority=1.0 + 0.5 * ((k + round_) % 3)),)
            )
        if len(names) >= 2:
            src = names[round_ % len(names)]
            dst = names[(round_ + 1) % len(names)]
            pool = [n for n in membership[src] if n not in membership[dst]]
            if pool:
                count = max(1, len(pool) // 4)
                moved = tuple(sorted(rng.sample(pool, min(count, len(pool)))))
                membership[src] = [
                    n for n in membership[src] if n not in moved
                ]
                membership[dst].extend(moved)
                trace.append(
                    (
                        MigrateSession(name=src, remove=moved),
                        MigrateSession(name=dst, add=moved),
                    )
                )
        trace.append((Query(name=names[round_ % len(names)]),))
    trace.append((StopSession(name=names[-1]),))
    trace.append((Query(),))
    return trace


def _trace_flash_start(fleet: FleetRun, seed: int) -> Trace:
    """Every channel starts in one burst — one batch, one re-arbitration."""
    trace: Trace = [tuple(_starts(fleet))]
    trace.append((Query(),))
    return trace


def _trace_priority_storm(fleet: FleetRun, seed: int) -> Trace:
    """Preemption pressure: priorities swing while everything runs."""
    names = [sp.name for sp in fleet.sessions]
    trace: Trace = [(req,) for req in _starts(fleet)]
    for round_ in range(3):
        for k, name in enumerate(names):
            trace.append(
                (
                    PriorityChange(
                        name=name,
                        priority=4.0 if (k + round_) % len(names) == 0 else 0.5,
                    ),
                )
            )
    trace.append((Query(),))
    return trace


def _trace_migration_wave(fleet: FleetRun, seed: int) -> Trace:
    """Members roll from channel to channel without restarts."""
    rng = random.Random(f"{seed}:trace:migration")
    names = [sp.name for sp in fleet.sessions]
    trace: Trace = [(req,) for req in _starts(fleet)]
    if len(names) < 2:
        return trace
    platform_nodes = fleet.platform.nodes
    membership = {
        sp.name: [n for n in sp.members if n in platform_nodes]
        for sp in fleet.sessions
    }
    for round_ in range(3):
        src = names[round_ % len(names)]
        dst = names[(round_ + 1) % len(names)]
        pool = [n for n in membership[src] if n not in membership[dst]]
        if not pool:
            continue
        count = max(1, len(pool) // 4)
        moved = tuple(sorted(rng.sample(pool, min(count, len(pool)))))
        membership[src] = [n for n in membership[src] if n not in moved]
        membership[dst].extend(moved)
        trace.append(
            (
                MigrateSession(name=src, remove=moved),
                MigrateSession(name=dst, add=moved),
            )
        )
    trace.append((Query(),))
    return trace


#: Name of the scratch channel the roaming trace dual-homes through.
ROAM_SESSION = "roam"


def _trace_roaming(fleet: FleetRun, seed: int) -> Trace:
    """A tiny roaming channel wandering while the big channels stand.

    Three movements:

    1. every steady channel evicts its four *lowest-bandwidth* members —
       the leaf end of any broadcast scheme, so each eviction is the
       repair planner's friendliest delta (feeders credited, no subtree
       stranded) — freeing those peers into a shared pool;
    2. a scratch channel (:data:`ROAM_SESSION`) starts on two pool
       peers and then, batch after batch, swaps one held peer for a
       fresh pool peer — a subscriber wandering between access points;
    3. the roamer stops and a final query snapshots the plane.

    The swaps are the point: the roamer's members belong to *no* steady
    channel, so under incremental re-arbitration each swap touches only
    the roamer's own claim component — every steady channel keeps its
    grants, its plan and its broker fragment untouched.  A cold-solve
    plane cannot know that: it re-arbitrates the whole platform and
    rebuilds every live session per swap.  The p50 request of this
    trace therefore measures exactly the cost of *not* tracking change,
    while the eviction batches (and the roamer's own churn) keep the
    repair path honest in the tail.
    """
    rng = random.Random(f"{seed}:trace:roaming")
    nodes = fleet.platform.nodes
    members = {
        sp.name: sorted(
            (n for n in sp.members if n in nodes),
            key=lambda n: (nodes[n].bandwidth, n),
        )
        for sp in fleet.sessions
    }
    trace: Trace = [(req,) for req in _starts(fleet)]
    donors = [sp.name for sp in fleet.sessions if len(members[sp.name]) >= 8]
    if not donors:
        return trace
    pool: List[int] = []
    for name in donors:
        evicted = tuple(members[name][:4])
        # Overlapping channels can evict the same shared peer twice;
        # the pool must stay duplicate-free or a swap would hand the
        # roamer a member it already holds.
        pool.extend(n for n in evicted if n not in pool)
        trace.append((MigrateSession(name=name, remove=evicted),))
    origin = fleet.sessions[0].source_bw
    held = pool[:2]
    free = pool[2:]
    trace.append(
        (
            StartSession(
                name=ROAM_SESSION, source_bw=origin, members=tuple(held)
            ),
        )
    )
    for swap in range(24):
        if not free:
            break
        fresh = rng.choice(free)
        free.remove(fresh)
        out = held[swap % 2]
        held[swap % 2] = fresh
        free.append(out)
        trace.append(
            (MigrateSession(name=ROAM_SESSION, add=(fresh,), remove=(out,)),)
        )
    trace.append((StopSession(name=ROAM_SESSION),))
    trace.append((Query(),))
    return trace


def _trace_start_stop(fleet: FleetRun, seed: int) -> Trace:
    """Channel lifecycle churn: sessions come and go around a core."""
    names = [sp.name for sp in fleet.sessions]
    starts = {req.name: req for req in _starts(fleet)}
    trace: Trace = [(starts[name],) for name in names]
    for name in names[1:]:
        trace.append((StopSession(name=name),))
        trace.append((starts[name],))
    trace.append((Query(),))
    return trace


#: The live trace registry (CLI ``--trace``/``--list`` read this).
REQUESTS: Dict[str, RequestTrace] = {
    t.name: t
    for t in (
        RequestTrace(
            "mixed",
            "every request type interleaved (the operational steady state)",
            _trace_mixed,
        ),
        RequestTrace(
            "flash-start",
            "all channels start in one burst: one batch, one re-arbitration",
            _trace_flash_start,
        ),
        RequestTrace(
            "priority-storm",
            "priorities swing mid-run: broker preemption pressure",
            _trace_priority_storm,
        ),
        RequestTrace(
            "migration-wave",
            "members roll between channels without cold restarts",
            _trace_migration_wave,
        ),
        RequestTrace(
            "roaming",
            "a dual-homed subscriber roams between channels: sparse "
            "two-drift deltas per visited channel",
            _trace_roaming,
        ),
        RequestTrace(
            "start-stop",
            "channel lifecycle churn around a stable core",
            _trace_start_stop,
        ),
    )
}


def make_trace(name: str, fleet: FleetRun, seed: int = 0) -> Trace:
    """Build a registered request trace for ``fleet``."""
    try:
        trace = REQUESTS[name]
    except KeyError:
        known = ", ".join(sorted(REQUESTS))
        raise KeyError(f"unknown trace {name!r} (known: {known})") from None
    return trace.build(fleet, seed)


def trace_names() -> List[str]:
    return sorted(REQUESTS)
