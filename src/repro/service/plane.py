"""The control plane: live sessions, one broker, incremental re-arbitration.

A :class:`ControlPlane` is the long-running counterpart of
:class:`~repro.sessions.fleet.FleetEngine`: the same shared
:class:`~repro.runtime.events.DynamicPlatform`, the same
:class:`~repro.sessions.broker.CapacityBroker` purity, but driven by a
*request stream* instead of a precomputed event list.  The pipeline per
mutating batch:

1. **control mutations** — each request is validated and applied to the
   session table in order (admission control for ``start_session`` runs
   a *trial* arbitration including the candidate; the broker is a pure
   function, so a rejected trial is discarded by simply not applying
   it);
2. **one re-arbitration** — the broker re-splits the shared upload over
   the surviving claims (through the shared
   :class:`~repro.sessions.arbiter.Arbiter`, memoized per claim
   component when planning incrementally); per session the new grants
   are diffed against the old ones and only changes beyond
   ``GRANT_EPS`` become events (membership moves -> join/leave, grant
   moves -> drift);
3. **one plan delta per affected session** — the events are coalesced
   (:func:`~repro.planning.coalesce_events`) and handed to the
   session's planner in a single :func:`~repro.planning.plan_step`
   call (a build for a session without a plan, a
   :meth:`~repro.planning.Planner.replan` otherwise) against a lightweight
   :class:`_PlanHost` (the planner seam needs only ``view`` / ``cache``
   / ``now``, so no full engine is spun up).  Untouched sessions keep
   their plan — that is the *incremental* in incremental
   re-arbitration.  ``planning="full"`` is the cold-solve control arm:
   every affected session pays a from-scratch rebuild.

Every batch is journaled in the :class:`~repro.service.ledger.
ReservationLedger`; :meth:`ControlPlane.recover` replays a journal
through this same pipeline and verifies bit-identical grants, bounds
and responses before resuming — a restarted server continues exactly
where the dead one stopped.

The shared platform is *static* while the plane runs: service-time
dynamics enter exclusively through requests (membership moves via
``migrate_session``, capacity preemption via ``priority_change``),
which is what makes the journal a complete description of the state.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..planning import (
    Plan,
    PlanCache,
    Planner,
    coalesce_events,
    plan_step,
    planner_names,
)
from ..runtime.engine import make_engine_planner
from ..runtime.events import (
    BandwidthDrift,
    DynamicPlatform,
    Event,
    NodeJoin,
    NodeLeave,
    NodeState,
)
from ..sessions.arbiter import (
    GRANT_EPS,
    Arbiter,
    resolve_arbitration,
    serves_nobody,
)
from ..sessions.broker import SessionClaim
from ..sessions.fleet import FleetEngine
from ..sessions.spec import SessionSpec
from .ledger import FrozenPayload, ReservationLedger
from .requests import (
    MigrateSession,
    PriorityChange,
    Query,
    Request,
    Response,
    StartSession,
    StopSession,
    check_request,
    decode_request,
    encode_request,
    encode_response,
)

__all__ = ["ControlPlane", "ServiceStats"]

#: Journal format version (bumped on any record-shape change).
_LEDGER_VERSION = 1
#: Header keys :meth:`ControlPlane.recover` passes to the constructor.
_HEADER_KEYS = (
    "broker", "admission", "admission_floor", "planning",
    "repair_tolerance", "seed",
)
#: Keys every batch record must carry for replay and verification.
_RECORD_KEYS = ("requests", "responses", "grants", "bounds")

#: LRU bound of the plan cache a plane creates for itself.  The cache
#: is a pure memo (grants, journals and plan operations never depend on
#: it), and what a plane hits is recent: replaying the serve-tcp request
#: mix (2000 batches, seeds 301 and 302), every hit landed at most 26
#: lookups after its insert.  64 entries (about 110 lookups of lifetime
#: at that mix's insert rate) keep every one of those hits.  Only
#: solves are cached: repairs resume live packing state and are never
#: memoized, so no snapshot competes for a slot.  The 4096 default
#: of :class:`~repro.planning.PlanCache` held ~1900 plans (~47 MB) for
#: 73 hits.  Engines and fleets, which revisit populations across
#: epochs, keep that default.
PLANE_CACHE_ENTRIES = 64


@dataclass(frozen=True)
class ServiceStats:
    """Counter snapshot of one :class:`ControlPlane`."""

    requests: int
    batches: int
    rearbitrations: int
    arb_hits: int  #: claim components served from the arbitration memo
    arb_misses: int  #: claim components the broker actually computed
    builds: int
    repairs: int
    fallbacks: int
    keeps: int
    admitted: int
    degraded: int
    rejected: int
    stopped: int
    errors: int
    latency_p50_ms: float
    latency_p99_ms: float
    requests_per_sec: float


def _percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 for empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class _SessionEntry:
    """One live channel's reservation state."""

    spec: SessionSpec
    status: str  #: ``"admitted"`` or ``"degraded"``
    grants: Dict[int, float]  #: member external id -> granted bandwidth
    bound: float  #: Lemma 5.1 bound under the current grants
    platform: DynamicPlatform  #: session-local platform (granted bws)
    planner: Planner
    plan: Optional[Plan] = None
    builds: int = 0
    repairs: int = 0
    #: claim component this session's grants were last arbitrated in;
    #: an unchanged component means unchanged grants (see
    #: :class:`~repro.sessions.arbiter.Arbiter`), so the diff is skipped.
    arb_key: Optional[Tuple[SessionClaim, ...]] = None
    #: ``(grants, journal payload)``: the payload encodes ``grants`` and
    #: is re-used until ``grants`` is rebound (grants dicts are replaced
    #: wholesale, never mutated in place), so the ledger can re-use its
    #: encoding — see :mod:`repro.service.ledger`.
    journal: Optional[Tuple[Dict[int, float], FrozenPayload]] = None


class _PlanHost:
    """The slice of :class:`~repro.runtime.engine.RuntimeEngine` the
    planner seam actually consumes: ``view`` (a snapshot-able
    platform), ``cache`` and ``now``.  Planners were deliberately built
    against only these three (see :mod:`repro.planning.planner`), so
    the control plane can drive them without spinning up engines."""

    __slots__ = ("view", "cache", "now")

    def __init__(self, view: DynamicPlatform, cache: PlanCache, now: int) -> None:
        self.view = view
        self.cache = cache
        self.now = now


class ControlPlane:
    """K live sessions, one broker, a journal.  See module docstring."""

    def __init__(
        self,
        platform: DynamicPlatform,
        *,
        broker: str = "waterfill",
        admission: str = "reject",
        admission_floor: float = 0.0,
        planning: str = "incremental",
        repair_tolerance: float = 0.1,
        cache: Optional[PlanCache] = None,
        ledger: Optional[ReservationLedger] = None,
        seed: int = 0,
    ) -> None:
        self.broker, self.admission, self.admission_floor = (
            resolve_arbitration(broker, admission, admission_floor)
        )
        if planning not in planner_names():
            raise ValueError(
                f"unknown planning mode {planning!r} "
                f"(known: {', '.join(planner_names())})"
            )
        self.platform = platform
        self.broker_name = broker
        self.planning = planning
        #: The whole incremental regime hangs off the planning mode:
        #: ``"incremental"`` arbitrates per claim component (memoized)
        #: and replans only sessions whose grants moved, while any other
        #: mode is the cold-solve control arm — one monolithic broker
        #: round and a from-scratch rebuild of *every* live session per
        #: mutating batch, exactly what a plane without change tracking
        #: would have to do.
        self.incremental = planning == "incremental"
        self._arbiter = Arbiter(platform, memoize=self.incremental)
        self.repair_tolerance = float(repair_tolerance)
        self.cache = (
            cache if cache is not None else PlanCache(PLANE_CACHE_ENTRIES)
        )
        self.seed = int(seed)
        self.sessions: Dict[str, _SessionEntry] = {}
        self.seq = 0  #: batches processed — also the planner clock
        self.requests_served = 0
        self.errors = 0
        self.admitted = 0
        self.degraded = 0
        self.rejected = 0
        self.stopped = 0
        #: lifetime plan-operation counters (a stop/restart drops the
        #: session entry, not what the plane did for it)
        self.builds = 0
        self.repairs = 0
        self.fallbacks = 0
        self.keeps = 0
        #: per-request amortized latency, seconds (batch wall / size)
        self.latencies: List[float] = []
        #: per plan operation: ``(session, op, seconds)`` — the
        #: solve-stage cost of each admission pipeline run
        self.plan_ops: List[Tuple[str, str, float]] = []
        self._busy_seconds = 0.0
        self.ledger = ledger
        if ledger is not None:
            ledger.append(self._header())

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _header(self) -> dict:
        nodes = {
            str(node_id): {
                "kind": state.kind,
                "bandwidth": state.bandwidth,
                "alive": state.alive,
            }
            for node_id, state in sorted(self.platform.nodes.items())
        }
        return {
            "header": True,
            "version": _LEDGER_VERSION,
            "broker": self.broker_name,
            "admission": self.admission.name,
            "admission_floor": self.admission_floor,
            "planning": self.planning,
            "repair_tolerance": self.repair_tolerance,
            "seed": self.seed,
            "platform": {
                "source_bw": self.platform.source_bw,
                "nodes": nodes,
                "next_id": self.platform.next_id,
            },
        }

    @staticmethod
    def _platform_from_header(header: dict) -> DynamicPlatform:
        spec = header["platform"]
        platform = DynamicPlatform(source_bw=spec["source_bw"])
        for node_id, node in spec["nodes"].items():
            platform.nodes[int(node_id)] = NodeState(
                node_id=int(node_id),
                kind=node["kind"],
                bandwidth=node["bandwidth"],
                alive=node["alive"],
            )
        platform._next_id = spec["next_id"]
        return platform

    # ------------------------------------------------------------------
    # Request entry points
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> Response:
        """Serve one request (a singleton batch)."""
        return self.submit_batch((request,))[0]

    def submit_batch(self, requests: Sequence[Request]) -> List[Response]:
        """Serve a request burst: one re-arbitration, one delta per
        affected session, one ledger record — however many requests.

        Requests apply in order; a failed request responds with
        ``status="error"`` and mutates nothing, while the rest of the
        batch proceeds.  Queries inside a mutating batch observe the
        control state at their position but pre-batch *grants* (grants
        move once, at the batch boundary).  A malformed request (an
        unknown type, a field of the wrong type) is no request at all:
        the whole batch raises ``ValueError`` before it is sequenced, so
        the journal never sees it.
        """
        requests = tuple(requests)
        if not requests:
            raise ValueError("empty request batch")
        for req in requests:
            check_request(req)
        started = time.perf_counter()  # repro: noqa REP002 -- latency/plan-op stats; decisions replay from the ledger, not wall time
        self.seq += 1
        responses = [self._apply_control(req) for req in requests]
        mutated = any(
            resp.status in ("admitted", "degraded", "applied", "stopped")
            for resp in responses
        )
        ops: Dict[str, str] = {}
        if mutated:
            ops = self._rearbitrate()
            # Bounds move with the final arbitration: refresh the
            # responses of this batch's successful mutations so callers
            # see the bound their request actually landed at.
            for k, resp in enumerate(responses):
                entry = self.sessions.get(resp.name)
                if entry is not None and resp.status in (
                    "admitted", "degraded", "applied"
                ):
                    responses[k] = Response(
                        op=resp.op,
                        name=resp.name,
                        status=resp.status,
                        bound=entry.bound,
                        error=resp.error,
                        seq=self.seq,
                        state=resp.state,
                    )
        elapsed = time.perf_counter() - started  # repro: noqa REP002 -- latency/plan-op stats; decisions replay from the ledger, not wall time
        share = elapsed / len(requests)
        self._busy_seconds += elapsed
        final: List[Response] = []
        for resp in responses:
            self.requests_served += 1
            self.latencies.append(share)
            final.append(
                Response(
                    op=resp.op,
                    name=resp.name,
                    status=resp.status,
                    bound=resp.bound,
                    error=resp.error,
                    seq=self.seq,
                    state=resp.state,
                    latency_ms=share * 1000.0,
                )
            )
        if self.ledger is not None:
            self.ledger.append(self._record(requests, final, ops))
        return final

    # ------------------------------------------------------------------
    # Control mutations (step 1: the session table)
    # ------------------------------------------------------------------
    def _apply_control(self, req: Request) -> Response:
        try:
            if isinstance(req, StartSession):
                return self._start(req)
            if isinstance(req, StopSession):
                return self._stop(req)
            if isinstance(req, MigrateSession):
                return self._migrate(req)
            if isinstance(req, PriorityChange):
                return self._priority(req)
            return self._query(req)
        except (ValueError, KeyError) as exc:
            self.errors += 1
            return Response(
                op=getattr(req, "op", "request"),
                name=getattr(req, "name", "") or "",
                status="error",
                error=str(exc),
                seq=self.seq,
            )

    def _start(self, req: StartSession) -> Response:
        if not req.name:
            raise ValueError("start_session needs a session name")
        if req.name in self.sessions:
            raise ValueError(f"session {req.name!r} already running")
        spec = SessionSpec(
            name=req.name,
            source_bw=req.source_bw,
            demand=req.demand,
            priority=req.priority,
            members=tuple(req.members),
        )
        _kinds, bandwidths = self._arbiter.alive()
        if serves_nobody(spec, bandwidths):
            self.rejected += 1
            return Response(
                op=req.op,
                name=req.name,
                status="rejected",
                error="no alive members on the shared platform",
                seq=self.seq,
            )
        # Admission trial: arbitrate *as if* admitted.  The broker is a
        # pure function of (kinds, bandwidths, claims) — discarding the
        # trial leaves the standing grants untouched, which is what
        # makes repeated rejected starts idempotent under replay.
        specs = [e.spec for e in self.sessions.values()] + [spec]
        alloc = self._arbiter.arbitrate(self.broker, specs).alloc
        bound = alloc.bounds.get(spec.name, 0.0)
        status = self.admission.verdict(bound, self.admission_floor)
        if status == "rejected":
            self.rejected += 1
            return Response(
                op=req.op,
                name=req.name,
                status="rejected",
                bound=bound,
                error=(
                    f"allocated bound {bound:g} below admission floor "
                    f"{self.admission_floor:g}"
                ),
                seq=self.seq,
            )
        if status == "admitted":
            self.admitted += 1
        else:
            self.degraded += 1
        self.sessions[spec.name] = _SessionEntry(
            spec=spec,
            status=status,
            grants={},
            bound=bound,
            platform=DynamicPlatform(
                source_bw=min(spec.source_bw, spec.demand)
            ),
            planner=make_engine_planner(
                self.planning, self.repair_tolerance
            ),
        )
        return Response(
            op=req.op, name=req.name, status=status, bound=bound, seq=self.seq
        )

    def _entry(self, name: str) -> _SessionEntry:
        entry = self.sessions.get(name)
        if entry is None:
            known = ", ".join(sorted(self.sessions)) or "none"
            raise ValueError(f"unknown session {name!r} (running: {known})")
        return entry

    def _stop(self, req: StopSession) -> Response:
        self._entry(req.name)
        del self.sessions[req.name]
        self.stopped += 1
        return Response(
            op=req.op, name=req.name, status="stopped", seq=self.seq
        )

    def _migrate(self, req: MigrateSession) -> Response:
        entry = self._entry(req.name)
        members = list(entry.spec.members)
        for node in req.remove:
            if node not in members:
                raise ValueError(
                    f"cannot remove {node}: not a member of {req.name!r}"
                )
            members.remove(node)
        for node in req.add:
            if node in members:
                raise ValueError(
                    f"cannot add {node}: already a member of {req.name!r}"
                )
            if node not in self.platform.nodes:
                raise ValueError(
                    f"cannot add {node}: unknown on the shared platform"
                )
            members.append(node)
        changes: dict = {"members": tuple(members)}
        if req.source_bw is not None:
            changes["source_bw"] = req.source_bw
        entry.spec = dataclasses.replace(entry.spec, **changes)
        if req.source_bw is not None:
            # The origin uplink is baked into every plan instance and
            # the repair model; re-homing it forces a fresh build at
            # the batch boundary (membership moves stay incremental).
            entry.platform.source_bw = min(
                entry.spec.source_bw, entry.spec.demand
            )
            entry.plan = None
        return Response(op=req.op, name=req.name, status="applied", seq=self.seq)

    def _priority(self, req: PriorityChange) -> Response:
        entry = self._entry(req.name)
        entry.spec = dataclasses.replace(entry.spec, priority=req.priority)
        return Response(op=req.op, name=req.name, status="applied", seq=self.seq)

    def _query(self, req: Query) -> Response:
        if req.name is not None:
            entry = self._entry(req.name)
            return Response(
                op=req.op,
                name=req.name,
                status="ok",
                bound=entry.bound,
                seq=self.seq,
                state=self._session_state(req.name, entry),
            )
        sessions = {
            name: self._session_state(name, entry)
            for name, entry in self.sessions.items()
        }
        return Response(
            op=req.op,
            status="ok",
            seq=self.seq,
            state={
                "seq": self.seq,
                "alive": self.platform.num_alive,
                "sessions": sessions,
            },
        )

    def _session_state(self, name: str, entry: _SessionEntry) -> dict:
        return {
            "status": entry.status,
            "priority": entry.spec.priority,
            "members": len(entry.spec.members),
            "granted_bw": math.fsum(entry.grants.values()),
            "bound": entry.bound,
            "plan_rate": entry.plan.rate if entry.plan is not None else 0.0,
            "builds": entry.builds,
            "repairs": entry.repairs,
        }

    # ------------------------------------------------------------------
    # Re-arbitration + plan deltas (steps 2 and 3)
    # ------------------------------------------------------------------
    def _rearbitrate(self) -> Dict[str, str]:
        """One broker round over the surviving sessions; per session,
        diff the grants, apply the net events, replan once.  Returns
        the plan operation per session (``build``/``repair``/``keep``).
        """
        ops: Dict[str, str] = {}
        if not self.sessions:
            return ops
        arb = self._arbiter.arbitrate(
            self.broker, [e.spec for e in self.sessions.values()]
        )
        alloc, kinds, bandwidths = arb.alloc, arb.kinds, arb.bandwidths
        members_of = {c.name: c.members for c in arb.claims}
        for name, entry in self.sessions.items():
            key = arb.keys.get(name)
            if (
                self.incremental
                and entry.plan is not None
                and entry.arb_key is not None
                and entry.arb_key == key
            ):
                # Same claim component as last round on an immutable
                # platform: the fragment is bit-identical, so the
                # grants did not move — skip the per-node diff.
                ops[name] = "keep"
                self.keeps += 1
                continue
            entry.arb_key = key
            fractions = alloc.fractions[name]
            new_grants = {
                n: fractions.get(n, 0.0) * bandwidths[n]
                for n in members_of[name]
            }
            entry.bound = alloc.bounds.get(name, 0.0)
            events: List[Event] = []
            for node in entry.grants:
                if node not in new_grants:
                    events.append(NodeLeave(time=self.seq, node_id=node))
            for node, grant in new_grants.items():
                old = entry.grants.get(node)
                if old is None:
                    events.append(
                        NodeJoin(
                            time=self.seq,
                            kind=kinds[node],
                            bandwidth=grant,
                            node_id=node,
                        )
                    )
                elif abs(grant - old) > GRANT_EPS:
                    events.append(
                        BandwidthDrift(
                            time=self.seq, node_id=node, bandwidth=grant
                        )
                    )
            if not new_grants:
                # Migrated down to zero members: nobody to plan for.
                # The session idles (its bound is vacuously infinite)
                # until a later migrate re-populates it.
                for ev in events:
                    entry.platform.apply(ev)
                entry.grants = {}
                entry.plan = None
                ops[name] = "idle"
                continue
            if not events and entry.plan is not None and self.incremental:
                ops[name] = "keep"
                self.keeps += 1
                continue
            for ev in events:
                entry.platform.apply(ev)
            entry.grants = new_grants
            ops[name] = self._replan(entry, coalesce_events(events))
        return ops

    def _replan(self, entry: _SessionEntry, events: Tuple[Event, ...]) -> str:
        host = _PlanHost(entry.platform, self.cache, self.seq)
        outcome = plan_step(entry.planner, host, entry.plan, events)
        entry.plan = outcome.plan
        if outcome.op == "repair":
            entry.repairs += 1
            self.repairs += 1
        else:
            entry.builds += 1
            self.builds += 1
            self.fallbacks += int(outcome.fallback)
        self.plan_ops.append((entry.spec.name, outcome.op, outcome.seconds))
        return outcome.op

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def _grants_payload(self) -> Dict[str, Dict[str, float]]:
        payload: Dict[str, Dict[str, float]] = {}
        for name, entry in self.sessions.items():
            if entry.journal is None or entry.journal[0] is not entry.grants:
                entry.journal = (
                    entry.grants,
                    FrozenPayload(
                        (str(n), bw) for n, bw in sorted(entry.grants.items())
                    ),
                )
            payload[name] = entry.journal[1]
        return payload

    def _record(
        self,
        requests: Tuple[Request, ...],
        responses: List[Response],
        ops: Dict[str, str],
    ) -> dict:
        return {
            "seq": self.seq,
            "requests": [encode_request(r) for r in requests],
            "responses": [
                encode_response(r, timing=False) for r in responses
            ],
            "grants": self._grants_payload(),
            "bounds": {
                name: entry.bound for name, entry in self.sessions.items()
            },
            "ops": ops,
        }

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        path: str,
        *,
        verify: bool = True,
        resume_appending: bool = True,
        cache: Optional[PlanCache] = None,
    ) -> "ControlPlane":
        """Rebuild a plane from its journal, bit-identically.

        Reads the header, reconstructs the shared platform and
        configuration, and re-submits every recorded batch through the
        normal pipeline.  With ``verify=True`` every replayed batch
        must reproduce the recorded responses, grants and bounds
        *exactly* (float equality — the pipeline is deterministic and
        JSON round-trips floats via ``repr``); any divergence raises
        ``RuntimeError`` instead of resuming from an unjournaled state.
        With ``resume_appending=True`` the journal is reopened for
        append, so the recovered plane continues the same file; a torn
        final append (a crash mid-write) is cut off first, so new
        records start on a line of their own.
        """
        records = ReservationLedger.read(path)
        if not records or not (
            isinstance(records[0], dict) and records[0].get("header")
        ):
            raise ValueError(f"{path!r} is not a reservation ledger")
        header = records[0]
        if header.get("version") != _LEDGER_VERSION:
            raise ValueError(
                f"ledger version {header.get('version')!r} unsupported "
                f"(expected {_LEDGER_VERSION})"
            )
        try:
            plane = cls(
                cls._platform_from_header(header),
                **{key: header[key] for key in _HEADER_KEYS},
                cache=cache,
                ledger=None,
            )
        except KeyError as exc:
            raise ValueError(
                f"{path!r} record 1 (the header) lacks key {exc}"
            ) from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{path!r} record 1 (the header) is malformed: {exc}"
            ) from None
        for index, rec in enumerate(records[1:], start=2):
            if not isinstance(rec, dict):
                raise ValueError(f"{path!r} record {index} is not an object")
            missing = [key for key in _RECORD_KEYS if key not in rec]
            if missing:
                raise ValueError(
                    f"{path!r} record {index} lacks "
                    f"{', '.join(map(repr, missing))}"
                )
            try:
                batch = tuple(decode_request(d) for d in rec["requests"])
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path!r} record {index} holds a bad request: {exc}"
                ) from None
            responses = plane.submit_batch(batch)
            if not verify:
                continue
            replayed = [encode_response(r, timing=False) for r in responses]
            if replayed != rec["responses"]:
                raise RuntimeError(
                    f"ledger replay diverged at seq {rec.get('seq')}: "
                    f"responses {replayed!r} != recorded {rec['responses']!r}"
                )
            if plane._grants_payload() != rec["grants"]:
                raise RuntimeError(
                    f"ledger replay diverged at seq {rec.get('seq')}: grants "
                    f"differ from the journal"
                )
            bounds = {
                name: entry.bound for name, entry in plane.sessions.items()
            }
            if bounds != rec["bounds"]:
                raise RuntimeError(
                    f"ledger replay diverged at seq {rec.get('seq')}: bounds "
                    f"differ from the journal"
                )
        if resume_appending:
            ReservationLedger.trim_torn_tail(path)
            plane.ledger = ReservationLedger(path)
        return plane

    # ------------------------------------------------------------------
    # Introspection / bridges
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        return ServiceStats(
            requests=self.requests_served,
            batches=self.seq,
            rearbitrations=self._arbiter.rearbitrations,
            arb_hits=self._arbiter.arb_hits,
            arb_misses=self._arbiter.arb_misses,
            builds=self.builds,
            repairs=self.repairs,
            fallbacks=self.fallbacks,
            keeps=self.keeps,
            admitted=self.admitted,
            degraded=self.degraded,
            rejected=self.rejected,
            stopped=self.stopped,
            errors=self.errors,
            latency_p50_ms=_percentile(self.latencies, 0.50) * 1000.0,
            latency_p99_ms=_percentile(self.latencies, 0.99) * 1000.0,
            requests_per_sec=(
                self.requests_served / self._busy_seconds
                if self._busy_seconds > 0
                else 0.0
            ),
        )

    def to_fleet(self, horizon: int = 50, **kwargs) -> FleetEngine:
        """A :class:`~repro.sessions.fleet.FleetEngine` over the live
        session table — the bridge to the one multi-tenant runner, used
        to check that a recovered plane reproduces identical fleet
        summaries (bit-identical across serial and process, like
        every fleet run)."""
        if not self.sessions:
            raise ValueError("no live sessions to run as a fleet")
        kwargs.setdefault("broker", self.broker_name)
        kwargs.setdefault("admission", self.admission.name)
        kwargs.setdefault("admission_floor", self.admission_floor)
        kwargs.setdefault("seed", self.seed)
        return FleetEngine(
            copy.deepcopy(self.platform),
            (),
            horizon,
            [entry.spec for entry in self.sessions.values()],
            {},
            scenario=f"service:{self.seq}",
            **kwargs,
        )
