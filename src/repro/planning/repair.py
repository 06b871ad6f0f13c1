"""Incremental overlay repair: patch the surviving plan, don't re-plan.

Theorem 4.1 overlays have bounded out-degrees, so a departure orphans
only a handful of receivers — yet a full re-optimization pays a
dichotomic search (about a dozen Algorithm 2 probes per solve, at most
``SEARCH_MAX_ITER``) plus a complete Lemma 4.6 re-packing for every
change.  :class:`IncrementalRepairPlanner` reacts *locally* instead.
Its build runs the one Lemma 4.6 packer
(:func:`~repro.algorithms.acyclic_guarded.pack_word`) straight into the
planner's external-id overlay model, and each repair resumes the
two-pool FIFO packing state that build left behind:

* **leave** — the departed peer's feeders get their credit back, its
  direct clients (the orphaned subtree roots) are re-fed from pool
  entries *earlier in the feed order* (which keeps the repaired scheme
  acyclic), and the peer's own spare credit is forfeited;
* **join** — the newcomer is attached as the last node of the feed
  order, fed from any spare credit (firewall-respecting), and its own
  upload joins the pools;
* **drift** — spare credit is adjusted; an overloaded peer sheds its
  latest-attached clients, which are then re-fed like orphans.

The plan keeps provisioning its original rate.  After every event batch
the planner compares that rate against the Lemma 5.1 *upper bound*
``T*`` of the current membership — an O(n) closed form, unlike the exact
``T*_ac`` — and falls back to a full rebuild once the kept rate drops
below ``(1 - tolerance) x T*``.  Because ``T* >= T*_ac``, the check is
conservative: a surviving repaired plan is guaranteed within
``tolerance`` of what a full rebuild could provision.  Any structural
failure (no spare credit reachable, model out of sync, validation
error) also falls back, so repaired epochs are never *worse* than the
reactive baseline by more than the tolerance.  A plan that serves no
receiver (rate ``inf``, the solver's convention) is never repaired.

Every repaired scheme is validated (bandwidth, firewall, acyclicity)
before it is handed to the engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional

from ..algorithms.acyclic_guarded import pack_word
from ..core.bounds import cyclic_optimum
from ..core.exceptions import InvalidSchemeError
from ..core.instance import Instance, NodeKind, canonicalize_population
from ..core.scheme import BroadcastScheme
from .plan import Plan, PlanDelta, PlanOutcome, class_preserving_swaps
from .planner import FullRebuildPlanner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.engine import RuntimeEngine

__all__ = ["IncrementalRepairPlanner"]


class _RepairFailed(Exception):
    """Internal: this delta cannot be applied — fall back to a rebuild."""


class _OverlayModel:
    """The planner's live overlay, in external-id space.

    Mirrors the active plan as mutable adjacency (``out``/``inc``), the
    member roster and the resumable packing pools, so deltas are O(degree
    + pool scan) instead of O(full re-plan).  Mutated in place: any
    failed application is followed by a full rebuild, which replaces the
    model wholesale.
    """

    __slots__ = (
        "rate", "source_bw", "kinds", "bandwidths", "out", "inc", "packing",
        "tol", "edges_added", "edges_removed",
    )

    def __init__(
        self, instance: Instance, node_ids: list[int], rate: float, word: str
    ) -> None:
        """Pack ``word`` at ``rate`` straight into the model: canonical
        node ``k`` of ``instance`` is external id ``node_ids[k]``."""
        self.rate = rate
        self.source_bw = instance.source_bw
        self.kinds: Dict[int, str] = {}  #: receiver ext id -> node kind
        self.bandwidths: Dict[int, float] = {}
        for k in instance.receivers():
            self.kinds[node_ids[k]] = instance.kind(k)
            self.bandwidths[node_ids[k]] = instance.bandwidth(k)
        self.out: Dict[int, Dict[int, float]] = {i: {} for i in node_ids}
        self.inc: Dict[int, Dict[int, float]] = {i: {} for i in node_ids}
        self.edges_added = 0
        self.edges_removed = 0
        self.packing = pack_word(instance, word, rate, self._sink, node_ids)
        self.tol = self.packing.tol

    # ------------------------------------------------------------------
    # Edge bookkeeping (the sink the packing draws into)
    # ------------------------------------------------------------------
    def _sink(self, sender: int, receiver: int, amount: float) -> None:
        row = self.out[sender]
        if receiver not in row:
            self.edges_added += 1
        row[receiver] = row.get(receiver, 0.0) + amount
        self.inc[receiver][sender] = row[receiver]

    def _drop_edge(self, sender: int, receiver: int) -> float:
        rate = self.out[sender].pop(receiver, 0.0)
        self.inc[receiver].pop(sender, None)
        if rate:
            self.edges_removed += 1
        return rate

    def _refeed(self, deficits: Dict[int, float]) -> list[int]:
        """Re-feed orphaned receivers from spare credit, earliest first.

        Each receiver only draws from senders strictly earlier in the
        feed order (``before=`` its own position), preserving acyclicity.
        """
        packing = self.packing
        refed = sorted(deficits, key=packing.position.__getitem__)
        for node in refed:
            unmet = packing.feed(
                node,
                deficits[node],
                self._sink,
                guarded=(self.kinds[node] == NodeKind.GUARDED),
                before=packing.position[node],
            )
            if unmet > self.tol:
                raise _RepairFailed(
                    f"orphan {node} short of {unmet:g} upstream spare credit"
                )
        return refed

    # ------------------------------------------------------------------
    # Event applications
    # ------------------------------------------------------------------
    def apply_leave(self, node: int) -> list[int]:
        if node not in self.kinds:
            raise _RepairFailed(f"departure of unplanned node {node}")
        for parent, rate in self.inc.pop(node).items():
            self.out[parent].pop(node, None)
            self.edges_removed += 1
            self.packing.credit(parent, rate)
        deficits: Dict[int, float] = {}
        for child, rate in self.out.pop(node).items():
            self.inc[child].pop(node, None)
            self.edges_removed += 1
            deficits[child] = deficits.get(child, 0.0) + rate
        self.packing.remove(node)
        del self.kinds[node]
        del self.bandwidths[node]
        return self._refeed(deficits)

    def apply_swap(
        self, old: int, new: int, kind: str, bandwidth: float
    ) -> None:
        """Relabel ``old`` as ``new``: a departure whose replacement has
        the *same class* (kind and bandwidth) inherits the departed
        node's edges, pool entry and feed position wholesale — O(degree)
        instead of drop + re-feed + attach."""
        if old not in self.kinds:
            raise _RepairFailed(f"swap departure of unplanned node {old}")
        if new in self.kinds:
            raise _RepairFailed(f"swap join of already-planned node {new}")
        if self.kinds[old] != kind or self.bandwidths[old] != bandwidth:
            raise _RepairFailed(
                f"swap of {old} -> {new} does not preserve its class"
            )
        self.kinds[new] = self.kinds.pop(old)
        self.bandwidths[new] = self.bandwidths.pop(old)
        row = self.out.pop(old)
        self.out[new] = row
        for child in row:
            self.inc[child][new] = self.inc[child].pop(old)
        inc = self.inc.pop(old)
        self.inc[new] = inc
        for parent in inc:
            self.out[parent][new] = self.out[parent].pop(old)
        self.packing.rename(old, new)

    def apply_join(self, node: int, kind: str, bandwidth: float) -> None:
        if node in self.kinds:
            raise _RepairFailed(f"join of already-planned node {node}")
        # Attach as the *last* node of the feed order: every existing
        # member is an eligible (earlier) feeder.
        self.kinds[node] = kind
        self.bandwidths[node] = bandwidth
        self.out[node] = {}
        self.inc[node] = {}
        if self.rate > 0:
            unmet = self.packing.feed(
                node,
                self.rate,
                self._sink,
                guarded=(kind == NodeKind.GUARDED),
            )
            if unmet > self.tol:
                raise _RepairFailed(
                    f"joiner {node} short of {unmet:g} spare credit"
                )
        self.packing.push(node, bandwidth, open_=(kind == NodeKind.OPEN))

    def apply_drift(self, node: int, bandwidth: float) -> list[int]:
        if node not in self.kinds:
            raise _RepairFailed(f"drift of unplanned node {node}")
        used = sum(self.out[node].values())
        self.bandwidths[node] = bandwidth
        if bandwidth + self.tol >= used:
            self.packing.set_spare(node, max(bandwidth - used, 0.0))
            return []
        # Overloaded: shed the latest-attached clients (they have the
        # most earlier alternatives) until within the new bandwidth.
        position = self.packing.position
        excess = used - bandwidth
        deficits: Dict[int, float] = {}
        for child in sorted(
            self.out[node], key=position.__getitem__, reverse=True
        ):
            if excess <= self.tol:
                break
            rate = self.out[node][child]
            take = min(rate, excess)
            excess -= take
            if take >= rate - self.tol:
                self._drop_edge(node, child)
            else:
                self.out[node][child] = rate - take
                self.inc[child][node] = rate - take
            deficits[child] = deficits.get(child, 0.0) + take
        self.packing.set_spare(node, 0.0)
        return self._refeed(deficits)

    # ------------------------------------------------------------------
    # Bridge back to the engine
    # ------------------------------------------------------------------
    def _instance(self) -> tuple[Instance, list[int]]:
        opens = [
            (i, self.bandwidths[i])
            for i in sorted(self.kinds)
            if self.kinds[i] == NodeKind.OPEN
        ]
        guardeds = [
            (i, self.bandwidths[i])
            for i in sorted(self.kinds)
            if self.kinds[i] == NodeKind.GUARDED
        ]
        return canonicalize_population(self.source_bw, opens, guardeds)

    def materialize(self, now: int) -> Plan:
        """Freeze the model into a canonical-space :class:`Plan`."""
        inst, node_ids = self._instance()
        canonical = {ext: k for k, ext in enumerate(node_ids)}
        scheme = BroadcastScheme(inst.num_nodes)
        # ``set_rate`` drops rates within ``ABS_TOL`` of zero, as the
        # full planner's ``add_rate`` does, so a fresh build equals it.
        for sender, row in self.out.items():
            for receiver, rate in row.items():
                scheme.set_rate(canonical[sender], canonical[receiver], rate)
        return Plan(
            instance=inst,
            scheme=scheme,
            rate=self.rate,
            node_ids=node_ids,
            built_at=now,
        )


class IncrementalRepairPlanner(FullRebuildPlanner):
    """Patch the live overlay on churn; rebuild only when it stops paying.

    ``tolerance`` bounds how far the kept rate may fall below the
    Lemma 5.1 upper bound of the current membership before a full
    rebuild is forced; since ``T* >= T*_ac``, every surviving repair
    provisions at least ``(1 - tolerance)`` of what a rebuild would.
    Every repaired scheme is re-checked (bandwidth, firewall,
    acyclicity); a violation is a repair failure.

    The planner keeps only what the next repair reads: the live overlay
    model and the plan it mirrors.  Repair and fallback counts come
    from the :class:`~repro.planning.plan.PlanOutcome` each call returns.
    """

    name = "incremental"

    def __init__(self, tolerance: float = 0.1) -> None:
        if not 0.0 <= tolerance < 1.0:
            raise ValueError(
                f"tolerance must be in [0, 1), got {tolerance}"
            )
        self.tolerance = float(tolerance)
        self._model: Optional[_OverlayModel] = None
        self._plan: Optional[Plan] = None

    # ------------------------------------------------------------------
    def build(self, engine: "RuntimeEngine") -> Plan:
        instance, node_ids = engine.view.snapshot()
        rate, word = engine.cache.solve(instance)
        self._model = _OverlayModel(instance, node_ids, rate, word)
        self._plan = self._model.materialize(engine.now)
        return self._plan

    def replan(
        self, engine: "RuntimeEngine", plan: Plan, events: Iterable[object]
    ) -> PlanOutcome:
        # Deferred import: repro.runtime imports repro.planning at module
        # load, so the event types can only be resolved lazily here.
        from ..runtime.events import BandwidthDrift, NodeJoin, NodeLeave

        if self._plan is not plan:
            return self._fallback(engine, "planner has no model for this plan")
        if plan.instance.num_receivers == 0:
            # Its rate is the solver's ``inf`` for no receivers (and so is
            # the packing tolerance): nothing about it carries over.
            return self._fallback(engine, "plan serves no receiver")
        events = tuple(events)
        model = self._model
        departed: list[int] = []
        joined: list[int] = []
        drifted: list[int] = []
        refed: list[int] = []
        model.edges_added = model.edges_removed = 0
        swaps = class_preserving_swaps(
            events,
            lambda node: (
                (model.kinds[node], model.bandwidths[node])
                if node in model.kinds
                else None
            ),
        )
        try:
            if swaps is not None:
                # Churn that preserves class counts: every departure is
                # relabeled as its same-class replacement — no credit
                # churn, no re-feeding, no edge rewiring.
                for old, new, kind, bandwidth in swaps:
                    model.apply_swap(old, new, kind, bandwidth)
                    departed.append(old)
                    joined.append(new)
            else:
                for ev in events:
                    if isinstance(ev, NodeLeave):
                        refed.extend(model.apply_leave(ev.node_id))
                        departed.append(ev.node_id)
                    elif isinstance(ev, NodeJoin):
                        if ev.node_id is None:
                            raise _RepairFailed(
                                "join without a resolved node id"
                            )
                        model.apply_join(ev.node_id, ev.kind, ev.bandwidth)
                        joined.append(ev.node_id)
                    elif isinstance(ev, BandwidthDrift):
                        refed.extend(
                            model.apply_drift(ev.node_id, ev.bandwidth)
                        )
                        drifted.append(ev.node_id)
                    else:
                        raise _RepairFailed(
                            f"unknown event type {type(ev).__name__}"
                        )
        except _RepairFailed as exc:
            return self._fallback(engine, str(exc))

        new_plan = model.materialize(engine.now)
        bound = cyclic_optimum(new_plan.instance)
        degradation = (
            max(0.0, 1.0 - model.rate / bound) if bound > 0 else 0.0
        )
        if model.rate < (1.0 - self.tolerance) * bound:
            return self._fallback(
                engine,
                f"degradation {degradation:.3f} exceeds tolerance "
                f"{self.tolerance:g}",
            )
        try:
            new_plan.scheme.validate(new_plan.instance, require_acyclic=True)
        except InvalidSchemeError as exc:
            return self._fallback(engine, f"repaired scheme invalid: {exc}")
        self._plan = new_plan
        delta = PlanDelta(
            base_built_at=plan.built_at,
            departed=tuple(departed),
            joined=tuple(joined),
            drifted=tuple(drifted),
            refed=tuple(refed),
            edges_removed=model.edges_removed,
            edges_added=model.edges_added,
            rate=model.rate,
            optimal_bound=bound,
            degradation=degradation,
        )
        return PlanOutcome(new_plan, op="repair", delta=delta)

    def _fallback(self, engine: "RuntimeEngine", reason: str) -> PlanOutcome:
        return PlanOutcome(
            self.build(engine), op="build", fallback=True, reason=reason
        )
