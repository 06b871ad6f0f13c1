"""Spans, and the timing wrappers the traced benchmark run injects.

The benchmark times the program from outside.  It records spans only
around objects the public API lets a caller inject:

* a :class:`~repro.planning.Planner` instance (``RuntimeEngine(planner=)``);
* the :class:`~repro.planning.PlanCache` (``RuntimeEngine(cache=)``,
  ``ControlPlane(cache=)``), whose cache misses are Theorem 4.1 solves;
* the :class:`~repro.service.ledger.ReservationLedger` (``ControlPlane(ledger=)``);
* the plane object handed to :class:`~repro.service.server.ControlPlaneServer`;
* the broker the plane arbitrates with (``plane.broker``).

Work the program only reports as totals (``RunResult.phase_seconds``,
``plane.plan_ops``, the :class:`~repro.analysis.scale.ScaleReport` phase
times) becomes *synthetic* child spans: they carry the right duration
and parent, and start at their parent's start.

A span's layer is the part of its name before the first dot.  A layer's
self time is the summed duration of its spans minus the durations of
their direct children.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.planning import PlanCache, Planner
from repro.service.ledger import ReservationLedger

#: The repository modules the benchmark reports self time for.
LAYERS = (
    "runtime",
    "planning",
    "algorithms",
    "flows",
    "simulation",
    "estimation",
    "sessions",
    "service",
)


class Tracer:
    """In-memory span recorder; :meth:`dump` writes the spans at the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        #: Identifier shared by every span of one unit of work.
        self.run_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def synthetic(self, name: str, parent: int, seconds: float) -> int:
        """Child span for a duration the program reports only as a total."""
        start = self.spans[parent]["start"]
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": start + seconds,
            "parent": parent,
            "run": self.spans[parent]["run"],
            "synthetic": True,
        }
        self.spans.append(rec)
        return rec["id"]

    def adopt(self, parent: int, new_parent: int, prefix: str) -> None:
        """Move the direct children of ``parent`` named ``prefix*`` under
        ``new_parent`` (work a synthetic span's total already contains)."""
        for rec in self.spans:
            if rec["parent"] == parent and rec["name"].startswith(prefix):
                rec["parent"] = new_parent

    def total(self, prefix: str) -> float:
        """Summed duration of the spans named ``prefix*``."""
        return math.fsum(
            r["end"] - r["start"] for r in self.spans if r["name"].startswith(prefix)
        )

    def count(self, prefix: str) -> int:
        return sum(1 for r in self.spans if r["name"].startswith(prefix))

    def self_seconds(self, run: Optional[int] = None) -> dict[str, float]:
        """Self time per layer (every layer in :data:`LAYERS` present)."""
        covered: dict[int, float] = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                covered[rec["parent"]] = (
                    covered.get(rec["parent"], 0.0) + rec["end"] - rec["start"]
                )
        out = dict.fromkeys(LAYERS, 0.0)
        for rec in self.spans:
            if run is not None and rec["run"] != run:
                continue
            layer = rec["name"].split(".", 1)[0]
            out[layer] = (
                out.get(layer, 0.0)
                + (rec["end"] - rec["start"])
                - covered.get(rec["id"], 0.0)
            )
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


class TracedPlanner(Planner):
    """Delegates to a real planner, one span per build / replan call."""

    def __init__(self, inner: Planner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name

    def build(self, engine):
        with self.tracer.span("planning.build"):
            return self.inner.build(engine)

    def replan(self, engine, plan, events):
        with self.tracer.span("planning.replan"):
            return self.inner.replan(engine, plan, events)


class TracedPlanCache(PlanCache):
    """A :class:`PlanCache` whose misses (full solves) are spanned."""

    def __init__(self, tracer: Tracer, max_entries: int = 4096) -> None:
        super().__init__(max_entries)
        self.tracer = tracer

    def solve(self, instance):
        if instance in self:
            return super().solve(instance)
        with self.tracer.span("algorithms.solve"):
            return super().solve(instance)


class TracedLedger(ReservationLedger):
    """A journal whose appends (encode + write + flush) are spanned."""

    def __init__(self, path, tracer: Tracer) -> None:
        super().__init__(path)
        self.tracer = tracer

    def append(self, record: dict) -> None:
        with self.tracer.span("service.ledger_append"):
            super().append(record)


class TracedBroker:
    """Wraps ``plane.broker``: one span per broker arbitration."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def arbitrate(self, kinds, bandwidths, claims):
        with self.tracer.span("sessions.arbitrate"):
            return self.inner.arbitrate(kinds, bandwidths, claims)


class TracedPlane:
    """The object handed to ``ControlPlaneServer`` in a traced run.

    The server calls only ``submit`` / ``submit_batch``; each batch
    becomes a ``service.submit`` span.  The batch's planner time, read
    from the public ``plane.plan_ops`` record, becomes a synthetic
    ``planning.replan`` child that adopts the batch's solve spans.
    """

    def __init__(self, plane, tracer: Tracer) -> None:
        self.plane = plane
        self.tracer = tracer

    def submit(self, request):
        return self.submit_batch((request,))[0]

    def submit_batch(self, requests):
        before = len(self.plane.plan_ops)
        with self.tracer.span("service.submit") as rec:
            responses = self.plane.submit_batch(requests)
        ops = self.plane.plan_ops[before:]
        if ops:
            plan = self.tracer.synthetic(
                "planning.replan", rec["id"], math.fsum(op[2] for op in ops)
            )
            self.tracer.adopt(rec["id"], plan, "algorithms.")
        self.tracer.run_id += 1
        return responses
