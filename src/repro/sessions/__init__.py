"""Multi-tenant concurrent broadcast sessions over one shared platform.

Every earlier subsystem assumed a single broadcast owns the whole
platform.  Real live-streaming fleets run *many channels at once*, and
the bounded multi-port model is exactly about splitting a node's bounded
upload across a bounded number of concurrent streams — so this package
lifts the single-tenant restriction:

* :mod:`~repro.sessions.spec` — :class:`SessionSpec` (origin, member
  subset, demand rate, priority) and :func:`make_fleet`, which turns any
  registered scenario into K seeded sessions with configurable member
  overlap;
* :mod:`~repro.sessions.broker` — the :class:`CapacityBroker` protocol
  and the ``equal`` / ``proportional`` / ``waterfill`` policies that
  partition each shared node's Theorem 4.1 upload budget across its
  subscribed sessions (re-arbitrated on churn and drift), plus the
  per-session Lemma 5.1 bound the waterfill targets;
* :mod:`~repro.sessions.arbiter` — the arbitration core the fleet and
  the control plane share: alive snapshot, claims, the per-component
  fragment memo and admission control (``reject`` / ``degrade`` below a
  rate floor);
* :mod:`~repro.sessions.fleet` — the :class:`FleetEngine` that compiles
  broker decisions into per-session workloads and drives K concurrent
  :class:`~repro.runtime.engine.RuntimeEngine` runs across the worker
  pool with fleet-amortized probe budgets.

Fleet-level reporting (aggregate vs per-session goodput, Jain fairness,
admission rate) lives in :mod:`repro.analysis.fleet`.
"""

from .arbiter import ADMISSIONS, AdmissionPolicy, admission_names, get_admission
from .broker import (
    BROKERS,
    Allocation,
    CapacityBroker,
    EqualShareBroker,
    ProportionalBroker,
    SessionClaim,
    WaterfillBroker,
    broker_names,
    lemma51_bound,
    make_broker,
)
from .fleet import (
    FleetEngine,
    FleetResult,
    SessionResult,
    jain_fairness,
    session_goodput,
)
from .spec import FleetRun, SessionSpec, make_fleet

__all__ = [
    # spec
    "SessionSpec",
    "FleetRun",
    "make_fleet",
    # broker
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
    # arbiter
    "AdmissionPolicy",
    "ADMISSIONS",
    "admission_names",
    "get_admission",
    # fleet
    "FleetEngine",
    "FleetResult",
    "SessionResult",
    "jain_fairness",
    "session_goodput",
]
