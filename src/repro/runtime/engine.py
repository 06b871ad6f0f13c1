"""Event-driven runtime: advance a platform through events, re-optimize.

The engine turns the paper's one-shot pipeline (instance -> Theorem 4.1
overlay -> packet simulation) into a *control loop* over a
:class:`~repro.runtime.events.DynamicPlatform`:

1. drain all events up to the current slot and apply them;
2. ask the controller policy whether a new plan is due; if so, hand the
   injected :class:`~repro.planning.Planner` every event applied since
   the active plan was installed — it answers with a full rebuild
   (memoized through the planning-owned :class:`~repro.planning.PlanCache`)
   or an incremental repair of the live overlay;
3. simulate the epoch — the interval until the next event or controller
   wake-up — through the :mod:`repro.simulation` facade (backend
   selectable per engine via ``sim_backend``), marking departed overlay
   members as failed so stale plans starve exactly the peers they would
   starve in the field.  The default, ``"auto"``, runs the paper's
   Section II-C schedule: the plan's weighted broadcast trees on the
   ``sharded`` transport, falling back per transport run to the
   ``reference`` random-useful-packet loop for schemes that do not
   split into trees (none of the engine's do: oracle plans are
   equal-in-rate DAGs and truth-clipped ones are leveled, below);
   ``sim_backend="reference"`` names that loop for every epoch;
4. record an :class:`EpochReport` (goodput, delivered-vs-planned rate,
   distance to the *recomputed* optimum ``T*_ac``, plan-op and
   planner-cost bookkeeping).

Plan *construction* lives entirely in :mod:`repro.planning`; the engine
only decides epoch boundaries, keeps the measurement loop honest, and
accounts for what each planning decision cost (``plan_op`` /
``plan_seconds`` per epoch, ``repairs`` / ``repair_fallbacks`` /
``plan_seconds`` per run).  Every plan, the first included, comes from
one :func:`~repro.planning.plan_step` call.  ``planner=None`` resolves
at :meth:`RuntimeEngine.run` to the controller's ``planner`` attribute:
the ``incremental`` controller gets an
:class:`~repro.planning.IncrementalRepairPlanner`, everything else the
historical :class:`~repro.planning.FullRebuildPlanner`.

Every epoch runs on a :class:`~repro.simulation.core.PacketSimEngine`;
``warm_epochs`` only decides whether it is reused.  Cold (default,
``warm_epochs=False``): every epoch starts a new transport run from
empty buffers with departed members failed from slot 0 — reproducible,
but short epochs then measure ramp-up artifacts.  Warm
(``warm_epochs=True``): the plan's run carries buffers/credits/RNG
across its epochs, departures are injected mid-stream at the slot they
happen, and only a new plan starts a new run.

With ``estimation="online"`` the engine closes the paper's Section II-C
measurement loop: at every epoch boundary a
:class:`~repro.estimation.online.ProbeScheduler` issues seeded sparse
pairwise probes against the live platform, an
:class:`~repro.estimation.online.OnlineEstimator` folds them (with
exponential decay and churn-delta purges) into LastMile estimates, and
the resulting :class:`~repro.estimation.online.EstimatedPlatformView`
is what planners consult through :attr:`RuntimeEngine.view` — the
controller re-optimizes on *measured*, not oracle, bandwidths.  The
epoch transport stays honest: planned edge rates are clipped to the
*true* capacities of the plan's members (the QoS-limiter model of
:func:`~repro.flows.arborescence.clip_to_capacities`), so
overestimated uplinks under-deliver exactly as they would in the field,
while ``optimal_rate`` keeps scoring epochs against the oracle optimum.
The clipped plan is then leveled to its worst receiver's max-flow
(:func:`~repro.flows.arborescence.level_in_rates`) and injected at that
rate, so it splits into Section II-C trees like an oracle plan.
Per-epoch probe counts and estimation errors land in
:class:`EpochReport`; probes never touch the engine's simulation RNG,
so oracle and estimated runs of the same seed share transport noise.

Everything is reproducible end to end: one ``seed`` drives the engine's
per-epoch simulation seeds, scenario generators receive their own
seeded RNGs (see :mod:`repro.runtime.scenarios`), and probe values
derive from per-pair counter-based streams.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Union

from ..core.instance import Instance
from ..core.scheme import BroadcastScheme
from ..estimation.online import (
    PROBES_PER_NODE,
    EstimatedPlatformView,
    OnlineEstimator,
    ProbeScheduler,
)
from ..flows.arborescence import clip_to_capacities, level_in_rates
from ..planning import (
    Plan,
    PlanCache,
    Planner,
    make_planner,
    plan_step,
    planner_names,
)
from ..simulation.backends import RATE_BACKOFF
from ..simulation.core import PacketSimEngine
from .events import DynamicPlatform, Event, EventQueue, NodeJoin, NodeLeave

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .controller import Controller

__all__ = [
    "Plan",
    "EpochReport",
    "RunResult",
    "RuntimeEngine",
]

#: Per-epoch transport granularity: packets injected per slot.
PACKETS_PER_SLOT = 2.0
#: Share of a new transport run's first epoch spent warming up before
#: goodput is measured.
WARMUP_FRACTION = 0.3
#: Epoch transports the engine runs: the paper's tree schedule with its
#: fallback, and the random-useful-packet oracle.  ``sharded`` is not
#: one: wherever it would run, ``auto`` builds the same backend.
SIM_BACKENDS = ("auto", "reference")


@dataclass
class EpochReport:
    """Measurements for one epoch ``[start, end)`` of the run."""

    start: int
    end: int
    num_alive: int  #: alive receivers on the platform during the epoch
    planned_rate: float  #: rate the active plan provisions
    optimal_rate: float  #: recomputed ``T*_ac`` of the alive swarm
    min_goodput: float  #: worst alive receiver (0.0 for unplanned peers)
    mean_goodput: float
    starved: int  #: alive receivers below 50% of the planned rate
    unserved: int  #: alive receivers absent from the active plan
    rebuilt: bool  #: a new plan (build *or* repair) was installed at ``start``
    events: tuple[Event, ...] = ()  #: events applied at ``start``
    plan_op: str = "keep"  #: ``"build"`` / ``"repair"`` / ``"keep"``
    #: Planner wall time spent at this epoch's boundary (measurement
    #: noise: excluded from equality, like ``RunSummary.wall_time``).
    plan_seconds: float = field(default=0.0, compare=False)
    probes: int = 0  #: pairwise probes issued at this epoch's boundary
    #: Median relative error of the estimated view vs the oracle at the
    #: boundary (None when estimation is off or no receiver is alive).
    estimation_error: Optional[float] = None

    @property
    def slots(self) -> int:
        return self.end - self.start

    @property
    def delivered_fraction(self) -> float:
        """Worst delivered rate relative to the *planned* rate."""
        if self.planned_rate <= 0:
            return 1.0
        return self.min_goodput / self.planned_rate

    @property
    def optimality_fraction(self) -> float:
        """Worst delivered rate relative to the recomputed optimum."""
        if self.optimal_rate <= 0:
            return 1.0
        return self.min_goodput / self.optimal_rate


@dataclass
class RunResult:
    """Everything one engine run produced."""

    controller: str
    horizon: int
    epochs: list[EpochReport]
    rebuilds: int  #: full optimizations (initial build + rebuilds/fallbacks)
    repair_latencies: list[int]  #: slots from each departure to the next plan
    cache_hits: int
    cache_misses: int
    seed: Optional[int] = None
    scenario: Optional[str] = None
    planner: str = "full"  #: registry name of the planner that ran
    repairs: int = 0  #: incremental deltas applied instead of rebuilds
    repair_fallbacks: int = 0  #: repair attempts that fell back to a build
    plan_seconds: float = 0.0  #: total wall time spent inside the planner
    estimation: str = "oracle"  #: bandwidth feed: ``"oracle"`` / ``"online"``
    probes: int = 0  #: total pairwise probes the run paid for
    #: Wall-time breakdown of the run loop (``plan`` / ``arbitrate`` /
    #: ``simulate`` / ``epoch_boundary``), surfaced by ``--profile``.
    #: Measurement noise: excluded from equality like ``plan_seconds``.
    phase_seconds: dict = field(default_factory=dict, compare=False)

    def _weighted(self, attr: str) -> float:
        total = sum(e.slots for e in self.epochs)
        if total == 0:
            return 1.0
        return (
            sum(getattr(e, attr) * e.slots for e in self.epochs) / total
        )

    @property
    def mean_delivered_fraction(self) -> float:
        """Slot-weighted mean of per-epoch delivered-vs-planned rate."""
        return self._weighted("delivered_fraction")

    @property
    def mean_optimality_fraction(self) -> float:
        """Slot-weighted mean of per-epoch delivered-vs-``T*_ac`` rate."""
        return self._weighted("optimality_fraction")

    @property
    def worst_delivered_fraction(self) -> float:
        if not self.epochs:
            return 1.0
        return min(e.delivered_fraction for e in self.epochs)

    @property
    def mean_repair_latency(self) -> Optional[float]:
        if not self.repair_latencies:
            return None
        return sum(self.repair_latencies) / len(self.repair_latencies)

    @property
    def mean_estimation_error(self) -> Optional[float]:
        """Slot-weighted mean of per-epoch median estimation errors."""
        scored = [
            e for e in self.epochs if e.estimation_error is not None
        ]
        total = sum(e.slots for e in scored)
        if total == 0:
            return None
        return (
            sum(e.estimation_error * e.slots for e in scored) / total
        )


def make_engine_planner(
    name: str, repair_tolerance: Optional[float]
) -> Planner:
    """Instantiate planner ``name`` from the knob the engine and the
    control plane share.  ``repair_tolerance`` only reaches the
    incremental planner, whose constructor checks it."""
    kwargs = {}
    if name == "incremental" and repair_tolerance is not None:
        kwargs["tolerance"] = repair_tolerance
    return make_planner(name, **kwargs)


class RuntimeEngine:
    """Drives one platform through one event list under one controller.

    ``sim_backend`` picks the epoch transport: ``"auto"`` (default; the
    plan's broadcast trees on ``sharded``, ``reference`` for schemes
    that do not decompose) or ``"reference"``.
    """

    def __init__(
        self,
        platform: DynamicPlatform,
        events: Iterable[Event],
        horizon: int,
        *,
        seed: Optional[int] = 0,
        cache: Optional[PlanCache] = None,
        min_epoch_slots: int = 1,
        sim_backend: str = "auto",
        warm_epochs: bool = False,
        planner: Union[str, Planner, None] = None,
        repair_tolerance: Optional[float] = None,
        estimation: Optional[str] = None,
        probes_per_node: float = PROBES_PER_NODE,
        estimator_decay: float = 0.8,
        noise_sigma: float = 0.1,
    ) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if min_epoch_slots < 1:
            raise ValueError(
                f"min_epoch_slots must be >= 1, got {min_epoch_slots}"
            )
        # Fail fast: an unknown backend or a bad combination would otherwise
        # only surface mid-run, at the first simulated epoch (or, via
        # the batch runner, after a whole sweep has been dispatched).
        if sim_backend not in SIM_BACKENDS:
            raise ValueError(
                f"unknown simulation backend {sim_backend!r} "
                f"(known: {', '.join(SIM_BACKENDS)})"
            )
        if isinstance(planner, str) and planner not in planner_names():
            raise ValueError(
                f"unknown planner {planner!r} "
                f"(known: {', '.join(planner_names())})"
            )
        if repair_tolerance is not None:
            if not 0.0 <= repair_tolerance < 1.0:
                raise ValueError(
                    f"repair_tolerance must be in [0, 1), got {repair_tolerance}"
                )
            if planner is not None and planner != "incremental":
                raise ValueError(
                    "repair_tolerance applies to the 'incremental' planner; "
                    "configure an explicit planner instance directly"
                )
        if estimation not in (None, "oracle", "online"):
            raise ValueError(
                f"estimation must be None, 'oracle' or 'online', "
                f"got {estimation!r}"
            )
        if not 0 <= probes_per_node < math.inf:
            raise ValueError(
                f"probes_per_node must be finite and >= 0, "
                f"got {probes_per_node}"
            )
        if not 0.0 < estimator_decay <= 1.0:
            raise ValueError(
                f"estimator_decay must be in (0, 1], got {estimator_decay}"
            )
        if not 0 <= noise_sigma < math.inf:
            raise ValueError(
                f"noise_sigma must be finite and >= 0, got {noise_sigma}"
            )
        self.platform = platform
        self.queue = EventQueue(events)
        self.horizon = int(horizon)
        self.seed = seed
        self.cache = cache if cache is not None else PlanCache()
        self.min_epoch_slots = int(min_epoch_slots)
        self.sim_backend = sim_backend
        self.warm_epochs = bool(warm_epochs)
        self._rng = random.Random(seed)
        self.now = 0
        self.repair_tolerance = repair_tolerance
        #: Run-loop wall-time breakdown, reset per :meth:`run`.
        self.phase_seconds: dict[str, float] = {}
        # A concrete spec (instance or name) materializes eagerly; only
        # ``None`` waits for run() to pair it with the controller's.
        self.planner: Optional[Planner] = None
        if isinstance(planner, Planner):
            self.planner = planner
        elif isinstance(planner, str):
            self.planner = make_engine_planner(planner, repair_tolerance)
        #: The plan the run loop currently simulates (planner input).
        self.active_plan: Optional[Plan] = None
        #: Warm-state carry-over: one live transport run per active plan
        #: (``warm_epochs`` only; cold epochs never store their run).
        self._warm_sim: Optional[PacketSimEngine] = None
        self._warm_plan: Optional[Plan] = None
        self._warm_failed: set[int] = set()
        #: Estimation-in-the-loop state.  ``"oracle"`` (the default) is a
        #: pure passthrough: planners read the platform directly and no
        #: probe is ever issued.
        self.estimation = "online" if estimation == "online" else "oracle"
        self._view: Optional[EstimatedPlatformView] = None
        if self.estimation == "online":
            self._view = EstimatedPlatformView(
                platform,
                ProbeScheduler(
                    seed=seed if seed is not None else 0,
                    probes_per_node=probes_per_node,
                    noise_sigma=noise_sigma,
                ),
                OnlineEstimator(decay=estimator_decay),
            )
        self._pending_probes = 0
        self._pending_est_error: Optional[float] = None
        #: Truth-clipped, leveled transport scheme and its rate,
        #: memoized per installed plan.
        self._clip_plan: Optional[Plan] = None
        self._clip_scheme: Optional[tuple[BroadcastScheme, float]] = None

    # ------------------------------------------------------------------
    # Estimation seam
    # ------------------------------------------------------------------
    @property
    def view(self) -> Union[DynamicPlatform, EstimatedPlatformView]:
        """The platform *as planners see it*: the oracle
        :class:`DynamicPlatform` by default, the
        :class:`~repro.estimation.online.EstimatedPlatformView` when
        ``estimation="online"``.  Both expose the same read API
        (``snapshot`` / ``alive_ids`` / ``is_alive`` / ``num_alive``), so
        planners consume either transparently.
        """
        return self._view if self._view is not None else self.platform

    def _observe(self, events: tuple[Event, ...]) -> None:
        """One measurement round at the current epoch boundary.

        Feeds applied churn events to the estimator, issues this
        boundary's probes, and stages probe-cost / estimation-error
        accounting for the next :class:`EpochReport`.  A no-op in oracle
        mode.
        """
        if self._view is None:
            return
        if events:
            self._view.note_events(events)
        self._pending_probes += self._view.refresh(self.now)
        self._pending_est_error = self._view.median_error()

    def _transport_scheme(self, plan: Plan) -> tuple[BroadcastScheme, float]:
        """The scheme the per-epoch transport actually runs, with its rate.

        Oracle mode simulates the plan verbatim at ``plan.rate``.  Under
        estimation the plan's edge rates were provisioned against
        *estimated* uplinks, so each member's outgoing rates are
        proportionally clipped to its true capacity at install time
        (per-node QoS enforcement, the model of
        :func:`~repro.flows.arborescence.clip_to_capacities`) — an
        overestimated relay under-delivers downstream exactly as it
        would in the field, which is what makes the measured estimation
        gap real rather than cosmetic.  Clipping only lowers rates, so
        the clipped plan stays acyclic and its worst receiver's max-flow
        is its smallest in-rate ``r``; the scheme is then leveled to
        ``r`` (:func:`~repro.flows.arborescence.level_in_rates`), an
        equal-in-rate DAG whose Section II-C trees deliver that bound.
        ``r`` is 0 when some receiver's feeders all have true capacity
        0.  Memoized per installed plan.
        """
        if self._view is None:
            return plan.scheme, plan.rate
        if self._clip_plan is not plan:
            clipped = clip_to_capacities(
                plan.scheme, self.platform.true_capacities(plan.node_ids)
            )
            src, dst, rate = clipped.edge_arrays()
            leveled, level = level_in_rates(clipped.num_nodes, dst, rate)
            scheme = BroadcastScheme.from_edges(
                clipped.num_nodes,
                list(zip(src.tolist(), dst.tolist(), leveled.tolist())),
            )
            self._clip_scheme = (scheme, level)
            self._clip_plan = plan
        return self._clip_scheme

    # ------------------------------------------------------------------
    # Planner seam
    # ------------------------------------------------------------------
    def build_plan(self) -> Plan:
        """Fully optimize the current alive swarm into a fresh :class:`Plan`."""
        if self.planner is None:
            self.planner = make_engine_planner("full", None)
        return self.planner.build(self)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, controller: "Controller") -> RunResult:
        epochs: list[EpochReport] = []
        rebuilds = 0
        repairs = 0
        repair_fallbacks = 0
        plan_seconds = 0.0
        repair_latencies: list[int] = []
        since_plan: list[Event] = []  # applied since the active plan's install

        if self.planner is None:
            self.planner = make_engine_planner(
                controller.planner, self.repair_tolerance
            )
        self.active_plan = None

        # Wall-time breakdown for --profile: ``plan`` is time inside the
        # planner step, ``arbitrate`` the controller's decisions,
        # ``simulate`` the epoch transport, ``epoch_boundary`` the event
        # application / estimation / bookkeeping between epochs.  Each
        # lap charges the time since the previous one to one phase.
        phases = {
            "plan": 0.0, "arbitrate": 0.0,
            "simulate": 0.0, "epoch_boundary": 0.0,
        }
        self.phase_seconds = phases
        clock = time.perf_counter()  # repro: noqa REP002 -- plan/phase timing telemetry (compare=False); not replayed

        def lap(phase: str) -> None:
            nonlocal clock
            now = time.perf_counter()  # repro: noqa REP002 -- plan/phase timing telemetry (compare=False); not replayed
            phases[phase] += now - clock
            clock = now

        fired = tuple(self._apply_event(ev) for ev in self.queue.pop_until(0))
        self._observe(fired)
        lap("epoch_boundary")
        controller.start(self.now)
        lap("arbitrate")
        wake = True  # the initial build
        while True:
            if wake:
                # Under estimation the planner sees join/drift events at
                # their *observed* bandwidths, never the oracle values.
                events = tuple(since_plan)
                if self._view is not None:
                    events = tuple(map(self._view.observe_event, events))
                outcome = plan_step(
                    self.planner, self, self.active_plan, events
                )
                lap("plan")
                self.active_plan = outcome.plan
                if outcome.op == "repair":
                    repairs += 1
                else:
                    rebuilds += 1
                    repair_fallbacks += int(outcome.fallback)
                plan_seconds += outcome.seconds
                repair_latencies.extend(
                    self.now - ev.time
                    for ev in since_plan
                    if isinstance(ev, NodeLeave)
                )
                since_plan.clear()
            plan = self.active_plan
            fresh = self.now == plan.built_at
            end = self._epoch_end(controller)
            # A build this boundary read the oracle platform as it still
            # is: its instance is the snapshot the epoch is scored on.
            snapshot = (
                plan.instance
                if fresh and outcome.op == "build" and self._view is None
                else None
            )
            epochs.append(self._simulate_epoch(
                plan, self.now, end, fired,
                rebuilt=fresh,
                plan_op=outcome.op if fresh else "keep",
                plan_seconds=outcome.seconds if fresh else 0.0,
                snapshot=snapshot,
            ))
            lap("simulate")
            self.now = end
            if self.now >= self.horizon:
                break
            fired = tuple(
                self._apply_event(ev) for ev in self.queue.pop_until(self.now)
            )
            since_plan.extend(fired)
            self._observe(fired)
            lap("epoch_boundary")
            wake = controller.on_change(self.now, fired)
            lap("arbitrate")

        hits, misses = self.cache.stats()
        return RunResult(
            controller=controller.name,
            horizon=self.horizon,
            epochs=epochs,
            rebuilds=rebuilds,
            repair_latencies=repair_latencies,
            cache_hits=hits,
            cache_misses=misses,
            seed=self.seed,
            planner=self.planner.name,
            repairs=repairs,
            repair_fallbacks=repair_fallbacks,
            plan_seconds=plan_seconds,
            estimation=self.estimation,
            probes=sum(e.probes for e in epochs),
            phase_seconds=dict(phases),
        )

    def _apply_event(self, ev: Event) -> Event:
        """Apply one event; anonymous joins come back with their assigned
        id resolved, so planners (and epoch reports) see concrete peers."""
        assigned = self.platform.apply(ev)
        if isinstance(ev, NodeJoin) and ev.node_id is None:
            ev = dataclasses.replace(ev, node_id=assigned)
        return ev

    def _epoch_end(self, controller: "Controller") -> int:
        """Next decision point: event, controller wake-up, or horizon.

        ``min_epoch_slots`` is the control-loop tick: with a tick above 1
        the engine refuses to cut epochs shorter than the tick, batching
        event storms (e.g. a flash crowd arriving one peer per slot) into
        one decision instead of simulating unmeasurable 1-slot epochs.
        Events still *take effect* at the boundary where they are popped,
        never before their timestamp.
        """
        end = self.horizon
        pending = self.queue.peek_time()
        if pending is not None:
            end = min(end, max(pending, self.now + 1))
        wake = controller.wake_after(self.now)
        if wake is not None:
            end = min(end, max(int(wake), self.now + 1))
        end = max(end, self.now + self.min_epoch_slots)
        return min(max(end, self.now + 1), max(self.horizon, self.now + 1))

    # ------------------------------------------------------------------
    # Epoch measurement
    # ------------------------------------------------------------------
    def _simulate_epoch(
        self,
        plan: Plan,
        start: int,
        end: int,
        events: tuple[Event, ...],
        *,
        rebuilt: bool,
        plan_op: str = "keep",
        plan_seconds: float = 0.0,
        snapshot: Optional[Instance] = None,
    ) -> EpochReport:
        """Run and score one epoch; ``snapshot`` is the platform's
        canonical instance when the caller already holds it."""
        alive = self.platform.alive_ids()
        if snapshot is None:
            snapshot = self.platform.snapshot()[0]
        optimal_rate = self.cache.optimal_rate(snapshot)
        probes, est_error = self._pending_probes, self._pending_est_error
        self._pending_probes, self._pending_est_error = 0, None
        if not alive:
            # Vacuous epoch: nobody to serve.  A plan built on an empty
            # swarm carries rate inf (the solver's convention for zero
            # receivers), which must not leak into slot-weighted means —
            # report it as 0 and let delivered_fraction read 1.0.
            rate = plan.rate if math.isfinite(plan.rate) else 0.0
            return EpochReport(
                start=start, end=end, num_alive=0,
                planned_rate=rate, optimal_rate=optimal_rate,
                min_goodput=rate, mean_goodput=rate,
                starved=0, unserved=0, rebuilt=rebuilt, events=events,
                plan_op=plan_op, plan_seconds=plan_seconds,
                probes=probes, estimation_error=est_error,
            )

        goodput_by_id = dict.fromkeys(alive, 0.0)
        if plan.rate > 0 and plan.size > 1:
            failed = {
                k
                for k, node_id in enumerate(plan.node_ids)
                if k > 0 and not self.platform.is_alive(node_id)
            }
            goodput = self._epoch_goodput(plan, failed, end - start)
            for k, node_id in enumerate(plan.node_ids):
                if k > 0 and node_id in goodput_by_id:
                    goodput_by_id[node_id] = goodput[k]

        values = list(goodput_by_id.values())
        planned_members = set(plan.node_ids)
        return EpochReport(
            start=start,
            end=end,
            num_alive=len(alive),
            planned_rate=plan.rate,
            optimal_rate=optimal_rate,
            min_goodput=min(values),
            mean_goodput=math.fsum(values) / len(values),
            starved=sum(1 for v in values if v < 0.5 * plan.rate),
            unserved=sum(1 for i in alive if i not in planned_members),
            rebuilt=rebuilt,
            events=events,
            plan_op=plan_op,
            plan_seconds=plan_seconds,
            probes=probes,
            estimation_error=est_error,
        )

    def _epoch_goodput(
        self, plan: Plan, failed: set[int], slots: int
    ) -> list[float]:
        """Run the epoch's transport; per-member goodput of its window.

        A new run (always when cold, on a new plan when warm) injects at
        the rate :meth:`_transport_scheme` returns, draws its seed from
        the engine's RNG, fails departed members from slot 0 and spends
        ``WARMUP_FRACTION`` of the epoch warming up; a leveled rate of 0
        starts no run and draws no seed, and every member reads 0.  A warm
        run carries its packet buffers/credits/RNG into the plan's later
        epochs, which are measured over their full span, so short epochs
        measure real transients instead of fresh ramp-ups; members that
        departed since the last epoch fail at the run's *current* slot,
        mid-stream, which is when the field would see their edges go
        dark.
        """
        sim = self._warm_sim if self._warm_plan is plan else None
        if sim is None:
            scheme, level = self._transport_scheme(plan)
            if level <= 0.0:
                # A receiver lost every feeder to truth-clipping: the
                # leveled scheme carries nothing, so nothing is run.
                return [0.0] * plan.size
            rate = level * RATE_BACKOFF
            sim_seed = (
                self._rng.randrange(2**32) if self.seed is not None else None
            )
            sim = PacketSimEngine(
                plan.instance,
                scheme,
                rate,
                packets_per_unit=PACKETS_PER_SLOT / max(rate, 1e-12),
                seed=sim_seed,
                failures={k: 0 for k in sorted(failed)},
                backend=self.sim_backend,
            )
            if self.warm_epochs:
                self._warm_sim, self._warm_plan = sim, plan
                self._warm_failed = set(failed)
            warmup = int(slots * WARMUP_FRACTION)
        else:
            for k in sorted(failed - self._warm_failed):
                sim.fail_node(k)
            self._warm_failed |= failed
            warmup = 0
        sim.step(warmup)
        sim.begin_window()
        sim.step(slots - warmup)
        return sim.window_goodput()
