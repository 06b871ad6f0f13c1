"""Ablation studies for the design choices called out in DESIGN.md.

These go beyond the paper's published evaluation: each ablation isolates
one design decision of the system and quantifies what it buys.

* :func:`greedy_vs_exhaustive` — Algorithm 2 + bisection against brute
  force over all ``C(n+m, m)`` orders (LP per order).  Certifies the
  optimality claim of Lemma 4.5 empirically on random instances.
* :func:`packing_degree_ablation` — the Lemma 4.6 FIFO packing against an
  LP solution of the same order: the LP reaches the same throughput but
  with much larger degrees, which is the reason the paper bothers with
  the packing argument at all.
* :func:`omega_quality` — how much throughput the search-free
  ``omega1/omega2`` words give up against the optimal word, per
  heterogeneity level.
* :func:`baseline_comparison` — the paper's overlays against source-star,
  single random tree and SplitStream-style striping.
* :func:`cyclic_gain` — what the cyclic construction (Theorem 5.2) buys
  over the best acyclic scheme on open-only instances (bounded by
  ``1/(1 - 1/n)``, Theorem 6.1).
* :func:`repair_tolerance_ablation` — the incremental planner's
  degradation tolerance swept on a steady-churn trace: how much
  optimality a looser tolerance trades for fewer full rebuilds.
* :func:`estimation_ablation` — the same steady-churn trace replayed
  with controllers planning on oracle vs *measured* bandwidths
  (``estimation="online"``) at several probe budgets: what the
  measurement loop costs end to end, churn included (the flow-level
  probe-budget x noise sweep lives in
  :mod:`repro.analysis.estimation_gap`).
* :func:`service_ablation` — control-plane request traces replayed
  under incremental re-arbitration vs the cold-solve control arm:
  per-request admission latency, throughput, and what each mutation
  disrupts (:mod:`repro.analysis.service`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms.acyclic_guarded import (
    acyclic_guarded_scheme,
    optimal_acyclic_throughput,
    scheme_from_word,
)
from ..algorithms.baselines import (
    multi_tree_scheme,
    random_tree_scheme,
    source_star_scheme,
)
from ..algorithms.cyclic_open import cyclic_open_scheme
from ..algorithms.exact import exhaustive_acyclic_throughput
from ..core.bounds import acyclic_open_optimum, cyclic_open_optimum, cyclic_optimum
from ..core.instance import Instance
from ..core.scheme import BroadcastScheme
from ..core.throughput import scheme_throughput
from ..core.word_catalog import best_omega_throughput
from ..core.words import word_to_order
from ..instances.generators import random_instance

__all__ = [
    "greedy_vs_exhaustive",
    "PackingAblation",
    "packing_degree_ablation",
    "omega_quality",
    "BaselineRow",
    "baseline_comparison",
    "CyclicGainRow",
    "cyclic_gain",
    "SourceSensitivityRow",
    "source_sensitivity",
    "BackendRow",
    "simulation_backend_ablation",
    "RepairToleranceRow",
    "repair_tolerance_ablation",
    "EstimationRow",
    "estimation_ablation",
    "SessionsRow",
    "sessions_ablation",
    "ServiceRow",
    "service_ablation",
]


def greedy_vs_exhaustive(
    trials: int = 40,
    max_receivers: int = 7,
    seed: int = 7,
) -> float:
    """Worst relative error of the dichotomic-greedy ``T*_ac`` vs brute force.

    Returns ``max |greedy - exhaustive| / exhaustive`` over random small
    instances (expected: bisection precision, ~1e-12).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        size = int(rng.integers(2, max_receivers + 1))
        inst = random_instance(rng, size, float(rng.uniform(0.2, 0.9)), "Unif100")
        t_greedy, _ = optimal_acyclic_throughput(inst)
        t_exact, _ = exhaustive_acyclic_throughput(inst)
        if t_exact > 0:
            worst = max(worst, abs(t_greedy - t_exact) / t_exact)
    return worst


@dataclass
class PackingAblation:
    """FIFO packing vs LP edge assignment at the same (order, throughput)."""

    throughput_fifo: float
    throughput_lp: float
    max_excess_degree_fifo: int  #: max over nodes of o_i - ceil(b_i/T)
    max_excess_degree_lp: int
    edges_fifo: int
    edges_lp: int


def _lp_scheme_for_order(
    instance: Instance, word: str, throughput: float
) -> BroadcastScheme:
    """An LP-optimal rate assignment for a fixed order (dense degrees).

    Re-solves the order LP and reads off the rate variables; no attempt is
    made to sparsify, which is precisely the point of the ablation.
    """
    from scipy.optimize import linprog

    order = word_to_order(instance, word)
    L = len(order)
    edges = [
        (k, l)
        for k in range(L)
        for l in range(k + 1, L)
        if instance.can_send(order[k], order[l])
    ]
    nvar = len(edges)
    # Feasibility LP at fixed T: minimize total rate (a mild sparsifier
    # that is still far denser than the FIFO packing).
    obj = np.ones(nvar)
    rows, rhs = [], []
    for l in range(1, L):
        row = np.zeros(nvar)
        for e, (_, kl) in enumerate(edges):
            if kl == l:
                row[e] = -1.0
        rows.append(row)
        rhs.append(-throughput)
    for k in range(L):
        row = np.zeros(nvar)
        for e, (kk, _) in enumerate(edges):
            if kk == k:
                row[e] = 1.0
        rows.append(row)
        rhs.append(instance.bandwidth(order[k]))
    res = linprog(
        obj,
        A_ub=np.vstack(rows),
        b_ub=np.array(rhs),
        bounds=[(0, None)] * nvar,
        method="highs",
    )
    if not res.success:
        raise ValueError("order LP infeasible at the requested throughput")
    scheme = BroadcastScheme.for_instance(instance)
    for e, (k, l) in enumerate(edges):
        if res.x[e] > 1e-9:
            scheme.add_rate(order[k], order[l], float(res.x[e]))
    return scheme


def _max_excess_degree(
    instance: Instance, scheme: BroadcastScheme, throughput: float
) -> int:
    from ..core.numerics import safe_ceil_div

    worst = 0
    for i in range(instance.num_nodes):
        bound = safe_ceil_div(instance.bandwidth(i), throughput)
        worst = max(worst, scheme.outdegree(i) - bound)
    return worst


def packing_degree_ablation(
    size: int = 40, open_prob: float = 0.6, seed: int = 11
) -> PackingAblation:
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, size, open_prob, "Unif100")
    t_ac, word = optimal_acyclic_throughput(inst)
    target = t_ac * (1 - 1e-9)
    fifo = scheme_from_word(inst, word, target)
    lp = _lp_scheme_for_order(inst, word, target)
    return PackingAblation(
        throughput_fifo=scheme_throughput(fifo, inst),
        throughput_lp=scheme_throughput(lp, inst),
        max_excess_degree_fifo=_max_excess_degree(inst, fifo, target),
        max_excess_degree_lp=_max_excess_degree(inst, lp, target),
        edges_fifo=fifo.num_edges,
        edges_lp=lp.num_edges,
    )


def omega_quality(
    sizes: tuple[int, ...] = (10, 30, 100),
    distributions: tuple[str, ...] = ("Unif100", "Power2"),
    reps: int = 30,
    seed: int = 3,
) -> list[tuple[str, int, float]]:
    """Mean ``best_omega / T*_ac`` per (distribution, size)."""
    rng = np.random.default_rng(seed)
    rows = []
    for dist in distributions:
        for size in sizes:
            vals = []
            for _ in range(reps):
                inst = random_instance(rng, size, 0.5, dist)
                t_ac, _ = optimal_acyclic_throughput(inst)
                if t_ac > 0:
                    vals.append(best_omega_throughput(inst) / t_ac)
            rows.append((dist, size, sum(vals) / len(vals)))
    return rows


@dataclass
class BaselineRow:
    name: str
    throughput: float
    fraction_of_optimal: float
    max_outdegree: int


def baseline_comparison(
    size: int = 30, open_prob: float = 0.7, seed: int = 5
) -> list[BaselineRow]:
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, size, open_prob, "PLab")
    t_star = cyclic_optimum(inst)
    rows = []
    sol = acyclic_guarded_scheme(inst)
    entries = [
        ("paper acyclic (Thm 4.1)", sol.scheme),
        ("source star", source_star_scheme(inst)),
        ("random tree", random_tree_scheme(inst, seed=seed)),
        ("multi-tree k=4", multi_tree_scheme(inst, 4, seed=seed)),
    ]
    for name, scheme in entries:
        scheme.validate(inst)
        t = scheme_throughput(scheme, inst)
        rows.append(
            BaselineRow(
                name=name,
                throughput=t,
                fraction_of_optimal=t / t_star if t_star > 0 else 1.0,
                max_outdegree=max(scheme.outdegrees()),
            )
        )
    return rows


@dataclass
class SourceSensitivityRow:
    """Acyclic/cyclic ratio as a function of source over-provisioning."""

    source_factor: float  #: b0 = factor * saturating fixed point
    mean_ratio: float  #: mean T*_ac / T*
    min_ratio: float


def source_sensitivity(
    factors: tuple[float, ...] = (0.5, 0.75, 1.0, 1.5, 3.0, 10.0),
    size: int = 40,
    open_prob: float = 0.5,
    reps: int = 30,
    seed: int = 19,
) -> list[SourceSensitivityRow]:
    """How the Appendix XII protocol's choice of ``b0 = T*`` matters.

    The paper saturates the source (``b0`` equal to the optimal cyclic
    throughput) "to concentrate on difficult instances".  This ablation
    sweeps the over/under-provisioning factor: a starved source
    (``factor < 1``) makes the source term bind and the acyclic/cyclic
    gap closes (both equal ``b0``-ish); a lavish source trivializes the
    instance too.  The protocol's ``factor = 1`` sits at (or near) the
    hardest point — justifying the paper's choice.
    """
    import numpy as np

    from ..instances.generators import DISTRIBUTIONS, saturating_source_bw

    rng = np.random.default_rng(seed)
    sampler = DISTRIBUTIONS["Unif100"]
    rows = []
    base_draws = []
    for _ in range(reps):
        bws = sampler(rng, size)
        is_open = rng.random(size) < open_prob
        opens = tuple(bws[is_open])
        guardeds = tuple(bws[~is_open])
        base_draws.append(
            (opens, guardeds, saturating_source_bw(opens, guardeds))
        )
    for factor in factors:
        ratios = []
        for opens, guardeds, b0_sat in base_draws:
            inst = Instance(b0_sat * factor, opens, guardeds)
            t_star = cyclic_optimum(inst)
            if t_star <= 0:
                continue
            t_ac, _ = optimal_acyclic_throughput(inst)
            ratios.append(t_ac / t_star)
        rows.append(
            SourceSensitivityRow(
                source_factor=factor,
                mean_ratio=sum(ratios) / len(ratios),
                min_ratio=min(ratios),
            )
        )
    return rows


@dataclass
class CyclicGainRow:
    n: int
    acyclic: float
    cyclic: float
    gain: float  #: cyclic / acyclic (>= 1, -> 1 as n grows per Thm 6.1)


def cyclic_gain(
    ns: tuple[int, ...] = (2, 3, 5, 10, 30),
    reps: int = 25,
    seed: int = 13,
) -> list[CyclicGainRow]:
    rng = np.random.default_rng(seed)
    rows = []
    for n in ns:
        gains = []
        ac_total = cy_total = 0.0
        for _ in range(reps):
            inst = random_instance(rng, n, 1.0, "Unif100")
            t_ac = acyclic_open_optimum(inst)
            t_cy = cyclic_open_optimum(inst)
            scheme = cyclic_open_scheme(inst)
            scheme.validate(inst)
            ac_total += t_ac
            cy_total += t_cy
            gains.append(t_cy / t_ac if t_ac > 0 else 1.0)
        rows.append(
            CyclicGainRow(
                n=n,
                acyclic=ac_total / reps,
                cyclic=cy_total / reps,
                gain=sum(gains) / len(gains),
            )
        )
    return rows


@dataclass
class BackendRow:
    """One simulation backend validated against one overlay."""

    backend: str
    efficiency: float  #: worst-receiver goodput / injection rate
    wall_seconds: float
    speedup: float  #: reference wall time / this backend's wall time


def simulation_backend_ablation(
    size: int = 40,
    open_prob: float = 0.5,
    slots: int = 200,
    seed: int = 17,
) -> list[BackendRow]:
    """Validate one Theorem 4.1 overlay with every simulation backend.

    The reference backend is the behavioral baseline; the faster
    backends must deliver the same worst-receiver
    efficiency (up to slotting noise) while spending less wall clock —
    the ablation quantifies both on a mid-size swarm.  See
    :mod:`repro.simulation.backends` for what each backend does.
    """
    import time

    from ..simulation import backend_names, simulate_packet_broadcast

    rng = np.random.default_rng(seed)
    inst = random_instance(rng, size, open_prob, "Unif100")
    sol = acyclic_guarded_scheme(inst)
    rate = sol.throughput * (1.0 - 1e-9)
    rows = []
    for backend in backend_names():
        started = time.perf_counter()
        res = simulate_packet_broadcast(
            inst,
            sol.scheme,
            rate,
            slots=slots,
            packets_per_unit=2.0 / rate,
            seed=seed,
            backend=backend,
        )
        rows.append(
            BackendRow(
                backend=backend,
                efficiency=res.efficiency(),
                wall_seconds=time.perf_counter() - started,
                speedup=1.0,
            )
        )
    baseline = next(r for r in rows if r.backend == "reference").wall_seconds
    for row in rows:
        row.speedup = baseline / row.wall_seconds if row.wall_seconds > 0 else 1.0
    return rows


@dataclass
class RepairToleranceRow:
    """One tolerance setting of the incremental planner on steady churn."""

    tolerance: float
    rebuilds: int  #: full optimizations (initial build + fallbacks)
    repairs: int  #: incremental deltas applied
    fallbacks: int  #: repair attempts that fell back to a rebuild
    mean_optimality: float  #: slot-weighted delivered-vs-``T*_ac``
    plan_seconds: float  #: total planner wall time


def repair_tolerance_ablation(
    tolerances: tuple[float, ...] = (0.0, 0.05, 0.1, 0.25),
    size: int = 24,
    horizon: int = 300,
    seed: int = 29,
) -> list[RepairToleranceRow]:
    """Sweep the incremental planner's degradation tolerance.

    One steady-churn trace replayed per tolerance under the
    ``incremental`` controller.  ``tolerance = 0`` degenerates to the
    reactive baseline (any rate below the Lemma 5.1 bound of the current
    members forces a rebuild); loosening it trades optimality, bounded
    by the tolerance itself, for strictly fewer dichotomic searches.
    """
    from ..planning import PlanCache
    from ..runtime import IncrementalController, RuntimeEngine, SteadyChurn

    spec = SteadyChurn(
        size=size, horizon=horizon, join_rate=0.03, leave_rate=0.03
    )
    rows = []
    for tolerance in tolerances:
        run = spec.build(seed, name="steady-churn")
        engine = RuntimeEngine(
            run.platform,
            run.events,
            run.horizon,
            seed=seed,
            cache=PlanCache(),  # fresh memo: plan costs stay comparable
            sim_backend="auto",
            repair_tolerance=tolerance,
        )
        result = engine.run(IncrementalController())
        rows.append(
            RepairToleranceRow(
                tolerance=tolerance,
                rebuilds=result.rebuilds,
                repairs=result.repairs,
                fallbacks=result.repair_fallbacks,
                mean_optimality=result.mean_optimality_fraction,
                plan_seconds=result.plan_seconds,
            )
        )
    return rows


@dataclass
class EstimationRow:
    """One bandwidth-feed setting of the runtime loop on steady churn."""

    estimation: str  #: ``"oracle"`` or ``"online"``
    probes_per_node: float  #: probe budget (0 for the oracle row)
    mean_optimality: float  #: slot-weighted delivered-vs-``T*_ac``
    mean_delivered: float  #: slot-weighted delivered-vs-planned
    probes: int  #: total probes the run paid for
    #: Slot-weighted mean of per-epoch median estimation errors
    #: (0.0 for the oracle row).
    est_error: float


def estimation_ablation(
    budgets: tuple[float, ...] = (8.0, 4.0, 1.0),
    size: int = 20,
    horizon: int = 240,
    seed: int = 31,
    noise_sigma: float = 0.1,
) -> list[EstimationRow]:
    """Oracle vs estimated planning through the full runtime loop.

    One steady-churn trace replayed under the reactive controller: once
    with oracle bandwidths, then with the measurement loop at each probe
    budget.  Same engine seed throughout, and probes never touch the
    simulation RNG, so every difference is estimation error — the gap
    vs the oracle row is the end-to-end (churn included) analogue of the
    flow-level sweep in
    :func:`repro.analysis.estimation_gap.estimation_gap_experiment`.
    """
    from ..planning import PlanCache
    from ..runtime import ReactiveController, RuntimeEngine, SteadyChurn

    spec = SteadyChurn(
        size=size, horizon=horizon, join_rate=0.02, leave_rate=0.02
    )
    rows = []
    settings = [("oracle", 0.0)] + [("online", b) for b in budgets]
    for estimation, budget in settings:
        run = spec.build(seed, name="steady-churn")
        engine = RuntimeEngine(
            run.platform,
            run.events,
            run.horizon,
            seed=seed,
            cache=PlanCache(),  # fresh memo: estimated instances never repeat
            sim_backend="auto",
            estimation=estimation,
            probes_per_node=budget,
            noise_sigma=noise_sigma,
        )
        result = engine.run(ReactiveController())
        rows.append(
            EstimationRow(
                estimation=estimation,
                probes_per_node=budget,
                mean_optimality=result.mean_optimality_fraction,
                mean_delivered=result.mean_delivered_fraction,
                probes=result.probes,
                est_error=result.mean_estimation_error or 0.0,
            )
        )
    return rows


@dataclass(frozen=True)
class SessionsRow:
    """One broker policy's outcome on a contended multi-tenant fleet."""

    broker: str
    num_sessions: int
    admitted: int
    aggregate: float  #: sum of admitted sessions' mean delivered rates
    ceiling_sum: float  #: sum of admitted sessions' min(demand, solo bound)
    fairness: float  #: Jain index over ceiling-normalized session rates
    worst_session: float  #: lowest admitted session mean rate
    rearbitrations: int


def sessions_ablation(
    num_sessions: int = 3,
    size: int = 24,
    horizon: int = 240,
    seed: int = 7,
    overlap: float = 0.5,
) -> list[SessionsRow]:
    """Capacity-broker policies on one contended multi-tenant trace.

    The same fleet — one steady-churn swarm shared by ``num_sessions``
    channels with heavily overlapped membership and a *heterogeneous*
    demand spread (each session demands a different fraction of its solo
    Lemma 5.1 bound) — replayed under every registered broker.  The
    demand spread is what separates the policies: ``equal`` strands
    capacity at demand-capped sessions, ``proportional`` weighs claims
    by demand, and ``waterfill`` hands exactly the needed share to
    capped sessions and the surplus to best-effort ones.
    """
    from dataclasses import replace

    from ..runtime import SteadyChurn
    from ..sessions import (
        FleetEngine,
        broker_names,
        lemma51_bound,
        make_fleet,
    )

    spec = SteadyChurn(
        size=size, horizon=horizon, join_rate=0.02, leave_rate=0.02
    )
    demand_fractions = (0.35, 0.7, float("inf"))

    def build_fleet():
        # A FleetEngine run consumes its shared platform (events are
        # applied in place), so every broker gets a fresh build —
        # make_fleet is a pure function of its arguments.
        base = make_fleet(spec, num_sessions, seed, overlap=overlap)
        kinds = {i: s.kind for i, s in base.platform.nodes.items() if s.alive}
        bandwidths = {
            i: s.bandwidth for i, s in base.platform.nodes.items() if s.alive
        }
        sessions = []
        for k, sp in enumerate(base.sessions):
            solo = lemma51_bound(
                sp.source_bw,
                float("inf"),
                tuple(n for n in sp.members if n in bandwidths),
                kinds,
                bandwidths,
            )
            fraction = demand_fractions[k % len(demand_fractions)]
            demand = (
                float("inf")
                if fraction == float("inf") or not np.isfinite(solo)
                else max(fraction * solo, 1e-9)
            )
            sessions.append(replace(sp, demand=demand))
        return replace(base, sessions=tuple(sessions))

    rows = []
    for broker in broker_names():
        result = FleetEngine.from_fleet(build_fleet(), broker=broker).run()
        rows.append(
            SessionsRow(
                broker=broker,
                num_sessions=num_sessions,
                admitted=len(result.admitted),
                aggregate=result.aggregate_goodput,
                ceiling_sum=result.bound_sum,
                fairness=result.fairness,
                worst_session=result.worst_session_goodput,
                rearbitrations=result.rearbitrations,
            )
        )
    return rows


@dataclass(frozen=True)
class ServiceRow:
    """One planning regime's service levels on one request trace."""

    trace: str
    broker: str
    planning: str
    latency_p50_ms: float
    latency_p99_ms: float
    requests_per_sec: float
    builds: int
    repairs: int
    keeps: int
    preemption_disruption: float  #: nan when the trace never preempts
    migration_goodput: float  #: nan when the trace never migrates away
    p50_speedup: float  #: cold-solve p50 / this regime's p50 (1.0 for full)


def service_ablation(
    num_sessions: int = 3,
    size: int = 240,
    horizon: int = 240,
    seed: int = 7,
    overlap: float = 0.3,
) -> list[ServiceRow]:
    """Control-plane request traces, incremental vs cold-solve.

    Three registered traces against one shared fleet, each replayed
    under both planning regimes of the
    :class:`~repro.service.plane.ControlPlane`: ``mixed`` (starts,
    migrations, priority changes and stops interleaved), ``roaming``
    (one channel repeatedly swapping members drawn from a shared pool
    — the pure cost of *small* mutations), and ``priority-storm`` (the
    preemption column; brokered ``proportional`` so priority actually
    moves capacity).  The speedup column is the cold-solve regime's
    per-request p50 over the row's own — what change tracking buys the
    admission path.  The contrast is the point: roaming mutations stay
    inside one arbitration component, so incremental planning skips
    every untouched session; a priority storm moves *every* session's
    grants, so there is nothing to skip and the regimes converge
    (the scale-up story lives in ``benchmarks/test_bench_service.py``).
    """
    from ..analysis.service import service_experiment
    from ..runtime import SteadyChurn

    spec = SteadyChurn(
        size=size, horizon=horizon, join_rate=0.02, leave_rate=0.02
    )
    rows = []
    for trace, broker in (
        ("mixed", "waterfill"),
        ("roaming", "equal"),
        ("priority-storm", "proportional"),
    ):
        reports = service_experiment(
            spec,
            num_sessions,
            seed,
            trace=trace,
            overlap=overlap,
            broker=broker,
            validate_migration=(trace == "mixed"),
        )
        full_p50 = next(
            (r.latency_p50_ms for r in reports if r.planning == "full"),
            float("nan"),
        )
        for rep in reports:
            rows.append(
                ServiceRow(
                    trace=trace,
                    broker=broker,
                    planning=rep.planning,
                    latency_p50_ms=rep.latency_p50_ms,
                    latency_p99_ms=rep.latency_p99_ms,
                    requests_per_sec=rep.requests_per_sec,
                    builds=rep.builds,
                    repairs=rep.repairs,
                    keeps=rep.keeps,
                    preemption_disruption=rep.preemption_disruption,
                    migration_goodput=rep.migration_goodput,
                    p50_speedup=(
                        full_p50 / rep.latency_p50_ms
                        if rep.latency_p50_ms > 0
                        else float("nan")
                    ),
                )
            )
    return rows
