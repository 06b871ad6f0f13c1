"""The runtime and scale workloads, plus helpers every workload shares.

Each workload runs inside a fresh child process (see ``worker.py``) and
returns one result dict: end-to-end metrics, per-layer metrics (traced
runs only), attempted / failed operation counts, the output checks, and
a fingerprint of the counts that must repeat exactly for one seed.
"""

from __future__ import annotations

import heapq
import math
import random
import resource
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from repro.analysis.scale import measure_scale
from repro.instances.generators import class_runs
from repro.planning import make_planner
from repro.runtime import RuntimeEngine, make_controller
from repro.runtime.scenarios import LiveStreamTrace, Scenario, SteadyChurn

from tracing import LAYERS, TracedPlanCache, TracedPlanner, Tracer

#: Per-layer metrics every traced run reports (zero where a workload
#: does not exercise the layer), besides ``<layer>.self_s``.
LAYER_METRICS = (
    "simulation.busy_s", "simulation.node_slots", "simulation.build_s",
    "estimation.busy_s", "estimation.probes", "estimation.error",
    "planning.busy_s", "planning.builds", "planning.repairs",
    "planning.fallbacks", "planning.repair_ratio", "planning.cache_hit_ratio",
    "sessions.arbitrate_s", "sessions.arbitrate_calls",
    "service.arb_hit_ratio", "service.submit_s", "service.busy_frac",
    "service.ledger_append_s", "service.ledger_bytes_per_batch",
    "service.wire_ms", "client.late_ms", "client.req_p99_ms",
    "algorithms.plan_s", "flows.decompose_s", "flows.trees",
)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 0.5)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def layer_metrics(self_s: dict, values: dict) -> dict:
    """Every per-layer metric: ``values``, the self time per layer, and
    zero for layers the workload does not exercise."""
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    unknown = set(values) - set(out)
    if unknown:
        raise KeyError(f"not a per-layer metric: {sorted(unknown)}")
    out.update(values)
    out.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    return out


def timed_setup(setup):
    started = time.perf_counter()
    state = setup()
    return state, time.perf_counter() - started


#: Seconds :func:`calibrate` takes per 20,000 iterations at the reference
#: speed of the box the benchmark was tuned on (2-vCPU Xeon VM).
CAL_REF_S = 0.030


def calibrate(iterations: int = 20_000) -> float:
    """Time a fixed pure-Python kernel (dict, heap and RNG work, like the
    interpreter-bound layers) that no repository code runs.

    Shared hosts drift: one sub-scenario repeated 40 times on the
    reference box took 1.25-1.82 s, and the kernel drifts with it.  Every
    reported time is therefore scaled by the speed factor
    ``CAL_REF_S / kernel time`` measured next to it (raw times stay in
    the result records), which cut the repeat spread of a unit from 25%
    to 7%.  Returns the kernel time per 20,000 iterations.
    """
    started = time.perf_counter()
    rng = random.Random(1)
    totals: dict[int, float] = {}
    heap: list[tuple[int, int]] = []
    for i in range(iterations):
        key = rng.randrange(500)
        totals[key] = totals.get(key, 0.0) + i * 0.5
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return (time.perf_counter() - started) * 20_000 / iterations


def speeds(cals: list[float], ref: float = CAL_REF_S) -> list[float]:
    """Speed factor of each interval between consecutive calibrations."""
    return [2.0 * ref / (a + b) for a, b in zip(cals, cals[1:])]


#: Seconds one :func:`calibrate_numpy` call takes at the reference speed
#: (same box as ``CAL_REF_S``).
NP_CAL_REF_S = 0.090
_NP_KERNEL: dict = {}


def calibrate_numpy() -> float:
    """Time a fixed numpy kernel shaped like a sharded transport slot
    (flat passes over 700,000-entry float and int64 arrays, then gathered
    min-propagation over a seventh of them) that no repository code runs.

    The scale workload is numpy- and memory-bound, so host drift reaches
    it through memory bandwidth more than through the interpreter: over
    six runs of 64-slot units on the reference box, the run-to-run spread
    (IQR / median) of the median unit wall was 24% raw, 14% scaled by
    :func:`calibrate` and 5.5% scaled by this kernel.  The first call
    allocates the arrays and runs cold.
    """
    if not _NP_KERNEL:
        rng = np.random.default_rng(1)
        size = 700_000
        _NP_KERNEL.update(
            credit=rng.random(size) * 3.0,
            gained=np.empty(size),
            floor=np.empty(size, dtype=np.int64),
            recv=rng.integers(0, 1000, size),
            child=rng.permutation(size)[: size // 7],
            parent=rng.integers(0, size, size // 7),
        )
    k = _NP_KERNEL
    credit, gained, floor, recv = k["credit"], k["gained"], k["floor"], k["recv"]
    child, parent = k["child"], k["parent"]
    started = time.perf_counter()
    for _ in range(12):
        np.add(credit, 0.5, out=gained)
        np.minimum(gained, 4.0, out=gained)
        np.copyto(floor, gained, casting="unsafe")
        for _ in range(3):
            t = recv[child] + floor[child]
            np.minimum(t, recv[parent], out=t)
            recv[child] = t
        np.subtract(gained, floor, out=credit, casting="unsafe")
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# Runtime workloads: churn-oracle, livestream-online
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RuntimeConfig:
    scenario: Scenario
    controller: str
    #: sub-scenarios are kept only with exactly this many events, so
    #: every run simulates the same amount of churn (Poisson event
    #: counts alone swing a scenario's cost by about 25%)
    events: int
    #: nominal seconds per sub-scenario; a run of S seconds pools
    #: ceil(S / unit_s) sub-scenarios
    unit_s: float
    estimation: Optional[str] = None
    #: planner the engine resolves for ``planner=None``; traced runs
    #: inject that same planner, wrapped
    planner: str = "full"


RUNTIME = {
    "churn-oracle": RuntimeConfig(
        SteadyChurn(size=150), "reactive", events=19, unit_s=1.3
    ),
    "livestream-online": RuntimeConfig(
        LiveStreamTrace(size=40, horizon=240),
        "incremental",
        events=18,
        unit_s=1.1,
        estimation="online",
        planner="incremental",
    ),
}

RUNTIME_SMOKE = {
    "churn-oracle": RuntimeConfig(
        SteadyChurn(size=20, horizon=60), "reactive", events=2, unit_s=0.5
    ),
    "livestream-online": RuntimeConfig(
        LiveStreamTrace(size=20, horizon=60),
        "incremental",
        events=4,
        unit_s=0.5,
        estimation="online",
        planner="incremental",
    ),
}


def sub_seeds(cfg: RuntimeConfig, seed: int, count: int) -> list[int]:
    """The first ``count`` seeds ``seed * 10**6 + j`` whose scenario has
    exactly ``cfg.events`` events."""
    kept: list[int] = []
    j = 0
    while len(kept) < count:
        sub = seed * 10**6 + j
        if len(cfg.scenario.build(sub).events) == cfg.events:
            kept.append(sub)
        j += 1
        if j >= 10**6:
            raise ValueError(f"no sub-scenario with {cfg.events} events")
    return kept


def run_runtime(
    name: str, seed: int, seconds: float, tracer: Optional[Tracer], smoke: bool
) -> dict:
    cfg = (RUNTIME_SMOKE if smoke else RUNTIME)[name]
    seeds = sub_seeds(cfg, seed, max(2, math.ceil(seconds / cfg.unit_s)))

    def setup(sub: int) -> RuntimeEngine:
        run = cfg.scenario.build(sub, name=name)
        kwargs = {}
        if tracer is not None:
            kwargs["cache"] = TracedPlanCache(tracer)
            kwargs["planner"] = TracedPlanner(make_planner(cfg.planner), tracer)
        return RuntimeEngine(
            run.platform, run.events, run.horizon, seed=sub,
            estimation=cfg.estimation, **kwargs,
        )

    def unit(engine: RuntimeEngine, index: int) -> dict:
        controller = make_controller(cfg.controller)
        if tracer is None:
            started = time.perf_counter()
            result = engine.run(controller)
            wall = time.perf_counter() - started
        else:
            tracer.run_id = index
            with tracer.span("runtime.run") as root:
                result = engine.run(controller)
            wall = root["end"] - root["start"]
            sim = tracer.synthetic(
                "simulation.epochs", root["id"], result.phase_seconds["simulate"]
            )
            # Epoch scoring solves T*_ac inside the simulate phase.
            tracer.adopt(root["id"], sim, "algorithms.")
            if result.estimation == "online":
                tracer.synthetic(
                    "estimation.boundary", root["id"],
                    result.phase_seconds["epoch_boundary"],
                )
        return {
            "wall_s": wall,
            "result": result,
            "node_slots": sum(e.num_alive * e.slots for e in result.epochs),
            "cache": engine.cache.counters(),
        }

    # Warm-up: the first sub-scenario once more, untimed; its counts
    # must equal the timed unit's (the in-run determinism guard).
    warm = unit(setup(seeds[0]), -1)
    calibrate()  # the kernel's first call runs cold
    setups, records, cals = [], [], [calibrate()]
    for index, sub in enumerate(seeds):
        engine, setup_s = timed_setup(lambda: setup(sub))
        setups.append(setup_s)
        records.append(unit(engine, index))
        cals.append(calibrate())
    speed = speeds(cals)
    if tracer is not None:
        tracer.spans = [s for s in tracer.spans if s["run"] >= 0]

    checks: list = []
    results = [r["result"] for r in records]
    bad_rates = [
        i for i, res in enumerate(results)
        if not all(
            math.isfinite(v)
            for e in res.epochs
            for v in (e.planned_rate, e.optimal_rate, e.min_goodput, e.mean_goodput)
        )
    ]
    bad_opt = [
        i for i, res in enumerate(results)
        if not 0.0 <= res.mean_optimality_fraction <= 1.0
    ]
    check(checks, "rates finite", not bad_rates, f"sub-scenarios {bad_rates}")
    check(checks, "optimality in [0, 1]", not bad_opt, f"sub-scenarios {bad_opt}")

    def counts(res) -> tuple:
        return (res.rebuilds, res.repairs, res.repair_fallbacks, res.probes,
                repr(res.mean_optimality_fraction))

    same = counts(warm["result"]) == counts(results[0])
    check(checks, "determinism: warm-up repeats the first sub-scenario", same)

    walls = [r["wall_s"] * f for r, f in zip(records, speed)]
    node_slots = sum(r["node_slots"] for r in records)
    builds = sum(res.rebuilds for res in results)
    repairs = sum(res.repairs for res in results)
    fallbacks = sum(res.repair_fallbacks for res in results)
    probes = sum(res.probes for res in results)
    optimality = math.fsum(res.mean_optimality_fraction for res in results) / len(results)
    e2e = {
        "setup_s": median([t * f for t, f in zip(setups, speed)]),
        "node_slots_per_s": node_slots / math.fsum(walls),
        "optimality": optimality,
        "req_p50_ms": percentile(walls, 0.50) * 1000.0,
        "req_p90_ms": percentile(walls, 0.90) * 1000.0,
    }
    layers = None
    if tracer is not None:
        hits = sum(r["cache"].hits for r in records)
        lookups = sum(r["cache"].lookups for r in records)

        def phase(key: str) -> float:
            return math.fsum(res.phase_seconds[key] for res in results)

        online = cfg.estimation == "online"
        errors = [res.mean_estimation_error or 0.0 for res in results]
        layers = layer_metrics(
            tracer.self_seconds(),
            {
                "simulation.busy_s": phase("simulate"),
                "simulation.node_slots": node_slots,
                "planning.busy_s": tracer.total("planning."),
                "planning.builds": builds,
                "planning.repairs": repairs,
                "planning.fallbacks": fallbacks,
                "planning.repair_ratio": ratio(repairs, repairs + fallbacks),
                "planning.cache_hit_ratio": ratio(hits, lookups),
                "algorithms.plan_s": tracer.total("algorithms."),
                "estimation.busy_s": phase("epoch_boundary") if online else 0.0,
                "estimation.probes": probes,
                "estimation.error": math.fsum(errors) / len(errors),
            },
        )
    return {
        "e2e": e2e,
        "layers": layers,
        "attempted": len(records),
        "failed": len(set(bad_rates) | set(bad_opt)),
        "checks": checks,
        "fingerprint": {
            "planning.builds": builds,
            "planning.repairs": repairs,
            "planning.fallbacks": fallbacks,
            "estimation.probes": probes,
            "simulation.node_slots": node_slots,
            "optimality": repr(optimality),
        },
        "unit_wall_s": math.fsum(walls) / len(walls),
        "units": len(records),
        "raw": {"unit_s": [r["wall_s"] for r in records], "setup_s": setups,
                "calibration_s": cals},
    }


# ----------------------------------------------------------------------
# scale-100k
# ----------------------------------------------------------------------
#: Substreams below this fraction of the rate are not simulated.
DUST_FRAC = 5e-3


@dataclass(frozen=True)
class ScaleConfig:
    base: int  #: open peers; two guarded peers and the source are added
    #: short units, so that many fit in a run and the kernel timed next
    #: to each one sees the same host speed
    slots: int
    #: nominal seconds per unit; a run of S seconds times ceil(S / unit_s)
    unit_s: float
    #: set-up samples, each timing SETUP_BATCH class_runs calls
    setup_samples: int = 15


SCALE = ScaleConfig(base=100_000, slots=64, unit_s=1.0)
SCALE_SMOKE = ScaleConfig(base=1_000, slots=64, unit_s=0.5, setup_samples=3)
SETUP_BATCH = 100


def scale_classes(base: int) -> list:
    """Two open classes far from the rate and a token guarded pair (the
    scale tier's swarm).  The swarm is the same for every seed: the
    pipeline is deterministic, and its cost follows the tree count, which
    jumps with bandwidth changes of a percent (7 vs 8 trees: +14% wall)."""
    half = base // 2
    return [
        ("open", 150.0, half),
        ("open", 50.0, base - half),
        ("guarded", 100.0, 2),
    ]


def run_scale(seconds: float, tracer: Optional[Tracer], smoke: bool) -> dict:
    """The scale swarm does not depend on the seed (see :func:`scale_classes`)."""
    cfg = SCALE_SMOKE if smoke else SCALE
    classes = scale_classes(cfg.base)

    def unit(runs, index: int) -> dict:
        if tracer is None:
            started = time.perf_counter()
            report = measure_scale(runs, slots=cfg.slots, min_tree_weight_frac=DUST_FRAC)
            wall = time.perf_counter() - started
        else:
            tracer.run_id = index
            with tracer.span("analysis.measure_scale") as root:
                report = measure_scale(
                    runs, slots=cfg.slots, min_tree_weight_frac=DUST_FRAC
                )
            wall = root["end"] - root["start"]
            for span_name, phase_s in (
                ("algorithms.plan", report.plan_seconds),
                ("flows.decompose", report.decompose_seconds),
                ("simulation.build", report.build_seconds),
                ("simulation.run", report.simulate_seconds),
            ):
                tracer.synthetic(span_name, root["id"], phase_s)
        return {"wall_s": wall, "report": report}

    # Set-up (class_runs) takes microseconds: each sample times a batch of
    # calls, scaled by the pure-Python kernel around it.
    calibrate()  # the kernel's first call runs cold
    setups, py_cals = [], [calibrate()]
    for _ in range(cfg.setup_samples):
        started = time.perf_counter()
        for _ in range(SETUP_BATCH):
            class_runs(None, classes)
        setups.append((time.perf_counter() - started) / SETUP_BATCH)
        py_cals.append(calibrate())

    # Units repeat the same swarm, a fixed number per run (at least two:
    # the determinism guard compares them), each timed between two calls
    # of the numpy kernel; the first unit is a warm-up, untimed.
    count = max(2, math.ceil(seconds / cfg.unit_s))
    unit(class_runs(None, classes), -1)
    calibrate_numpy()  # allocates the kernel's arrays
    records, cals = [], [calibrate_numpy()]
    for index in range(count):
        records.append(unit(class_runs(None, classes), index))
        cals.append(calibrate_numpy())
    speed = speeds(cals, NP_CAL_REF_S)
    if tracer is not None:
        tracer.spans = [s for s in tracer.spans if s["run"] >= 0]

    checks: list = []
    reports = [r["report"] for r in records]
    bad = [
        i for i, rep in enumerate(reports)
        if not (math.isfinite(rep.rate)
                and rep.min_goodput >= 0.97 * (rep.rate - rep.dropped_rate))
    ]
    check(checks, "min_goodput >= 0.97 (rate - dropped_rate)", not bad,
          f"units {bad}")

    def counts(rep) -> tuple:
        return (rep.num_trees, rep.num_nodes * rep.slots, repr(rep.min_goodput))

    same = all(counts(rep) == counts(reports[0]) for rep in reports)
    check(checks, "determinism: counts repeat across units", same)

    first = reports[0]
    walls = [r["wall_s"] * f for r, f in zip(records, speed)]
    node_slots = first.num_nodes * first.slots
    e2e = {
        "setup_s": median([t * f for t, f in zip(setups, speeds(py_cals))]),
        "node_slots_per_s": median([node_slots / w for w in walls]),
        "optimality": first.min_goodput / first.rate,
        "req_p50_ms": percentile(walls, 0.50) * 1000.0,
        "req_p90_ms": percentile(walls, 0.90) * 1000.0,
    }
    layers = None
    if tracer is not None:

        def pick(attr: str) -> float:
            return median([getattr(rep, attr) for rep in reports])

        layers = layer_metrics(
            tracer.self_seconds(run=0),
            {
                "simulation.busy_s": pick("simulate_seconds"),
                "simulation.node_slots": node_slots,
                "simulation.build_s": pick("build_seconds"),
                "algorithms.plan_s": pick("plan_seconds"),
                "flows.decompose_s": pick("decompose_seconds"),
                "flows.trees": first.num_trees,
            },
        )
    return {
        "e2e": e2e,
        "layers": layers,
        "attempted": len(records),
        "failed": len(bad),
        "checks": checks,
        "fingerprint": {
            "flows.trees": first.num_trees,
            "simulation.node_slots": node_slots,
            "optimality": repr(first.min_goodput / first.rate),
        },
        "unit_wall_s": median(walls),
        "units": len(records),
        "raw": {"unit_s": [r["wall_s"] for r in records], "setup_s": setups,
                "calibration_s": cals, "setup_calibration_s": py_cals},
    }
