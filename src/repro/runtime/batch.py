"""Parallel batch runner: fan a scenario grid across worker processes.

Large sweeps (every scenario x every controller x many seeds) are
embarrassingly parallel: each job is a self-contained, seeded engine run.
:func:`run_batch` fans a job list across a process pool by default (the
optimizer is pure Python, so real sweeps want real cores; threads would
share one GIL and never beat a serial sweep), or runs it serially in
process on request, and returns condensed :class:`RunSummary` rows in
job order.

Jobs are plain picklable dataclasses: the scenario travels as its frozen
spec, the controller (and planner) as registry names plus keyword
arguments, so a worker process can rebuild everything locally.  Every
worker keeps one module-level :class:`~repro.planning.PlanCache` shared
across all jobs it executes: scenario grids re-solve the same canonical
instances constantly (the same base swarm under every controller, the
same post-departure population at different seeds), and the LRU cache
turns those repeats into lookups.

Results are bit-identical across both modes — parallelism changes
completion order, never the per-job RNG streams — which the test suite
asserts.

Every job is one single-session :class:`RuntimeEngine` run.  Fleets
have one runner, :meth:`~repro.sessions.FleetEngine.run`, whose serial
or process pool is :func:`run_ordered`; a multi-tenant seed sweep is a
loop over ``FleetEngine.from_fleet(...).run(mode="process")``.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Sequence, Union

from ..planning import PlanCache
from .controller import make_controller
from .engine import RunResult, RuntimeEngine
from .scenarios import Scenario, get_scenario
from ..experiments.common import format_table

__all__ = [
    "BatchJob",
    "RunSummary",
    "run_job",
    "run_batch",
    "scenario_grid",
    "summarize_batch",
]


@dataclass(frozen=True)
class BatchJob:
    """One engine run: scenario x controller x seed (picklable)."""

    scenario: Union[str, Scenario]  #: registry name or inline spec
    controller: str  #: controller registry name
    seed: int = 0
    controller_kwargs: tuple = ()  #: sorted (key, value) pairs
    engine_kwargs: tuple = ()  #: sorted (key, value) pairs for RuntimeEngine
    label: str = ""

    @classmethod
    def make(
        cls,
        scenario: Union[str, Scenario],
        controller: str,
        seed: int = 0,
        *,
        label: str = "",
        engine_kwargs: Optional[dict] = None,
        **controller_kwargs,
    ) -> "BatchJob":
        return cls(
            scenario=scenario,
            controller=controller,
            seed=seed,
            controller_kwargs=tuple(sorted(controller_kwargs.items())),
            engine_kwargs=tuple(sorted((engine_kwargs or {}).items())),
            label=label,
        )

    @property
    def scenario_name(self) -> str:
        if isinstance(self.scenario, str):
            return self.scenario
        return self.label or type(self.scenario).__name__


@dataclass(frozen=True)
class RunSummary:
    """Condensed outcome of one batch job (cheap to collect and compare).

    ``wall_time`` is measurement noise, so it is excluded from equality —
    summaries of the same job are ``==`` across executors and repeats.
    """

    scenario: str
    controller: str
    seed: int
    horizon: int
    num_epochs: int
    rebuilds: int
    mean_delivered: float
    worst_delivered: float
    mean_optimality: float
    mean_repair_latency: Optional[float]
    final_alive: int
    planner: str = "full"
    repairs: int = 0  #: incremental deltas applied instead of rebuilds
    repair_fallbacks: int = 0  #: repair attempts that fell back to a build
    estimation: str = "oracle"  #: bandwidth feed the controllers planned on
    probes: int = 0  #: pairwise probes the run paid for
    #: Slot-weighted mean of per-epoch median estimation errors (None in
    #: oracle mode).  Probe values are seeded per pair, so this is as
    #: deterministic as the measurements and participates in equality.
    estimation_error: Optional[float] = None
    #: Cache traffic this job generated.  Excluded from equality along
    #: with the wall times: the warm state of a worker's cache depends on
    #: which jobs it happened to run before this one, so these vary
    #: across execution modes while every *measurement* stays identical.
    cache_hits: int = field(default=0, compare=False)
    cache_misses: int = field(default=0, compare=False)
    wall_time: float = field(default=0.0, compare=False)
    plan_seconds: float = field(default=0.0, compare=False)

    @classmethod
    def from_result(
        cls, job: BatchJob, result: RunResult, wall_time: float, final_alive: int
    ) -> "RunSummary":
        return cls(
            scenario=job.scenario_name,
            controller=job.controller,
            seed=job.seed,
            horizon=result.horizon,
            num_epochs=len(result.epochs),
            rebuilds=result.rebuilds,
            mean_delivered=round(result.mean_delivered_fraction, 9),
            worst_delivered=round(result.worst_delivered_fraction, 9),
            mean_optimality=round(result.mean_optimality_fraction, 9),
            mean_repair_latency=(
                None
                if result.mean_repair_latency is None
                else round(result.mean_repair_latency, 6)
            ),
            final_alive=final_alive,
            planner=result.planner,
            repairs=result.repairs,
            repair_fallbacks=result.repair_fallbacks,
            estimation=result.estimation,
            probes=result.probes,
            estimation_error=(
                None
                if result.mean_estimation_error is None
                else round(result.mean_estimation_error, 9)
            ),
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
            wall_time=wall_time,
            plan_seconds=result.plan_seconds,
        )

#: One overlay memo per process, shared across the jobs it runs: a pool
#: worker, like a serial sweep, runs its jobs one after another, so the
#: per-job hit/miss deltas stay attributable.
_WORKER_CACHE = PlanCache()


def run_job(job: BatchJob) -> RunSummary:
    """Execute one job start to finish (top-level: picklable for pools)."""
    started = time.perf_counter()  # repro: noqa REP002 -- wall_time telemetry in RunSummary; never feeds replayed decisions
    cache = _WORKER_CACHE
    hits0, misses0 = cache.stats()
    spec = (
        get_scenario(job.scenario)
        if isinstance(job.scenario, str)
        else job.scenario
    )
    run = spec.build(job.seed, name=job.scenario_name)
    engine = RuntimeEngine(
        run.platform,
        run.events,
        run.horizon,
        seed=job.seed,
        cache=cache,
        **dict(job.engine_kwargs),
    )
    controller = make_controller(job.controller, **dict(job.controller_kwargs))
    result = engine.run(controller)
    result.scenario = run.name
    summary = RunSummary.from_result(
        job,
        result,
        wall_time=time.perf_counter() - started,  # repro: noqa REP002 -- wall_time telemetry in RunSummary; never feeds replayed decisions
        final_alive=run.platform.num_alive,
    )
    hits1, misses1 = cache.stats()
    return dataclasses.replace(
        summary, cache_hits=hits1 - hits0, cache_misses=misses1 - misses0
    )


def run_ordered(
    fn: Callable[..., object],
    jobs: Sequence[object],
    *,
    mode: str,
    max_workers: Optional[int] = None,
    **in_process,
) -> list:
    """``[fn(job) for job in jobs]``, serially or across a process pool.

    ``mode`` is ``"serial"`` or ``"process"``.  ``in_process`` keywords (a
    shared cache) reach ``fn`` only when the jobs run in this process —
    ``mode="serial"``, or a single job — since a pool boundary cannot
    share them.
    """
    if mode not in ("serial", "process"):
        raise ValueError(f"mode must be 'serial' or 'process', got {mode!r}")
    if mode == "serial" or len(jobs) <= 1:
        return [fn(job, **in_process) for job in jobs]
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(fn, jobs))


def run_batch(
    jobs: Sequence[BatchJob],
    *,
    max_workers: Optional[int] = None,
    mode: str = "process",
) -> list[RunSummary]:
    """Run every job; results come back in job order.

    ``mode`` is ``"process"`` (default — real parallelism) or
    ``"serial"`` (in-process, the debugging fallback).
    """
    return run_ordered(run_job, list(jobs), mode=mode, max_workers=max_workers)


def scenario_grid(
    scenarios: Iterable[Union[str, Scenario]],
    controllers: Iterable[str],
    seeds: Iterable[int] = (0,),
    *,
    controller_kwargs: Optional[Dict[str, dict]] = None,
    engine_kwargs: Optional[dict] = None,
) -> list[BatchJob]:
    """The full cross product as a job list (seed-major, stable order).

    ``controller_kwargs`` is keyed by controller name; ``engine_kwargs``
    (any :class:`RuntimeEngine` keyword, e.g. ``{"min_epoch_slots": 10,
    "sim_backend": "auto", "estimation": "online"}``) applies to every
    job's engine and travels inside the picklable job specs.  Probe
    values derive from per-pair counter-based streams, so estimated
    sweeps stay bit-identical across execution modes like everything
    else.
    """
    controller_kwargs = controller_kwargs or {}
    return [
        BatchJob.make(
            scenario,
            controller,
            seed,
            engine_kwargs=engine_kwargs,
            **controller_kwargs.get(controller, {}),
        )
        for seed in seeds
        for scenario in scenarios
        for controller in controllers
    ]


def summarize_batch(results: Sequence[RunSummary]) -> str:
    """Render a sweep as the repo's standard fixed-width table."""
    rows = [
        [
            r.scenario,
            r.controller,
            r.seed,
            r.rebuilds,
            r.repairs,
            f"{r.mean_delivered:.3f}",
            f"{r.worst_delivered:.3f}",
            f"{r.mean_optimality:.3f}",
            "-" if r.mean_repair_latency is None else f"{r.mean_repair_latency:.1f}",
            r.final_alive,
            r.estimation,
            r.probes,
            "-" if r.estimation_error is None else f"{r.estimation_error:.3f}",
            f"{r.cache_hits}/{r.cache_hits + r.cache_misses}",
        ]
        for r in results
    ]
    return format_table(
        [
            "scenario", "controller", "seed", "rebuilds", "repairs",
            "mean dlv", "worst dlv", "mean opt", "repair lat", "alive",
            "estim", "probes", "est err", "cache",
        ],
        rows,
    )
