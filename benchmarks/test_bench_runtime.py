"""Benchmarks: the dynamic-platform runtime (engine + batch sweeps)."""

import pytest

from repro.runtime import (
    ReactiveController,
    RuntimeEngine,
    StaticController,
    SteadyChurn,
    get_scenario,
    run_batch,
    scenario_grid,
    summarize_batch,
)

#: A mid-size sweep: every stock scenario under every policy, two seeds.
SWEEP_SCENARIOS = (
    "steady-churn", "flash-crowd", "diurnal", "rack-failure", "live-stream",
)
SWEEP_CONTROLLERS = ("static", "periodic", "reactive")


def _run_sweep():
    jobs = scenario_grid(
        SWEEP_SCENARIOS,
        SWEEP_CONTROLLERS,
        seeds=(0, 1),
        controller_kwargs={"periodic": {"period": 120}},
    )
    return run_batch(jobs, max_workers=4)


@pytest.mark.paper
def test_bench_runtime_sweep(benchmark, report_sink):
    """Scenario grid across worker processes; adaptivity must pay off."""
    results = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)

    by_policy = {}
    for r in results:
        by_policy.setdefault(r.controller, []).append(r.mean_optimality)
    means = {c: sum(v) / len(v) for c, v in by_policy.items()}
    # Re-optimizing must beat never repairing, across the whole grid.
    assert means["reactive"] > means["static"]
    assert means["periodic"] > means["static"]

    report_sink.append(
        "Dynamic-platform sweep (scenario x controller x seed, "
        "process pool)\n"
        + summarize_batch(results)
        + "\n\nmean delivered-vs-T*_ac by policy: "
        + ", ".join(f"{c}={m:.3f}" for c, m in sorted(means.items()))
    )


def test_bench_engine_single_run(benchmark):
    """One seeded steady-churn run: the engine's hot loop."""
    spec = SteadyChurn(size=40, horizon=360)

    def once():
        run = spec.build(0, name="steady-churn-40")
        engine = RuntimeEngine(
            run.platform, run.events, run.horizon, seed=0
        )
        return engine.run(ReactiveController())

    result = benchmark.pedantic(once, rounds=1, iterations=1)
    assert result.epochs


@pytest.mark.paper
def test_bench_overlay_cache(benchmark, report_sink):
    """Memoization win: the same trace replayed static-vs-reactive."""

    def both():
        from repro.runtime import PlanCache
        from repro.runtime.events import DynamicPlatform

        cache = PlanCache()
        spec = get_scenario("rack-failure")
        for controller in (StaticController(), ReactiveController()):
            run = spec.build(3, name="rack-failure")
            engine = RuntimeEngine(
                run.platform, run.events, run.horizon, seed=3, cache=cache
            )
            engine.run(controller)
        return cache.stats()

    hits, misses = benchmark.pedantic(both, rounds=1, iterations=1)
    assert hits > 0
    report_sink.append(
        f"Overlay cache across a replayed trace: {hits} hits / "
        f"{hits + misses} solves "
        f"({100 * hits / (hits + misses):.0f}% absorbed)"
    )
