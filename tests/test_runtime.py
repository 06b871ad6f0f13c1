"""Tests for :mod:`repro.runtime` — the event-driven dynamic engine."""

import pytest

from repro import figure1_instance
from repro.algorithms.acyclic_guarded import acyclic_guarded_scheme
from repro.core.instance import NodeKind
from repro.cli import main
from repro.runtime import (
    BandwidthDrift,
    BatchJob,
    DynamicPlatform,
    EventQueue,
    IncrementalController,
    NodeJoin,
    NodeLeave,
    PeriodicController,
    PlanCache,
    ReactiveController,
    RuntimeEngine,
    Scenario,
    StaticController,
    SteadyChurn,
    get_scenario,
    make_controller,
    register_scenario,
    run_batch,
    scenario_grid,
    scenario_names,
    spec_from_dict,
    spec_to_dict,
    summarize_batch,
)
from repro.runtime.scenarios import SCENARIOS


class TestEventQueue:
    def test_pops_in_time_order(self):
        q = EventQueue(
            [
                NodeLeave(time=30, node_id=2),
                NodeJoin(time=5, bandwidth=1.0),
                BandwidthDrift(time=12, node_id=1, bandwidth=2.0),
            ]
        )
        assert [e.time for e in q.drain()] == [5, 12, 30]

    def test_simultaneous_events_keep_insertion_order(self):
        first = NodeLeave(time=7, node_id=1)
        second = NodeJoin(time=7, bandwidth=3.0)
        q = EventQueue([first, second])
        assert list(q.drain()) == [first, second]

    def test_pop_until_is_inclusive_and_partial(self):
        q = EventQueue(
            [NodeLeave(time=t, node_id=t) for t in (4, 10, 10, 17)]
        )
        assert [e.time for e in q.pop_until(10)] == [4, 10, 10]
        assert len(q) == 1
        assert q.peek_time() == 17

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            NodeJoin(time=-1, bandwidth=1.0)


class TestDynamicPlatform:
    def test_snapshot_roundtrips_static_instance(self, fig1):
        platform = DynamicPlatform.from_instance(fig1)
        inst, node_ids = platform.snapshot()
        assert inst == fig1
        assert node_ids == list(range(fig1.num_nodes))

    def test_events_reshape_the_snapshot(self, fig1):
        platform = DynamicPlatform.from_instance(fig1)
        platform.apply(NodeLeave(time=10, node_id=1))  # open bw 5
        new = platform.apply(NodeJoin(time=20, kind="open", bandwidth=9.0))
        platform.apply(BandwidthDrift(time=30, node_id=3, bandwidth=0.5))
        inst, node_ids = platform.snapshot()
        assert inst.open_bws == (9.0, 5.0)
        assert inst.guarded_bws == (1.0, 1.0, 0.5)
        # canonical position 1 is the strongest open node: the joiner
        assert node_ids[1] == new
        # the drifted guarded node sorts last among guardeds
        assert node_ids[-1] == 3

    def test_id_map_tracks_bandwidths(self, fig1):
        platform = DynamicPlatform.from_instance(fig1)
        platform.apply(NodeLeave(time=1, node_id=4))
        platform.apply(NodeJoin(time=2, kind="guarded", bandwidth=2.5))
        inst, node_ids = platform.snapshot()
        assert node_ids[0] == 0
        for pos, node_id in enumerate(node_ids[1:], start=1):
            assert inst.bandwidth(pos) == platform.nodes[node_id].bandwidth
            assert platform.nodes[node_id].alive

    def test_source_cannot_leave(self, fig1):
        platform = DynamicPlatform.from_instance(fig1)
        with pytest.raises(ValueError):
            platform.apply(NodeLeave(time=0, node_id=0))

    def test_departed_node_cannot_drift(self, fig1):
        platform = DynamicPlatform.from_instance(fig1)
        platform.apply(NodeLeave(time=0, node_id=2))
        with pytest.raises(ValueError):
            platform.apply(BandwidthDrift(time=1, node_id=2, bandwidth=1.0))

    def test_join_assigns_fresh_ids(self, fig1):
        platform = DynamicPlatform.from_instance(fig1)
        a = platform.apply(NodeJoin(time=0, bandwidth=1.0))
        b = platform.apply(NodeJoin(time=0, bandwidth=1.0))
        assert a == fig1.num_nodes and b == a + 1


def _busiest_relay(instance):
    scheme = acyclic_guarded_scheme(instance).scheme
    return max((scheme.out_rate(v), v) for v in instance.receivers())[1]


def _departure_run(instance, controller, *, leave_at=300, horizon=600, seed=5):
    failed = _busiest_relay(instance)
    engine = RuntimeEngine(
        DynamicPlatform.from_instance(instance),
        [NodeLeave(time=leave_at, node_id=failed)],
        horizon,
        seed=seed,
    )
    return engine.run(controller)


class TestControllerPolicies:
    """The acceptance scenario: the busiest figure-1 relay departs."""

    def test_static_policy_starves_downstream(self, fig1):
        result = _departure_run(fig1, StaticController())
        assert result.rebuilds == 1  # only the initial optimization
        before, after = result.epochs[0], result.epochs[-1]
        assert before.min_goodput > 0.9 * before.planned_rate
        assert after.starved >= 1  # downstream nodes starve
        assert after.min_goodput < 0.5 * after.optimal_rate
        assert result.repair_latencies == []

    def test_reactive_policy_recovers_90pct_of_recomputed_optimum(self, fig1):
        result = _departure_run(fig1, ReactiveController())
        after = result.epochs[-1]
        assert result.rebuilds == 2
        assert after.rebuilt
        # planned rate of the repaired overlay IS the recomputed T*_ac
        assert after.planned_rate == pytest.approx(after.optimal_rate)
        # ... and the packet layer delivers >= 90% of it to everyone
        assert after.min_goodput >= 0.9 * after.optimal_rate
        assert result.repair_latencies == [0]

    def test_reactive_beats_static(self, fig1):
        static = _departure_run(fig1, StaticController())
        reactive = _departure_run(fig1, ReactiveController())
        assert (
            reactive.mean_delivered_fraction
            > static.mean_delivered_fraction + 0.2
        )

    def test_periodic_policy_rebuilds_on_schedule(self, fig1):
        result = _departure_run(fig1, PeriodicController(period=150))
        # initial + ticks at 150/300/450 (the 300 tick covers the repair)
        assert result.rebuilds == 4
        assert result.epochs[-1].min_goodput >= 0.9 * result.epochs[-1].optimal_rate
        assert result.repair_latencies == [0]

    def test_periodic_repair_latency_counts_staleness(self, fig1):
        result = _departure_run(
            fig1, PeriodicController(period=140), leave_at=290
        )
        # departure at 290; next tick at 420 -> 130 slots of starvation
        assert result.repair_latencies == [130]

    def test_engine_run_is_seed_deterministic(self, fig1):
        a = _departure_run(fig1, ReactiveController(), seed=11)
        b = _departure_run(fig1, ReactiveController(), seed=11)
        assert a.epochs == b.epochs
        assert a.repair_latencies == b.repair_latencies

    def test_overlay_cache_absorbs_recomputation(self, fig1):
        cache = PlanCache()
        failed = _busiest_relay(fig1)
        for _ in range(2):
            engine = RuntimeEngine(
                DynamicPlatform.from_instance(fig1),
                [NodeLeave(time=50, node_id=failed)],
                100,
                seed=1,
                cache=cache,
            )
            engine.run(ReactiveController())
        hits, misses = cache.stats()
        assert misses == 2  # two distinct populations ever seen
        assert hits > misses


class TestControllerTriggers:
    """Controllers say *when* through a class-level ``triggers`` tuple:
    reactive re-plans on leaves and joins, incremental on drift too."""

    @pytest.mark.parametrize(
        "controller, fires",
        (
            (ReactiveController, (NodeLeave, NodeJoin)),
            (IncrementalController, (NodeLeave, NodeJoin, BandwidthDrift)),
        ),
    )
    def test_triggers_pick_the_event_classes(self, controller, fires):
        events = {
            NodeLeave: NodeLeave(time=1, node_id=2),
            NodeJoin: NodeJoin(time=1, kind=NodeKind.OPEN, bandwidth=1.0),
            BandwidthDrift: BandwidthDrift(time=1, node_id=2, bandwidth=1.0),
        }
        policy = controller()
        assert controller.triggers == fires
        for cls, event in events.items():
            assert policy.on_change(1, (event,)) == (cls in fires)
        assert not policy.on_change(1, ())

    @pytest.mark.parametrize("keyword", ("on_leave", "on_join", "on_drift"))
    @pytest.mark.parametrize("name", ("reactive", "incremental"))
    def test_deleted_trigger_keywords_rejected(self, name, keyword):
        with pytest.raises(TypeError, match="takes no arguments"):
            make_controller(name, **{keyword: True})


class TestEpochScoring:
    """Oracle mode scores a build's first epoch against the snapshot the
    planner took, so every epoch canonicalizes the platform once."""

    @pytest.mark.parametrize("planner", ("full", "incremental"))
    def test_one_snapshot_per_epoch(self, monkeypatch, planner):
        calls = [0]
        snapshot = DynamicPlatform.snapshot

        def spy(platform):
            calls[0] += 1
            return snapshot(platform)

        monkeypatch.setattr(DynamicPlatform, "snapshot", spy)
        run = SteadyChurn(size=30, horizon=120).build(2)
        result = RuntimeEngine(
            run.platform, run.events, run.horizon, seed=2, planner=planner
        ).run(ReactiveController())
        ops = [e.plan_op for e in result.epochs]
        assert "build" in ops and len(ops) - ops.count("keep") >= 2
        assert calls[0] == len(result.epochs)


class TestScenarioRegistry:
    def test_default_workloads_registered(self):
        assert {
            "steady-churn",
            "flash-crowd",
            "diurnal",
            "rack-failure",
            "live-stream",
        } <= set(scenario_names())

    def test_specs_round_trip(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_round_trip_survives_json(self):
        import json

        spec = SteadyChurn(size=12, join_rate=0.1, horizon=99)
        payload = json.loads(json.dumps(spec_to_dict(spec)))
        assert spec_from_dict(payload) == spec

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError):
            get_scenario("no-such-workload")
        with pytest.raises(KeyError):
            spec_from_dict({"type": "NoSuchSpec", "params": {}})

    def test_user_defined_scenario_registers_and_runs(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class SingleCrash(Scenario):
            at: int = 30

            def events(self, rng, np_rng, platform):
                victim = rng.choice(platform.alive_ids())
                return [NodeLeave(time=self.at, node_id=victim)]

        spec = SingleCrash(size=6, horizon=60)
        try:
            register_scenario("single-crash", spec)
            with pytest.raises(KeyError):  # duplicates need overwrite=True
                register_scenario("single-crash", spec)
            run = get_scenario("single-crash").build(seed=3)
            result = RuntimeEngine(
                run.platform, run.events, run.horizon, seed=3
            ).run(ReactiveController())
            assert result.rebuilds == 2
            assert spec_from_dict(spec_to_dict(spec)) == spec
        finally:
            SCENARIOS.pop("single-crash", None)

    def test_build_is_deterministic(self):
        spec = get_scenario("steady-churn")
        assert spec.build(7).events == spec.build(7).events
        assert spec.build(7).events != spec.build(8).events


SMALL_GRID_SPECS = [
    SteadyChurn(size=8, horizon=120, join_rate=0.05, leave_rate=0.05),
    Scenario(size=6, horizon=80),  # event-free baseline
]


class TestBatchRunner:
    def test_grid_is_the_full_cross_product(self):
        jobs = scenario_grid(
            ["steady-churn", "diurnal"], ["static", "reactive"], seeds=(0, 1)
        )
        assert len(jobs) == 8
        assert len({(j.scenario, j.controller, j.seed) for j in jobs}) == 8

    def test_deterministic_across_execution_modes(self):
        jobs = [
            BatchJob.make(spec, ctl, seed, label=f"s{i}")
            for i, spec in enumerate(SMALL_GRID_SPECS)
            for ctl in ("static", "reactive")
            for seed in (0,)
        ]
        serial = run_batch(jobs, mode="serial")
        again = run_batch(jobs, mode="serial")
        pooled = run_batch(jobs, max_workers=2, mode="process")
        assert serial == again == pooled

    @pytest.mark.parametrize("jobs", [0, 1, 2])
    def test_thread_mode_rejected(self, jobs):
        grid = [
            BatchJob.make(SMALL_GRID_SPECS[1], "static", seed)
            for seed in range(jobs)
        ]
        with pytest.raises(ValueError, match="'serial' or 'process'"):
            run_batch(grid, mode="thread", max_workers=2)

    def test_process_pool_matches_serial(self):
        jobs = [
            BatchJob.make(SMALL_GRID_SPECS[0], "reactive", seed)
            for seed in (0, 1)
        ]
        assert run_batch(jobs, mode="serial") == run_batch(
            jobs, max_workers=2, mode="process"
        )

    def test_process_pool_matches_serial_under_online_estimation(self):
        """Each pool worker holds its own plan cache; an estimated run
        must not see which jobs that worker ran before."""
        jobs = scenario_grid(
            ["steady-churn"],
            ["reactive", "incremental"],
            seeds=(2, 3),
            engine_kwargs={"estimation": "online", "probes_per_node": 0.5},
        )
        assert run_batch(jobs, mode="serial") == run_batch(
            jobs, max_workers=2, mode="process"
        )

    def test_results_do_not_depend_on_job_order(self):
        """A worker's shared plan cache carries solves from one job to
        the next; nothing it holds may change what a later job measures
        (summary equality already ignores wall times and cache counters)."""
        jobs = scenario_grid(
            ["steady-churn", "live-stream"],
            ["reactive", "incremental"],
            seeds=(0, 1),
            engine_kwargs={"estimation": "online", "probes_per_node": 0.5},
        )
        forward = run_batch(jobs, mode="serial")
        reversed_ = run_batch(jobs[::-1], mode="serial")[::-1]
        assert forward == reversed_

    def test_periodic_kwargs_travel_through_jobs(self):
        job = BatchJob.make(
            SMALL_GRID_SPECS[1], "periodic", 0, period=20
        )
        summary = run_batch([job], mode="serial")[0]
        assert summary.rebuilds == 4  # initial + 20/40/60

    def test_engine_kwargs_travel_through_jobs(self):
        spec = SMALL_GRID_SPECS[0]
        coarse = run_batch(
            [BatchJob.make(spec, "reactive", 0,
                           engine_kwargs={"min_epoch_slots": 30})],
            mode="serial",
        )[0]
        fine = run_batch(
            [BatchJob.make(spec, "reactive", 0)], mode="serial"
        )[0]
        assert coarse.num_epochs <= 4 < fine.num_epochs

    def test_summary_table_renders(self):
        results = run_batch(
            [BatchJob.make(SMALL_GRID_SPECS[1], "static", 0)], mode="serial"
        )
        table = summarize_batch(results)
        assert "controller" in table and "static" in table

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            run_batch(
                [BatchJob.make(SMALL_GRID_SPECS[1], "static", 0)] * 2,
                mode="gpu",
            )


class TestWarmEpochs:
    """Warm-state epochs: buffers carry across epochs of the same plan."""

    #: Join-heavy steady churn: epochs are short, no departures, so any
    #: starvation of a *planned* member is a ramp-up artifact.
    SPEC = SteadyChurn(size=20, horizon=240, join_rate=0.12, leave_rate=0.0)

    def _run(self, warm, seed, controller):
        run = self.SPEC.build(seed, name="steady-churn-joins")
        engine = RuntimeEngine(
            run.platform, run.events, run.horizon,
            seed=seed, warm_epochs=warm,
        )
        return engine.run(controller)

    @staticmethod
    def _ramp_starved(result):
        """Epochs where a planned, alive member starved (unplanned
        joiners are unserved in both modes, so ``starved > unserved``
        isolates the ramp-up artifact)."""
        return sum(1 for e in result.epochs if e.starved > e.unserved)

    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_warm_has_strictly_fewer_ramp_starved_epochs(self, seed):
        cold = self._run(False, seed, PeriodicController(period=60))
        warm = self._run(True, seed, PeriodicController(period=60))
        assert self._ramp_starved(warm) < self._ramp_starved(cold)

    def test_warm_run_is_seed_deterministic(self):
        a = self._run(True, 3, StaticController())
        b = self._run(True, 3, StaticController())
        assert a.epochs == b.epochs

    def test_cold_default_unchanged_by_the_new_knobs(self, fig1):
        """Default engine args are cold epochs on the ``auto`` transport."""
        explicit = RuntimeEngine(
            DynamicPlatform.from_instance(fig1), [], 120, seed=9,
            sim_backend="auto", warm_epochs=False,
        ).run(StaticController())
        default = RuntimeEngine(
            DynamicPlatform.from_instance(fig1), [], 120, seed=9
        ).run(StaticController())
        assert explicit.epochs == default.epochs

    @pytest.mark.parametrize("backend", ["auto"])
    def test_alternate_backends_drive_the_engine(self, fig1, backend):
        failed = _busiest_relay(fig1)
        engine = RuntimeEngine(
            DynamicPlatform.from_instance(fig1),
            [NodeLeave(time=300, node_id=failed)],
            600,
            seed=5,
            sim_backend=backend,
        )
        result = engine.run(ReactiveController())
        after = result.epochs[-1]
        assert after.min_goodput >= 0.85 * after.optimal_rate

    def test_bad_sim_backend_combinations_fail_at_construction(self, fig1):
        platform = DynamicPlatform.from_instance(fig1)
        for backend in ("typo", "sharded"):
            with pytest.raises(ValueError, match="unknown simulation backend"):
                RuntimeEngine(platform, [], 100, sim_backend=backend)

    def test_warm_epochs_travel_through_batch_jobs(self):
        jobs = scenario_grid(
            [self.SPEC], ["periodic"], seeds=(0,),
            controller_kwargs={"periodic": {"period": 60}},
            engine_kwargs={"sim_backend": "auto", "warm_epochs": True},
        )
        summary = run_batch(jobs, mode="serial")[0]
        assert summary.num_epochs > 1  # the warm engine kwargs ran end to end


class TestRuntimeCli:
    def test_list(self, capsys):
        assert main(["runtime", "--list"]) == 0
        out = capsys.readouterr().out
        assert "steady-churn" in out and "reactive" in out

    def test_acceptance_command_reports_per_epoch_goodput(self, capsys):
        rc = main(
            ["runtime", "--scenario", "steady-churn",
             "--controller", "reactive", "--seed", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "min goodput" in out  # per-epoch table header
        assert "rebuilds=" in out and "mean delivered=" in out

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["runtime", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_controller_fails_cleanly(self, capsys):
        assert main(["runtime", "--controller", "oracle"]) == 2
        assert "unknown controller" in capsys.readouterr().err

    def test_sim_backend_and_warm_epoch_flags_run(self, capsys):
        rc = main(
            ["runtime", "--scenario", "rack-failure", "--seed", "2",
             "--sim-backend", "auto", "--warm-epochs"]
        )
        assert rc == 0
        assert "rebuilds=" in capsys.readouterr().out

    def test_deleted_bitset_backend_rejected(self, capsys):
        assert main(["runtime", "--sim-backend", "bitset", "--seed", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "'bitset'" in err[0]

    def test_sharded_backend_rejected(self, capsys):
        """``auto`` builds the same sharded transport wherever ``sharded``
        would run, so the runtime offers only ``auto`` and ``reference``."""
        assert main(["runtime", "--sim-backend", "sharded", "--seed", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "'auto'" in err[0] and "'reference'" in err[0]

    def test_nonpositive_workers_rejected(self, capsys):
        rc = main(["runtime", "--scenario", "rack-failure", "--workers", "0"])
        assert rc == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["reference", "auto"])
    def test_single_run_workers_rejected(self, capsys, backend):
        rc = main(
            ["runtime", "--scenario", "rack-failure", "--seed", "2",
             "--sim-backend", backend, "--workers", "2"]
        )
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "--batch" in err[0]

    def test_deleted_sim_worker_mode_flag_rejected(self, capsys):
        rc = main(["runtime", "--sim-worker-mode", "process", "--seed", "1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
