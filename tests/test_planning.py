"""Tests for :mod:`repro.planning` — the plan-lifecycle seam.

Covers the LRU :class:`PlanCache` (the old ``OverlayCache`` guard wiped
the whole memo on overflow), the resumable Lemma 4.6 packing state, the
planner registry/engine injection, the incremental repair planner
(validity, rate preservation, fallbacks), the controller-registry
round trips through pickled batch jobs, and the policy axis: controllers
say *when*, the engine's planner says *how*.
"""

import dataclasses
import hashlib
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import figure1_instance
from repro.algorithms.acyclic_guarded import (
    PackingState,
    optimal_acyclic_throughput,
    pack_word,
    scheme_from_word,
)
from repro.cli import main
from repro.core.exceptions import InvalidSchemeError
from repro.core.instance import Instance, NodeKind
from repro.core.scheme import BroadcastScheme
from repro.planning import (
    PLANNERS,
    FullRebuildPlanner,
    IncrementalRepairPlanner,
    PlanCache,
    make_planner,
    planner_names,
)
from repro.runtime import (
    CONTROLLERS,
    BatchJob,
    DynamicPlatform,
    IncrementalController,
    NodeJoin,
    NodeLeave,
    BandwidthDrift,
    DiurnalDrift,
    FlashCrowd,
    LiveStreamTrace,
    ReactiveController,
    RuntimeEngine,
    SteadyChurn,
    make_controller,
    run_batch,
)
from repro.service import ControlPlane, MigrateSession, StartSession

from .conftest import bandwidths, positive_bandwidths
from .test_service import _serve_fleet, _serve_mix


class TestPlanCache:
    def test_lru_eviction_keeps_hot_entries(self):
        cache = PlanCache(max_entries=2)
        a, b, c = (Instance(6.0, (float(k),), ()) for k in (1, 2, 3))
        cache.solve(a)
        cache.solve(b)
        cache.solve(a)  # touch a: b becomes the LRU entry
        cache.solve(c)  # evicts b only — the old guard cleared everything
        assert a in cache and c in cache and b not in cache
        assert len(cache) == 2

    def test_hit_miss_eviction_counters(self):
        cache = PlanCache(max_entries=2)
        a, b, c = (Instance(6.0, (float(k),), ()) for k in (1, 2, 3))
        for inst in (a, b, a, b, c, a):
            cache.solve(inst)
        stats = cache.counters()
        # a, b miss; a, b hit; c misses and evicts a; a misses again.
        assert (stats.hits, stats.misses, stats.evictions) == (2, 4, 2)
        assert cache.stats() == (2, 4)  # historical (hits, misses) shape
        assert stats.hit_rate == pytest.approx(2 / 6)

    def test_generic_keyed_entries(self):
        cache = PlanCache(max_entries=4)
        key = (Instance(6.0, (5.0,), ()), ("leave", 3))
        assert cache.get(key) is None
        cache.put(key, "delta-artifact")
        assert cache.get(key) == "delta-artifact"

    def test_stored_none_counts_as_a_hit(self):
        cache = PlanCache(max_entries=4)
        cache.put("refused-delta", None)  # memoized negative result
        assert cache.get("refused-delta", default="miss") is None
        assert cache.counters().hits == 1

    def test_solve_returns_memoized_search_result(self, fig1):
        cache = PlanCache()
        found = cache.solve(fig1)
        assert found is cache.solve(fig1)
        assert found == optimal_acyclic_throughput(fig1)
        assert cache.optimal_rate(fig1) == found[0]
        assert cache.stats() == (2, 1)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)


class TestPackingState:
    def test_pack_word_matches_scheme_from_word(self, fig1):
        rate, word = 4.0, "gogog"
        edges = []
        state = pack_word(fig1, word, rate, lambda *edge: edges.append(edge))
        scheme = scheme_from_word(fig1, word, rate)
        # Each pair is drawn once, so the sink sees exactly the edges.
        assert sorted(edges) == sorted(scheme.edges())
        # Residual pools equal per-node spare upload: b_i - out_rate.
        for node in range(fig1.num_nodes):
            assert state.spare(node) == pytest.approx(
                fig1.bandwidth(node) - scheme.out_rate(node), abs=1e-9
            )

    def test_positions_follow_word_order(self, fig1):
        state = pack_word(fig1, "gogog", 4.0, lambda *edge: None)
        # word "gogog" introduces: source, g3, o1, g4, o2, g5
        assert [n for n, _ in sorted(state.position.items(), key=lambda kv: kv[1])] \
            == [0, 3, 1, 4, 2, 5]

    def test_credit_reinserts_in_position_order(self):
        state = PackingState(tol=1e-9)
        state.push(0, 2.0, open_=True)
        state.push(1, 0.0, open_=True)  # drained entry: not in the pool
        state.push(2, 1.0, open_=True)
        state.credit(1, 3.0)
        assert [n for n, _ in state.open_entries] == [0, 1, 2]
        assert state.spare(1) == pytest.approx(3.0)

    def test_draw_respects_position_bound(self):
        state = PackingState(tol=1e-9)
        state.push(0, 1.0, open_=True)
        state.push(1, 5.0, open_=True)
        edges = []
        unmet = state.feed_open(
            2, 2.0, lambda i, j, r: edges.append((i, j, r)),
            before=state.position[1],
        )
        # Only node 0 (earlier than 1) may feed: 1.0 available, 1.0 unmet.
        assert unmet == pytest.approx(1.0)
        assert [(i, j) for i, j, _ in edges] == [(0, 2)]

    def test_guarded_receiver_draws_open_credit_only(self):
        state = PackingState(tol=1e-9)
        state.push(0, 0.5, open_=True)
        state.push(1, 5.0, open_=False)  # guarded spare: firewalled away
        unmet = state.feed_guarded(2, 2.0, lambda *a: None)
        assert unmet == pytest.approx(1.5)

    def test_labelled_packing_keys_pools_by_label(self, fig1):
        plain_edges, edges = [], []
        plain = pack_word(
            fig1, "gogog", 4.0, lambda *edge: plain_edges.append(edge)
        )
        ids = [k + 100 for k in range(fig1.num_nodes)]
        state = pack_word(
            fig1, "gogog", 4.0, lambda *edge: edges.append(edge), ids
        )
        assert edges == [(ids[i], ids[j], r) for i, j, r in plain_edges]
        assert state.position == {
            ids[k]: pos for k, pos in plain.position.items()
        }
        for k in range(fig1.num_nodes):
            assert state.spare(ids[k]) == plain.spare(k)
        assert [n for n, _ in state.open_entries] == [
            ids[n] for n, _ in plain.open_entries
        ]

    def test_zero_rate_packing_keeps_full_bandwidth_spare(self, fig1):
        edges = []
        state = pack_word(fig1, "gogog", 0.0, lambda *edge: edges.append(edge))
        assert edges == []
        for node in range(fig1.num_nodes):
            assert state.spare(node) == pytest.approx(fig1.bandwidth(node))


class TestPlannerRegistry:
    def test_registry_contents(self):
        assert planner_names() == ["collapsed", "full", "incremental"]
        assert PLANNERS["full"] is FullRebuildPlanner
        assert PLANNERS["incremental"] is IncrementalRepairPlanner

    def test_make_planner(self):
        assert isinstance(make_planner("full"), FullRebuildPlanner)
        planner = make_planner("incremental", tolerance=0.25)
        assert planner.tolerance == 0.25
        with pytest.raises(KeyError, match="unknown planner"):
            make_planner("oracle")

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            IncrementalRepairPlanner(tolerance=1.0)
        with pytest.raises(ValueError):
            IncrementalRepairPlanner(tolerance=-0.1)

    def test_engine_validates_planner_spec(self, fig1):
        platform = DynamicPlatform.from_instance(fig1)
        with pytest.raises(ValueError, match="unknown planner"):
            RuntimeEngine(platform, [], 100, planner="oracle")
        with pytest.raises(ValueError, match="repair_tolerance"):
            RuntimeEngine(platform, [], 100, repair_tolerance=1.5)
        for planner in ("full", "collapsed"):
            with pytest.raises(ValueError, match="repair_tolerance"):
                RuntimeEngine(
                    platform, [], 100, planner=planner, repair_tolerance=0.1
                )

    def test_planner_auto_resolution_pairs_with_controller(self, fig1):
        def run(controller):
            engine = RuntimeEngine(
                DynamicPlatform.from_instance(fig1), [], 60, seed=0
            )
            result = engine.run(controller)
            return result.planner

        assert run(ReactiveController()) == "full"
        assert run(IncrementalController()) == "incremental"

    def test_explicit_planner_overrides_default(self, fig1):
        engine = RuntimeEngine(
            DynamicPlatform.from_instance(fig1), [], 60, seed=0,
            planner="full",
        )
        assert engine.run(IncrementalController()).planner == "full"

    def test_full_planner_keeps_historical_results(self, fig1):
        """Extracted plan construction must reproduce pre-seam runs."""
        def run(**kwargs):
            engine = RuntimeEngine(
                DynamicPlatform.from_instance(fig1),
                [NodeLeave(time=30, node_id=1)], 60, seed=7, **kwargs,
            )
            return engine.run(ReactiveController())

        assert run().epochs == run(planner="full").epochs


def _steady_churn_run(controller, seed=4, **engine_kwargs):
    run = SteadyChurn(size=20, horizon=240, join_rate=0.04,
                      leave_rate=0.04).build(seed, name="steady-churn")
    engine = RuntimeEngine(
        run.platform, run.events, run.horizon, seed=seed, **engine_kwargs
    )
    return engine.run(controller)


class TestIncrementalRepair:
    """Acceptance: repaired epochs are valid and near-optimal."""

    def test_leave_repair_produces_valid_plan(self):
        inst = Instance(5.0, (9.0, 8.0, 7.0, 6.0), (5.0, 4.0))
        platform = DynamicPlatform.from_instance(inst)
        engine = RuntimeEngine(platform, [], 100, seed=0,
                               planner="incremental")
        planner = engine.planner
        plan = engine.build_plan()
        engine.active_plan = plan
        platform.apply(NodeLeave(time=10, node_id=2))
        engine.now = 10
        outcome = planner.replan(engine, plan, (NodeLeave(time=10, node_id=2),))
        assert outcome.op == "repair" and not outcome.fallback
        repaired = outcome.plan
        repaired.scheme.validate(repaired.instance, require_acyclic=True)
        assert repaired.rate == plan.rate  # the kept rate is preserved
        assert 2 not in repaired.node_ids
        assert repaired.size == plan.size - 1
        delta = outcome.delta
        assert delta.departed == (2,)
        assert delta.edges_removed > 0
        # Orphans of the departed relay were re-fed, not dropped.
        for k in repaired.instance.receivers():
            assert repaired.scheme.in_rate(k) == pytest.approx(
                repaired.rate, abs=1e-6
            )

    @pytest.mark.parametrize("kind", ["open", "guarded"])
    @pytest.mark.parametrize(
        "controller, engine_kwargs",
        [("incremental", {}), ("reactive", {"planner": "incremental"})],
    )
    def test_rejoin_after_the_swarm_empties_rebuilds(
        self, controller, engine_kwargs, kind
    ):
        """An empty swarm's plan has rate ``inf``; a rejoin must rebuild
        it, never repair it into an ``inf``-rate plan for a live peer."""

        def run(controller, **kwargs):
            platform = DynamicPlatform.from_instance(
                Instance(10.0, (5.0, 4.0), ())
            )
            events = [
                NodeLeave(10, 1), NodeLeave(10, 2), NodeJoin(20, kind, 3.0)
            ]
            engine = RuntimeEngine(platform, events, 40, seed=0, **kwargs)
            epochs = engine.run(make_controller(controller)).epochs
            return [e for e in epochs if e.start >= 20]

        after = run(controller, **engine_kwargs)
        baseline = run("reactive", planner="full")
        assert len(after) == len(baseline) > 0
        assert after[0].plan_op == "build"
        for got, want in zip(after, baseline):
            assert math.isfinite(got.planned_rate)
            assert got.planned_rate == want.planned_rate

    def test_join_attaches_new_leaf(self):
        inst = Instance(5.0, (9.0, 8.0, 7.0), (5.0,))
        platform = DynamicPlatform.from_instance(inst)
        engine = RuntimeEngine(platform, [], 100, seed=0,
                               planner="incremental")
        planner = engine.planner
        plan = engine.build_plan()
        engine.active_plan = plan
        ev = NodeJoin(time=5, kind="guarded", bandwidth=1.0, node_id=99)
        platform.apply(ev)
        engine.now = 5
        outcome = planner.replan(engine, plan, (ev,))
        assert outcome.op == "repair"
        repaired = outcome.plan
        repaired.scheme.validate(repaired.instance, require_acyclic=True)
        assert 99 in repaired.node_ids
        k = repaired.node_ids.index(99)
        assert repaired.scheme.in_rate(k) == pytest.approx(
            repaired.rate, abs=1e-6
        )
        assert outcome.delta.joined == (99,)

    def test_drift_down_sheds_and_refeeds(self):
        # Source-bound (T*_ac = 3), so every relay keeps plenty of spare
        # upload: shedding the busiest relay's latest client must re-feed
        # it from an *earlier* peer's spare credit, not fall back.
        inst = Instance(3.0, (10.0, 10.0, 10.0), ())
        platform = DynamicPlatform.from_instance(inst)
        engine = RuntimeEngine(platform, [], 100, seed=0,
                               planner="incremental")
        planner = engine.planner
        plan = engine.build_plan()
        engine.active_plan = plan
        # Find a relay that actually forwards, and halve its upload.
        k = max(plan.instance.receivers(), key=plan.scheme.out_rate)
        victim = plan.node_ids[k]
        new_bw = plan.scheme.out_rate(k) / 2
        ev = BandwidthDrift(time=8, node_id=victim, bandwidth=new_bw)
        platform.apply(ev)
        engine.now = 8
        outcome = planner.replan(engine, plan, (ev,))
        assert outcome.op == "repair"
        repaired = outcome.plan
        repaired.scheme.validate(repaired.instance, require_acyclic=True)
        j = repaired.node_ids.index(victim)
        assert repaired.scheme.out_rate(j) <= new_bw + 1e-6
        for r in repaired.instance.receivers():
            assert repaired.scheme.in_rate(r) == pytest.approx(
                repaired.rate, abs=1e-6
            )

    def test_invalid_repaired_scheme_falls_back(self, monkeypatch):
        """A repaired scheme that fails validation is never installed:
        the planner rebuilds, and the engine and the plane each count
        one fallback."""
        def reject(self, instance, **kwargs):
            raise InvalidSchemeError("injected violation")

        monkeypatch.setattr(BroadcastScheme, "validate", reject)
        inst = Instance(5.0, (9.0, 8.0, 7.0, 6.0), (5.0, 4.0))
        platform = DynamicPlatform.from_instance(inst)
        engine = RuntimeEngine(platform, [], 100, seed=0,
                               planner="incremental")
        plan = engine.build_plan()
        engine.active_plan = plan
        leave = NodeLeave(time=10, node_id=2)
        platform.apply(leave)
        engine.now = 10
        outcome = engine.planner.replan(engine, plan, (leave,))
        assert outcome.op == "build" and outcome.fallback is True
        assert outcome.reason.startswith("repaired scheme invalid")

        run = RuntimeEngine(
            DynamicPlatform.from_instance(inst),
            [NodeLeave(time=30, node_id=2)], 60, seed=0,
        ).run(IncrementalController())
        assert (run.repairs, run.repair_fallbacks) == (0, 1)

        plane = ControlPlane(DynamicPlatform.from_instance(inst))
        plane.submit(StartSession(name="s", source_bw=2.0,
                                  members=(1, 2, 3, 4, 5, 6)))
        plane.submit(MigrateSession(name="s", remove=(2,)))
        stats = plane.stats()
        assert (stats.repairs, stats.fallbacks) == (0, 1)

    def test_tight_instance_falls_back_to_rebuild(self, fig1):
        """Figure 1 is saturated: no spare credit, repair must fall back."""
        engine = RuntimeEngine(
            DynamicPlatform.from_instance(fig1),
            [NodeLeave(time=30, node_id=1)], 60, seed=5,
        )
        run = engine.run(IncrementalController())
        assert run.repairs == 0
        assert run.repair_fallbacks == 1
        assert run.rebuilds == 2  # initial + fallback
        after = run.epochs[-1]
        assert after.min_goodput >= 0.9 * after.optimal_rate

    def test_zero_tolerance_keeps_only_optimal_repairs(self):
        strict = _steady_churn_run(
            IncrementalController(), repair_tolerance=0.0
        )
        # Tolerance 0: a repair survives only when the kept rate clears
        # the full Lemma 5.1 bound — every repaired epoch provisions at
        # least the recomputed optimum.
        repaired = [e for e in strict.epochs if e.plan_op == "repair"]
        assert repaired  # the gate still lets optimal repairs through
        for e in repaired:
            assert e.planned_rate >= e.optimal_rate - 1e-9

    def test_steady_churn_repairs_are_applied_and_near_optimal(self):
        result = _steady_churn_run(IncrementalController())
        assert result.planner == "incremental"
        assert result.repairs > 0
        repaired = [e for e in result.epochs if e.plan_op == "repair"]
        assert repaired
        for e in repaired:
            # The degradation gate guarantees >= (1 - 0.1) x T* >= 0.9 x
            # T*_ac of the epoch's alive swarm.
            assert e.planned_rate >= 0.9 * e.optimal_rate - 1e-9

    def test_incremental_matches_reactive_within_tolerance(self):
        incremental = _steady_churn_run(IncrementalController())
        reactive = _steady_churn_run(ReactiveController())
        assert (
            incremental.mean_optimality_fraction
            >= 0.9 * reactive.mean_optimality_fraction
        )

    def test_incremental_run_is_seed_deterministic(self):
        a = _steady_churn_run(IncrementalController(), seed=3)
        b = _steady_churn_run(IncrementalController(), seed=3)
        assert a.epochs == b.epochs
        assert (a.repairs, a.repair_fallbacks) == (b.repairs, b.repair_fallbacks)

    def test_repair_accounting_lands_in_epoch_reports(self):
        result = _steady_churn_run(IncrementalController())
        ops = {e.plan_op for e in result.epochs}
        assert ops <= {"build", "repair", "keep"}
        assert result.epochs[0].plan_op == "build"
        installs = [e for e in result.epochs if e.plan_op != "keep"]
        assert all(e.rebuilt for e in installs)
        assert result.repairs == sum(
            1 for e in result.epochs if e.plan_op == "repair"
        )

    def test_warm_epochs_compose_with_repair(self):
        result = _steady_churn_run(IncrementalController(), warm_epochs=True,
                                   sim_backend="auto")
        assert result.repairs > 0


class TestControllerRegistryRoundTrips:
    """Satellite: every registered policy survives spec round trips."""

    SPEC = SteadyChurn(size=8, horizon=100, join_rate=0.04, leave_rate=0.04)

    def test_every_controller_is_constructible_by_name(self):
        for name in CONTROLLERS:
            controller = make_controller(name)
            assert controller.name == name

    def test_incremental_registered(self):
        assert "incremental" in CONTROLLERS
        assert isinstance(make_controller("incremental"),
                          IncrementalController)

    def test_jobs_for_every_controller_pickle(self):
        for name in CONTROLLERS:
            job = BatchJob.make(self.SPEC, name, 0,
                                engine_kwargs={"repair_tolerance": 0.2})
            clone = pickle.loads(pickle.dumps(job))
            assert clone == job

    def test_every_controller_survives_serial_dispatch(self):
        jobs = [BatchJob.make(self.SPEC, name, 0) for name in CONTROLLERS]
        results = run_batch(jobs, mode="serial")
        assert [r.controller for r in results] == list(CONTROLLERS)
        incremental = next(r for r in results if r.controller == "incremental")
        assert incremental.planner == "incremental"

    def test_every_controller_survives_process_dispatch(self):
        jobs = [BatchJob.make(self.SPEC, name, 0) for name in CONTROLLERS]
        serial = run_batch(jobs, mode="serial")
        pooled = run_batch(jobs, max_workers=2, mode="process")
        assert serial == pooled

    def test_repair_tolerance_travels_through_jobs(self):
        summary = run_batch(
            [BatchJob.make(self.SPEC, "incremental", 0,
                           engine_kwargs={"repair_tolerance": 0.0})],
            mode="serial",
        )[0]
        run = self.SPEC.build(0, name="SteadyChurn")
        engine = RuntimeEngine(
            run.platform, run.events, run.horizon, seed=0,
            repair_tolerance=0.0,
        )
        direct = engine.run(make_controller("incremental"))
        assert summary.planner == "incremental"
        assert (summary.rebuilds, summary.repairs, summary.repair_fallbacks) \
            == (direct.rebuilds, direct.repairs, direct.repair_fallbacks)


class TestPlanningCli:
    def test_planner_flag_runs(self, capsys):
        rc = main(["runtime", "--scenario", "steady-churn",
                   "--controller", "incremental", "--seed", "4",
                   "--repair-tolerance", "0.2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "planner=incremental" in out and "repairs=" in out

    def test_full_planner_with_incremental_controller(self, capsys):
        rc = main(["runtime", "--scenario", "rack-failure", "--seed", "2",
                   "--controller", "incremental", "--planner", "full"])
        assert rc == 0
        assert "planner=full" in capsys.readouterr().out

    def test_unknown_planner_fails_cleanly(self, capsys):
        assert main(["runtime", "--planner", "oracle"]) == 2
        assert "unknown planner" in capsys.readouterr().err

    def test_bad_tolerance_fails_cleanly(self, capsys):
        assert main(["runtime", "--repair-tolerance", "1.2"]) == 2
        assert "--repair-tolerance" in capsys.readouterr().err

    def test_tolerance_with_full_planner_fails_cleanly(self, capsys):
        rc = main(["runtime", "--planner", "full",
                   "--repair-tolerance", "0.1"])
        assert rc == 2
        assert "incremental" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode", [[], ["--batch", "--seeds", "1"]], ids=["single", "batch"]
    )
    @pytest.mark.parametrize(
        "extra, deleted",
        [([], ["--plan-slack", "0.05"]),
         (["--estimation", "online"], ["--estimator-warmstart"])],
        ids=["plan-slack", "estimator-warmstart"],
    )
    def test_deleted_flags_rejected(self, capsys, extra, deleted, mode):
        """Plans are built at the exact ``T*_ac`` of the measured swarm
        and the estimator starts from its flat prior: neither deleted
        flag parses, before a run or a sweep's pool starts."""
        assert main(["runtime", "--seed", "1", *mode, *extra, *deleted]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert deleted[0] in err[0]

    def test_list_includes_planners(self, capsys):
        assert main(["runtime", "--list"]) == 0
        out = capsys.readouterr().out
        assert "planners" in out and "incremental" in out

    def test_help_lists_registries_dynamically(self):
        """`repro runtime --help` reflects the live registries."""
        from repro.cli import build_parser
        from repro.runtime import controller_names, planner_names

        parser = build_parser()
        subparsers = parser._subparsers._group_actions[0]
        text = subparsers.choices["runtime"].format_help()
        for name in controller_names():
            assert name in text
        for name in planner_names():
            assert name in text


class TestSharedPlanCache:
    """The plan cache holds solves only: a repair resumes the planner's
    live overlay model and is never memoized, so sharing a cache across
    runs cannot change what a run computes."""

    SPEC = SteadyChurn(size=20, join_rate=0.03, leave_rate=0.03, horizon=240)

    def _run(self, cache, engine_seed, **engine_kwargs):
        run = self.SPEC.build(3, name="steady-churn")
        engine = RuntimeEngine(
            run.platform,
            run.events,
            run.horizon,
            seed=engine_seed,
            cache=cache,
            planner="incremental",
            **engine_kwargs,
        )
        return engine.run(make_controller("incremental"))

    def test_shared_cache_runs_equal_a_cold_run(self):
        shared = PlanCache()
        self._run(shared, engine_seed=0)
        warm = self._run(shared, engine_seed=0)  # every solve is a hit
        cold = self._run(PlanCache(), engine_seed=0)
        assert warm.epochs == cold.epochs
        assert warm.repairs == cold.repairs
        assert warm.rebuilds == cold.rebuilds

    def test_cache_holds_only_solves(self):
        engine_cache = PlanCache()
        assert self._run(engine_cache, engine_seed=0).repairs > 0
        # A 4096-entry cache, so nothing a repair stored can be evicted.
        plane = ControlPlane(_serve_fleet().platform, cache=PlanCache())
        for batch in _serve_mix(_serve_fleet(), 301, 300):
            plane.submit_batch(batch)
        assert plane.stats().repairs > 0
        assert all(isinstance(key, Instance) for key in engine_cache._store)
        for cache in (engine_cache, plane.cache):
            assert not [
                key for key in cache._store
                if isinstance(key, tuple) and key[0] == "repair"
            ]
            # Search results only: immutable (rate, word) pairs.
            for key, value in cache._store.items():
                if isinstance(key, Instance):
                    assert type(value) is tuple
                    assert [type(v) for v in value] == [float, str]

    def test_full_build_reads_the_memoized_solve(self):
        """A full rebuild of an unchanged swarm is one cache hit keyed on
        the snapshot itself, and packs the same plan."""
        engine = RuntimeEngine(
            DynamicPlatform.from_instance(figure1_instance()), [], 60,
            seed=0, cache=PlanCache(),
        )
        planner = FullRebuildPlanner()
        first = planner.build(engine)
        hits, misses = engine.cache.stats()
        second = planner.build(engine)
        assert engine.cache.stats() == (hits + 1, misses)
        assert list(engine.cache._store) == [first.instance]
        assert second.rate.hex() == first.rate.hex()
        assert list(second.scheme.edges()) == list(first.scheme.edges())

    def test_memo_entries_hold_no_mutable_state(self):
        """A repair by one planner leaves another planner on the same
        cache exactly where a planner on a fresh cache stands."""
        inst = Instance(5.0, (9.0, 8.0, 7.0, 6.0), (5.0, 4.0))

        def start(cache):
            engine = RuntimeEngine(
                DynamicPlatform.from_instance(inst), [], 100, seed=0,
                cache=cache,
            )
            planner = IncrementalRepairPlanner()
            return engine, planner, planner.build(engine)

        def pools(planner):
            packing = planner._model.packing
            return (
                [tuple(entry) for entry in packing.open_entries],
                [tuple(entry) for entry in packing.guarded_entries],
                packing.position,
            )

        def repair(engine, planner, plan):
            ev = NodeLeave(time=10, node_id=2)
            engine.platform.apply(ev)
            engine.now = 10
            outcome = planner.replan(engine, plan, (ev,))
            assert outcome.op == "repair", outcome.reason
            return outcome.plan

        shared = PlanCache()
        first = start(shared)
        second = start(shared)
        fresh = start(PlanCache())
        assert shared.stats() == (1, 1)  # the second build hit the memo
        repair(*first)
        assert pools(first[1]) != pools(second[1])
        assert pools(second[1]) == pools(fresh[1])
        ours, theirs = repair(*second), repair(*fresh)
        assert pools(second[1]) == pools(fresh[1])
        assert list(ours.scheme.edges()) == list(theirs.scheme.edges())


@st.composite
def _platforms(draw):
    """1-40 open and guarded peers joined in random order (so external
    ids do not follow the canonical order), with tied, zero and
    sub-tolerance bandwidths mixed in."""
    platform = DynamicPlatform(source_bw=draw(positive_bandwidths))
    bandwidth = st.one_of(
        bandwidths, st.sampled_from([0.0, 1e-12, 3e-9, 1.0, 5.0])
    )
    kind = st.sampled_from([NodeKind.OPEN, NodeKind.GUARDED])
    peers = draw(st.lists(st.tuples(kind, bandwidth), min_size=1, max_size=40))
    for kind, bw in peers:
        platform.apply(NodeJoin(time=0, kind=kind, bandwidth=bw))
    return platform


def _edges(plan):
    return [(i, j, rate.hex()) for i, j, rate in plan.scheme.edges()]


class TestBuildEquivalence:
    """The incremental planner packs straight into its overlay model; a
    fresh build materialized from that model is the full planner's plan
    bit for bit."""

    @settings(max_examples=max(300, settings.default.max_examples))
    @given(
        platform=_platforms(),
        estimation=st.sampled_from([None, "online"]),
    )
    def test_incremental_build_equals_full_build(self, platform, estimation):
        engine = RuntimeEngine(
            platform, [], 100, seed=0, cache=PlanCache(),
            estimation=estimation,
        )
        full = FullRebuildPlanner().build(engine)
        incremental = IncrementalRepairPlanner().build(engine)
        assert incremental.instance == full.instance
        assert incremental.node_ids == full.node_ids
        assert incremental.rate.hex() == full.rate.hex()
        assert _edges(incremental) == _edges(full)


#: Small runs of every scenario family under every controller.
_AXIS_SPECS = {
    "steady-churn": SteadyChurn(size=20, horizon=240),
    "live-stream": LiveStreamTrace(size=16, horizon=240),
    "flash-crowd": FlashCrowd(size=16, horizon=240, arrivals=10, at=80),
    "diurnal": DiurnalDrift(size=12, horizon=240),
}
_AXIS_RUNS = {
    "static": ("static", {}),
    "periodic": ("periodic", {}),
    "reactive": ("reactive", {}),
    "incremental": ("incremental", {}),
    "reactive-full": ("reactive", {"planner": "full"}),
    "incremental-online": ("incremental", {"estimation": "online"}),
}


def _axis_digest(case, seed=3):
    """SHA-256 of every ``EpochReport`` field but ``plan_seconds``
    (floats as ``float.hex``) plus the run's plan-op counters, on the
    ``reference`` transport the digests were recorded on."""
    scenario, run_name = case.split(":")
    controller, kwargs = _AXIS_RUNS[run_name]
    run = _AXIS_SPECS[scenario].build(seed)
    result = RuntimeEngine(
        run.platform, run.events, run.horizon, seed=seed,
        sim_backend="reference", **kwargs,
    ).run(make_controller(controller))

    def enc(value):
        return value.hex() if isinstance(value, float) else repr(value)

    record = [
        tuple(
            enc(getattr(ep, f.name))
            for f in dataclasses.fields(ep)
            if f.name != "plan_seconds"
        )
        for ep in result.epochs
    ]
    record.append((result.rebuilds, result.repairs, result.repair_fallbacks))
    return hashlib.sha256(repr(record).encode()).hexdigest()


#: Recorded while controllers still built plans themselves (only the
#: incremental controller reached the planner's ``replan``); the
#: ``*:incremental-online`` entries were re-recorded when the transport
#: began leveling truth-clipped schemes.
GOLDEN_AXIS = {
    "steady-churn:static": "06bf20910cd8d0f1b919bd8cfc361d2ae058d3b4a4bbbc1d33473a3fc052fcf8",
    "steady-churn:periodic": "216b1d0c834006d96e81c255694897e2b60b98368b8c8f24154c49014f38a1f9",
    "steady-churn:reactive": "4e3febc5d62ddbd2c4040c098d7a6b5c26c914c78d5636a6f214bc04de7a21fd",
    "steady-churn:incremental": "f57e614759697d5545dce7a20b032c802ffd75e1901d1e9eb1b7b55db3db4ded",
    "steady-churn:reactive-full": "4e3febc5d62ddbd2c4040c098d7a6b5c26c914c78d5636a6f214bc04de7a21fd",
    "steady-churn:incremental-online": "c149ba317e8cc0368eb957b67c58df77a3e7a884b3cccd7bd3fa8587f749c5d8",
    "live-stream:static": "ed8b65835ab8c512b5fd50a1c2e5afd319afd653b7e3e1774467dec2512ce39a",
    "live-stream:periodic": "90da0b48da9bdc005f886bb80848bad8aee0a781f69cb1c7d4d7e3685b900e84",
    "live-stream:reactive": "1ed0fe57f4439c67b12798dff6c1cdecd716486af68cdcca77f2dd0fc65dfd15",
    "live-stream:incremental": "5b3d509f6cfef9a26f38ff877c18dafbc39fcd45d1a98d3c0b742223b2776cc3",
    "live-stream:reactive-full": "1ed0fe57f4439c67b12798dff6c1cdecd716486af68cdcca77f2dd0fc65dfd15",
    "live-stream:incremental-online": "f0fa02c3c1e821b3a4e8db0eba0ef2473adfedbcf1ff7fa908785fd09d7e6a3e",
    "flash-crowd:static": "edf0ea78b482f4d75ba5582f7a5e4f98a4736cf1af8f7bf3a117b8f3d2ba6b66",
    "flash-crowd:periodic": "65be764002444be5ba8ed02bb27192bd889210826d789a3aa02d8f39ff663f68",
    "flash-crowd:reactive": "b0a7f9f891eef26a790277d01a9350c2d32f62120de8d7f783a63cf411a0630f",
    "flash-crowd:incremental": "59f62cff56820a57422aeb6f7b14329c903914a5003d2c7e19d24991197b775a",
    "flash-crowd:reactive-full": "b0a7f9f891eef26a790277d01a9350c2d32f62120de8d7f783a63cf411a0630f",
    "flash-crowd:incremental-online": "f4f412c6923640b77f463d730aecd075eca8be3eb697af13dbecffbacd0bec10",
    "diurnal:static": "439ab17481b33b5c5ca506bd10e96171aedf88197ed1d034e70ffd2a4c8a00d4",
    "diurnal:periodic": "d9118a638c0f7f0aa719d1302eb8022fa3840b18b10ae00ce825e89fc89c77bd",
    "diurnal:reactive": "439ab17481b33b5c5ca506bd10e96171aedf88197ed1d034e70ffd2a4c8a00d4",
    "diurnal:incremental": "ff56bfd4fbff74d033b18c2e26fc39483f897c390c5438b153e2b46723d9ef79",
    "diurnal:reactive-full": "439ab17481b33b5c5ca506bd10e96171aedf88197ed1d034e70ffd2a4c8a00d4",
    "diurnal:incremental-online": "421700c262fe77ca19bbbb583f34f25788ddbc92cd194ceec6be1d83e3e39196",
}


class _SpyPlanner(FullRebuildPlanner):
    """Full rebuilds that record the events each ``replan`` receives."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list = []

    def replan(self, engine, plan, events):
        self.calls.append(tuple(events))
        return super().replan(engine, plan, events)


class TestPolicyAxis:
    """Controllers say *when*; the engine's planner says *how*."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_AXIS))
    def test_runs_match_recorded_digests(self, case):
        assert _axis_digest(case) == GOLDEN_AXIS[case]

    def test_golden_cases_cover_every_controller(self):
        assert {c for c, _ in _AXIS_RUNS.values()} == set(CONTROLLERS)

    def test_reactive_controller_repairs_with_incremental_planner(self):
        reactive = _steady_churn_run(
            ReactiveController(), planner="incremental"
        )
        incremental = _steady_churn_run(IncrementalController())
        assert reactive.repairs > 0
        # Drift-free churn: both policies wake on exactly the same events.
        assert reactive.epochs == incremental.epochs
        assert (reactive.rebuilds, reactive.repairs, reactive.repair_fallbacks) \
            == (incremental.rebuilds, incremental.repairs,
                incremental.repair_fallbacks)

    def test_replan_sees_every_event_since_the_last_plan(self, fig1):
        drift = BandwidthDrift(time=10, node_id=1, bandwidth=3.0)
        leave = NodeLeave(time=20, node_id=4)
        spy = _SpyPlanner()
        engine = RuntimeEngine(
            DynamicPlatform.from_instance(fig1), [drift, leave], 40,
            seed=0, planner=spy,
        )
        result = engine.run(ReactiveController())
        assert spy.calls == [(drift, leave)]
        assert [e.plan_op for e in result.epochs] == ["build", "keep", "build"]
