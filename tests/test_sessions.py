"""Tests for repro.sessions: brokers, fleet engine, admission, routing."""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import (
    fleet_flow_report,
    jain_fairness,
    warm_snapshot_ab,
)
from repro.core.bounds import cyclic_optimum
from repro.core.instance import NodeKind, canonicalize_population
from repro.experiments.ablations import sessions_ablation
from repro.planning import PlanCache
from repro.runtime import (
    BandwidthDrift,
    BatchJob,
    NodeJoin,
    NodeLeave,
    run_job,
    scenario_grid,
)
from repro.runtime.events import DynamicPlatform, NodeState
from repro.runtime.scenarios import Scenario, SteadyChurn
from repro.sessions import (
    ADMISSIONS,
    BROKERS,
    CapacityBroker,
    FleetEngine,
    SessionClaim,
    SessionSpec,
    admission_names,
    broker_names,
    jain_fairness as sessions_jain,
    lemma51_bound,
    make_broker,
    make_fleet,
)
from repro.sessions.arbiter import Arbiter
from repro.sessions.broker import FRACTION_EPS, Allocation, _waterfill_node


def tiny_claims():
    """Two sessions sharing nodes 1 and 2; node 3 is exclusive to a.

    Sources are provisioned high enough that the member-upload term of
    Lemma 5.1 binds — allocations then actually move the bounds.
    """
    kinds = {1: NodeKind.OPEN, 2: NodeKind.OPEN, 3: NodeKind.OPEN}
    bandwidths = {1: 4.0, 2: 4.0, 3: 2.0}
    claims = [
        SessionClaim(name="a", source_bw=20.0, members=(1, 2, 3)),
        SessionClaim(name="b", source_bw=20.0, members=(1, 2)),
    ]
    return kinds, bandwidths, claims


class TestLemmaBound:
    def test_matches_cyclic_optimum_at_full_allocation(self):
        kinds = {1: NodeKind.OPEN, 2: NodeKind.GUARDED, 3: NodeKind.OPEN}
        bandwidths = {1: 5.0, 2: 1.0, 3: 4.0}
        bound = lemma51_bound(6.0, math.inf, (1, 2, 3), kinds, bandwidths)
        inst, _ = canonicalize_population(
            6.0, [(1, 5.0), (3, 4.0)], [(2, 1.0)]
        )
        assert bound == pytest.approx(cyclic_optimum(inst))

    def test_demand_caps_the_source_term(self):
        kinds = {1: NodeKind.OPEN}
        assert lemma51_bound(10.0, 2.5, (1,), kinds, {1: 50.0}) == 2.5

    def test_memberless_session_is_unbounded(self):
        assert lemma51_bound(5.0, math.inf, (), {}, {}) == math.inf

    def test_partial_allocation_scales_member_upload(self):
        kinds = {1: NodeKind.OPEN, 2: NodeKind.OPEN}
        bandwidths = {1: 8.0, 2: 8.0}
        full = lemma51_bound(20.0, math.inf, (1, 2), kinds, bandwidths)
        half = lemma51_bound(
            20.0, math.inf, (1, 2), kinds, bandwidths, lambda _n: 0.5
        )
        assert full == pytest.approx(18.0)  # (20 + 16) / 2
        assert half == pytest.approx(14.0)  # (20 + 8) / 2


class TestBrokers:
    def test_registry_round_trip(self):
        assert broker_names() == sorted(BROKERS)
        for name in broker_names():
            broker = make_broker(name)
            assert isinstance(broker, CapacityBroker)
            assert broker.name == name

    def test_unknown_broker_rejected(self):
        with pytest.raises(KeyError, match="unknown broker"):
            make_broker("nope")

    def test_equal_splits_shared_nodes_evenly(self):
        kinds, bandwidths, claims = tiny_claims()
        alloc = make_broker("equal").arbitrate(kinds, bandwidths, claims)
        assert alloc.fraction("a", 1) == pytest.approx(0.5)
        assert alloc.fraction("b", 1) == pytest.approx(0.5)
        assert alloc.fraction("a", 3) == pytest.approx(1.0)  # exclusive

    def test_proportional_follows_priority(self):
        kinds, bandwidths, claims = tiny_claims()
        claims = [replace(claims[0], priority=3.0), claims[1]]
        alloc = make_broker("proportional").arbitrate(
            kinds, bandwidths, claims
        )
        assert alloc.fraction("a", 1) > alloc.fraction("b", 1)

    def test_fractions_never_exceed_node_budget(self):
        kinds, bandwidths, claims = tiny_claims()
        for name in broker_names():
            alloc = make_broker(name).arbitrate(kinds, bandwidths, claims)
            for node in bandwidths:
                total = sum(
                    alloc.fraction(c.name, node) for c in claims
                )
                assert total <= 1.0 + 1e-9, (name, node)

    def test_waterfill_gives_capped_session_only_its_need(self):
        # Session a demands a tiny rate; waterfill should leave most of
        # the shared nodes to best-effort session b, unlike equal.
        kinds, bandwidths, claims = tiny_claims()
        claims = [replace(claims[0], demand=0.5), claims[1]]
        waterfill = make_broker("waterfill").arbitrate(
            kinds, bandwidths, claims
        )
        equal = make_broker("equal").arbitrate(kinds, bandwidths, claims)
        assert waterfill.bounds["b"] > equal.bounds["b"]
        assert waterfill.bounds["a"] >= 0.5 - 1e-9

    def test_waterfill_never_starves_a_contender(self):
        kinds, bandwidths, claims = tiny_claims()
        alloc = make_broker("waterfill").arbitrate(kinds, bandwidths, claims)
        assert alloc.bounds["a"] > 0
        assert alloc.bounds["b"] > 0

    @settings(max_examples=60, deadline=None)
    @given(
        priorities=st.lists(
            st.floats(min_value=5e-324, max_value=1.7e308),
            min_size=2, max_size=5,
        ),
        uploads=st.lists(
            st.floats(min_value=0.5, max_value=50.0), min_size=4, max_size=4
        ),
    )
    def test_extreme_priorities_keep_every_split_finite(
        self, priorities, uploads
    ):
        """Huge priorities used to overflow the proportional weights
        (or their sum) and turn fractions into NaN."""
        kinds = {k: NodeKind.OPEN for k in range(1, 5)}
        kinds[4] = NodeKind.GUARDED
        bandwidths = dict(zip(range(1, 5), uploads))
        claims = [
            SessionClaim(
                name=f"s{i}", source_bw=40.0, priority=p,
                members=(1, 2, 4) if i % 2 else (1, 2, 3, 4),
            )
            for i, p in enumerate(priorities)
        ]
        for name in broker_names():
            alloc = make_broker(name).arbitrate(kinds, bandwidths, claims)
            for node in bandwidths:
                shares = [alloc.fraction(c.name, node) for c in claims]
                assert all(math.isfinite(f) and f >= 0 for f in shares)
                assert sum(shares) <= 1.0 + FRACTION_EPS, (name, node)
            assert all(math.isfinite(b) for b in alloc.bounds.values())

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.lists(
            st.floats(min_value=5e-324, max_value=1.7e308),
            min_size=1, max_size=3,
        ),
        right=st.lists(
            st.floats(min_value=5e-324, max_value=1.7e308),
            min_size=1, max_size=3,
        ),
    )
    @example(left=[1e308], right=[1e-20, 2e-20])
    def test_overflow_rescale_stays_inside_its_group(self, left, right):
        """Claims on disjoint nodes never see each other: a group whose
        weights overflow is rescaled on its own, so a huge priority on
        nodes 1-2 leaves the splits of nodes 3-4 bit-identical."""
        kinds = {k: NodeKind.OPEN for k in range(1, 5)}
        bandwidths = {1: 30.0, 2: 20.0, 3: 10.0, 4: 5.0}
        groups = [
            [
                SessionClaim(
                    name=f"{side}{i}", source_bw=40.0, priority=p,
                    members=members,
                )
                for i, p in enumerate(priorities)
            ]
            for side, priorities, members in (
                ("a", left, (1, 2)), ("b", right, (3, 4))
            )
        ]
        for name in broker_names():
            broker = make_broker(name)
            together = broker.arbitrate(kinds, bandwidths, sum(groups, []))
            for group in groups:
                alone = broker.arbitrate(kinds, bandwidths, group)
                for claim in group:
                    assert (
                        together.fractions[claim.name]
                        == alone.fractions[claim.name]
                    ), (name, claim.name)
                    assert (
                        together.bounds[claim.name]
                        == alone.bounds[claim.name]
                    )

    def test_waterfill_node_respects_level(self):
        grants = _waterfill_node({"a": 0.9, "b": 0.9, "c": 0.1})
        assert sum(grants.values()) == pytest.approx(1.0)
        assert grants["c"] == pytest.approx(0.1)
        assert grants["a"] == grants["b"] == pytest.approx(0.45)

    def test_waterfill_node_is_work_conserving(self):
        # Fitting requests are scaled up proportionally to exhaust the
        # node: surplus upload costs nothing and absorbs later churn.
        grants = _waterfill_node({"a": 0.3, "b": 0.4})
        assert grants["a"] == pytest.approx(3 / 7)
        assert grants["b"] == pytest.approx(4 / 7)
        assert _waterfill_node({"a": 0.0}) == {"a": 0.0}


class TestSpecs:
    def test_session_spec_validation(self):
        with pytest.raises(ValueError):
            SessionSpec(name="", source_bw=1.0)
        with pytest.raises(ValueError):
            SessionSpec(name="s", source_bw=-1.0)
        with pytest.raises(ValueError):
            SessionSpec(name="s", source_bw=1.0, demand=0.0)
        with pytest.raises(ValueError):
            SessionSpec(name="s", source_bw=1.0, members=(1, 1))

    @pytest.mark.parametrize("priority", [0.0, -1.0, math.nan, math.inf])
    def test_priority_must_be_finite_and_positive(self, priority):
        with pytest.raises(ValueError, match="finite and > 0"):
            SessionSpec(name="s", source_bw=1.0, priority=priority)
        with pytest.raises(ValueError, match="finite and > 0"):
            SessionClaim(name="s", source_bw=1.0, priority=priority)

    def test_origin_rate_must_be_finite(self):
        with pytest.raises(ValueError, match="source_bw"):
            SessionSpec(name="s", source_bw=math.nan)
        with pytest.raises(ValueError, match="finite"):
            SessionSpec(name="s", source_bw=math.inf)
        # an infinite origin is fine while demand caps the rate
        spec = SessionSpec(name="s", source_bw=math.inf, demand=5.0)
        assert min(spec.source_bw, spec.demand) == 5.0

    def test_make_fleet_is_deterministic(self):
        a = make_fleet("steady-churn", 3, seed=4, overlap=0.3)
        b = make_fleet("steady-churn", 3, seed=4, overlap=0.3)
        assert a.sessions == b.sessions
        assert a.membership == b.membership
        assert a.events == b.events

    def test_zero_overlap_partitions_the_swarm(self):
        fleet = make_fleet("steady-churn", 4, seed=1, overlap=0.0)
        seen = [n for sp in fleet.sessions for n in sp.members]
        assert len(seen) == len(set(seen))  # no node in two sessions

    def test_overlap_creates_shared_members(self):
        fleet = make_fleet("steady-churn", 4, seed=1, overlap=0.8)
        seen = [n for sp in fleet.sessions for n in sp.members]
        assert len(seen) > len(set(seen))

    def test_membership_covers_every_event_id(self):
        fleet = make_fleet("live-stream", 3, seed=2, overlap=0.2)
        for ev in fleet.events:
            if isinstance(ev, NodeJoin):
                assert ev.node_id in fleet.membership

    def test_make_fleet_validates_arguments(self):
        with pytest.raises(ValueError):
            make_fleet("steady-churn", 0)
        with pytest.raises(ValueError):
            make_fleet("steady-churn", 2, overlap=1.5)
        with pytest.raises(KeyError):
            make_fleet("no-such-scenario", 2)


class TestAdmission:
    def test_registry(self):
        assert admission_names() == sorted(ADMISSIONS)
        assert ADMISSIONS["reject"].rejects
        assert not ADMISSIONS["degrade"].rejects

    def test_reject_drops_below_floor_sessions(self):
        fleet = make_fleet("rack-failure", 4, seed=3, overlap=0.6)
        result = FleetEngine.from_fleet(
            fleet, broker="equal", admission="reject", admission_floor=18.0
        ).run()
        statuses = {s.name: s.status for s in result.sessions}
        assert "rejected" in statuses.values()
        assert result.admission_rate < 1.0
        # Rejected sessions run nothing; admitted ones all cleared the
        # floor after their members' capacity was re-arbitrated.
        for s in result.sessions:
            if s.status == "rejected":
                assert s.result is None and s.goodput == 0.0
            else:
                assert s.bound >= 18.0

    def test_degrade_keeps_below_floor_sessions_running(self):
        fleet = make_fleet("rack-failure", 4, seed=3, overlap=0.6)
        result = FleetEngine.from_fleet(
            fleet, broker="equal", admission="degrade", admission_floor=18.0
        ).run()
        statuses = [s.status for s in result.sessions]
        assert "degraded" in statuses
        assert "rejected" not in statuses
        assert all(s.result is not None for s in result.sessions)

    def test_floor_zero_admits_everyone(self):
        fleet = make_fleet("rack-failure", 3, seed=0)
        result = FleetEngine.from_fleet(fleet, admission="reject").run()
        assert result.admission_rate == 1.0


class TestFleetEngine:
    def test_session_platforms_get_allocated_bandwidth(self):
        fleet = make_fleet("rack-failure", 2, seed=5, overlap=1.0)
        engine = FleetEngine.from_fleet(fleet, broker="equal")
        jobs = engine.prepare()
        # Full overlap + equal split: every member platform carries half
        # of the shared node's upload.
        shared = {
            i: s.bandwidth for i, s in fleet.platform.nodes.items()
        }
        for job in jobs:
            for node_id, state in job.platform.nodes.items():
                assert state.bandwidth == pytest.approx(
                    shared[node_id] / 2
                )

    def test_shared_leave_reaches_subscribed_sessions(self):
        fleet = make_fleet("rack-failure", 2, seed=5, overlap=0.0)
        engine = FleetEngine.from_fleet(fleet)
        jobs = engine.prepare()
        shared_leaves = {
            ev.node_id
            for ev in fleet.events
            if isinstance(ev, NodeLeave)
        }
        session_leaves = {
            ev.node_id
            for job in jobs
            for ev in job.events
            if isinstance(ev, NodeLeave)
        }
        assert session_leaves == shared_leaves

    def test_rearbitration_emits_drift_to_co_subscribers(self):
        # A rack failure shifts the sessions' proportional weights (their
        # solo ceilings shrink unevenly): the broker re-arbitrates and
        # co-subscribed sessions see the new shares as drift events.
        fleet = make_fleet("rack-failure", 2, seed=5, overlap=0.7)
        engine = FleetEngine.from_fleet(fleet, broker="proportional")
        jobs = engine.prepare()
        drifts = [
            ev
            for job in jobs
            for ev in job.events
            if isinstance(ev, BandwidthDrift)
        ]
        assert drifts, "re-arbitration must surface as drift events"
        assert engine.rearbitrations >= 2  # admission + the failure slot

    def test_demand_caps_session_source(self):
        fleet = make_fleet("rack-failure", 2, seed=1, demand=3.0)
        jobs = FleetEngine.from_fleet(fleet).prepare()
        for job in jobs:
            assert job.platform.source_bw == 3.0

    def test_duplicate_session_names_rejected(self):
        fleet = make_fleet("rack-failure", 2, seed=1)
        twice = (fleet.sessions[0], fleet.sessions[0])
        with pytest.raises(ValueError, match="duplicate"):
            FleetEngine(
                fleet.platform, fleet.events, fleet.horizon, twice
            )

    def test_engine_validates_knobs(self):
        fleet = make_fleet("rack-failure", 2, seed=1)

        def build(**kwargs):
            return FleetEngine.from_fleet(
                make_fleet("rack-failure", 2, seed=1), **kwargs
            )

        with pytest.raises(ValueError, match="unknown broker"):
            build(broker="bogus")
        with pytest.raises(ValueError, match="admission"):
            build(admission="bogus")
        with pytest.raises(ValueError, match="admission_floor"):
            build(admission_floor=-1.0)
        with pytest.raises(ValueError, match="at least one session"):
            FleetEngine(fleet.platform, fleet.events, fleet.horizon, ())

    def test_estimation_budget_amortized_fleet_wide(self):
        fleet = make_fleet("rack-failure", 2, seed=2, overlap=0.5)
        alive = fleet.platform.num_alive
        subscriptions = sum(
            1
            for sp in fleet.sessions
            for n in sp.members
            if fleet.platform.is_alive(n)
        )
        engine = FleetEngine.from_fleet(
            fleet, estimation="online", probes_per_node=4.0
        )
        engine.prepare()
        assert engine.probes_per_node == pytest.approx(
            4.0 * alive / subscriptions
        )
        assert engine.probes_per_node < 4.0  # overlap > 0 shrinks it

    def test_fleet_result_aggregates(self):
        fleet = make_fleet("rack-failure", 3, seed=0, overlap=0.2)
        result = FleetEngine.from_fleet(fleet).run()
        assert result.aggregate_goodput == pytest.approx(
            sum(s.goodput for s in result.admitted)
        )
        assert 0.0 < result.fairness <= 1.0
        assert result.total_rebuilds >= len(result.admitted)


class TestDeterminism:
    """Fleet results must not depend on execution mode or dispatch order."""

    SPEC = SteadyChurn(size=24, join_rate=0.03, leave_rate=0.03, horizon=200)

    @staticmethod
    def _run_payload(run):
        # RunResult.plan_seconds is wall-clock noise, so RunResult
        # equality is too strict for cross-mode comparison; everything
        # measured must match bit for bit (EpochReport already excludes
        # its own plan_seconds from equality).
        if run is None:
            return None
        return (
            run.epochs, run.rebuilds, run.repairs, run.repair_fallbacks,
            run.repair_latencies, run.probes, run.cache_hits,
            run.cache_misses, run.seed,
        )

    def _payload(self, result):
        return [
            (s.name, s.status, s.bound, s.solo_bound,
             self._run_payload(s.result))
            for s in result.sessions
        ]

    def test_serial_process_identical(self):
        payloads = []
        for mode in ("serial", "process"):
            fleet = make_fleet(self.SPEC, 3, seed=6, overlap=0.4)
            result = FleetEngine.from_fleet(fleet, broker="waterfill").run(
                mode=mode, max_workers=2
            )
            payloads.append(self._payload(result))
        assert payloads[0] == payloads[1]

    def test_thread_mode_rejected(self):
        fleet = make_fleet(self.SPEC, 2, seed=6, overlap=0.4)
        with pytest.raises(ValueError, match="'serial' or 'process'"):
            FleetEngine.from_fleet(fleet).run(mode="thread", max_workers=2)

    def test_results_independent_of_session_order(self):
        fleet = make_fleet(self.SPEC, 3, seed=6, overlap=0.4)
        forward = FleetEngine.from_fleet(fleet).run()
        reversed_fleet = replace(
            make_fleet(self.SPEC, 3, seed=6, overlap=0.4),
            sessions=tuple(
                reversed(make_fleet(self.SPEC, 3, seed=6, overlap=0.4).sessions)
            ),
        )
        backward = FleetEngine.from_fleet(reversed_fleet).run()
        by_name_fwd = {
            s.name: self._run_payload(s.result) for s in forward.sessions
        }
        by_name_bwd = {
            s.name: self._run_payload(s.result) for s in backward.sessions
        }
        assert by_name_fwd == by_name_bwd


class TestAnalysis:
    def test_jain_fairness(self):
        assert jain_fairness([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_fairness([1.0, 0.0, 0.0]) == pytest.approx(1 / 3)
        assert jain_fairness([]) == 1.0
        assert jain_fairness is sessions_jain

    def test_flow_report_uncontended_waterfill_near_bounds(self):
        cache = PlanCache()
        report = fleet_flow_report(
            60, 3, broker="waterfill", overlap=0.0, seed=9, cache=cache
        )
        assert report.aggregate_rate >= 0.9 * report.bound_sum
        for row in report.sessions:
            assert row.achieved_rate == pytest.approx(row.solo_rate)

    def test_flow_report_contention_degrades_gracefully(self):
        report = fleet_flow_report(
            60, 3, broker="waterfill", overlap=0.5, seed=9
        )
        assert report.aggregate_rate < report.bound_sum
        for row in report.sessions:
            assert row.achieved_rate > 0
            assert row.achieved_rate <= row.solo_bound + 1e-6

    def test_sessions_ablation_rows(self):
        """The engine-level broker sweep ``repro ablations`` prints."""
        rows = sessions_ablation(num_sessions=2, size=16, horizon=160)
        assert [r.broker for r in rows] == broker_names()
        for row in rows:
            assert row.admitted == 2
            assert row.aggregate > 0
            assert 0 < row.fairness <= 1.0


class TestDeletedFleetBatchMode:
    """Fleets run only through ``FleetEngine``: the batch runner has no
    multi-tenant mode and ``repro.analysis`` no second broker sweep."""

    def test_scenario_grid_rejects_fleet_kwargs(self):
        with pytest.raises(TypeError, match="fleet_kwargs"):
            scenario_grid(
                ["rack-failure"], ["reactive"], fleet_kwargs={"sessions": 2}
            )

    def test_batch_job_rejects_fleet_kwargs(self):
        with pytest.raises(TypeError, match="fleet_kwargs"):
            BatchJob("rack-failure", "reactive", fleet_kwargs=())
        # make() forwards unknown keywords to the controller, whose
        # constructor refuses this one before the engine runs.
        job = BatchJob.make("rack-failure", "reactive", fleet_kwargs={})
        assert job.controller_kwargs == (("fleet_kwargs", {}),)
        with pytest.raises(TypeError):
            run_job(job)

    def test_analysis_has_no_fleet_experiment(self):
        import repro.analysis

        assert not hasattr(repro.analysis, "fleet_experiment")
        assert not hasattr(repro.analysis, "FleetComparisonRow")


class TestWarmSnapshotAB:
    def _setup(self):
        from repro.algorithms.acyclic_guarded import scheme_from_word
        from repro.instances.families import figure1_instance

        inst = figure1_instance()
        rate, word = PlanCache().solve(inst)
        return inst, scheme_from_word(inst, word, rate), rate * (1 - 1e-9)

    def test_identical_pre_fork_state(self):
        inst, scheme, rate = self._setup()
        report = warm_snapshot_ab(
            inst,
            scheme,
            rate,
            warm_slots=50,
            measure_slots=50,
            variants={"a": None, "b": None},
        )
        # Two no-op variants forked from one snapshot are the same run:
        # bit-identical goodput proves the pre-fork state was identical
        # (buffers, credits and RNG all restored).
        assert report.goodputs["a"] == report.goodputs["b"]
        assert report.fork_slot == 50
        assert report.pre_fork[0] == 50

    def test_variants_diverge_only_after_fork(self):
        inst, scheme, rate = self._setup()
        report = warm_snapshot_ab(
            inst,
            scheme,
            rate,
            warm_slots=50,
            measure_slots=60,
            variants={
                "control": None,
                "fail": lambda sim: sim.fail_node(3),
            },
        )
        assert report.min_goodput("fail") < report.min_goodput("control")

    def test_validates_arguments(self):
        inst, scheme, rate = self._setup()
        with pytest.raises(ValueError, match="variant"):
            warm_snapshot_ab(
                inst, scheme, rate, warm_slots=10, measure_slots=10,
                variants={},
            )
        with pytest.raises(ValueError, match="warm_slots"):
            warm_snapshot_ab(
                inst, scheme, rate, warm_slots=-1, measure_slots=10,
                variants={"a": None},
            )

    @pytest.mark.parametrize(
        "keyword, value",
        (("backend", "sharded"), ("packets_per_unit", 2.0), ("burst_cap", 4.0)),
    )
    def test_deleted_transport_keywords_rejected(self, keyword, value):
        """Every fork runs the ``reference`` transport at two packets per
        bandwidth unit and the engine's burst cap."""
        inst, scheme, rate = self._setup()
        with pytest.raises(TypeError, match=keyword):
            warm_snapshot_ab(
                inst, scheme, rate, warm_slots=10, measure_slots=10,
                variants={"a": None}, **{keyword: value},
            )


class TestSessionsCLI:
    """The sessions subcommand reads its choices from live registries."""

    def test_single_fleet_run(self, capsys):
        from repro.cli import main

        rc = main(
            ["sessions", "--scenario", "rack-failure", "--num-sessions",
             "2", "--seed", "1", "--overlap", "0.2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "aggregate goodput" in out
        assert "fairness" in out

    def test_list_reads_registries(self, capsys):
        from repro.cli import main

        assert main(["sessions", "--list"]) == 0
        out = capsys.readouterr().out
        for name in broker_names():
            assert name in out
        for name in admission_names():
            assert name in out

    def test_unknown_names_list_live_registries(self, capsys):
        from repro.cli import main

        assert main(["sessions", "--broker", "bogus"]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in broker_names())
        assert main(["sessions", "--admission", "bogus"]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in admission_names())

    def test_registered_broker_appears_everywhere(self, capsys):
        """A plugin broker registers once and shows up in --help, --list
        and validation — nothing in the CLI is hard-coded."""
        from repro.cli import build_parser, main

        class PluginBroker(CapacityBroker):
            name = "plugin-equal"

            def _session_weights(self, kinds, bandwidths, claims):
                return {claim.name: 1.0 for claim in claims}

        BROKERS[PluginBroker.name] = PluginBroker  # repro: noqa REP005 -- ephemeral test-only plugin, removed in finally; no pool dispatch
        try:
            help_text = build_parser().format_help()
            assert main(["sessions", "--list"]) == 0
            out = capsys.readouterr().out
            assert "plugin-equal" in out
            rc = main(
                ["sessions", "--scenario", "rack-failure",
                 "--num-sessions", "2", "--broker", "plugin-equal"]
            )
            assert rc == 0
        finally:
            del BROKERS[PluginBroker.name]

    def test_help_round_trips_every_registered_name(self, capsys):
        from repro.cli import build_parser, main

        for broker in broker_names():
            for admission in admission_names():
                args = build_parser().parse_args(
                    ["sessions", "--broker", broker,
                     "--admission", admission]
                )
                assert args.broker == broker
                assert args.admission == admission

    def test_invalid_numbers_rejected(self, capsys):
        from repro.cli import main

        assert main(["sessions", "--num-sessions", "0"]) == 2
        assert main(["sessions", "--overlap", "1.5"]) == 2
        assert main(["sessions", "--admission-floor", "-2"]) == 2
        assert main(["sessions", "--demand", "0"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--estimation", "online", "--probes-per-node", "nan"],
             "--probes-per-node"),
            (["--admission-floor", "nan"], "--admission-floor"),
        ],
    )
    def test_nan_numbers_fail_cleanly(self, capsys, argv, message):
        from repro.cli import main

        assert main(["sessions"] + argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["--mode", "thread"], ["--workers", "2"],
         ["--mode", "serial", "--workers", "2"]],
    )
    def test_deleted_thread_mode_and_serial_workers_rejected(
        self, capsys, argv
    ):
        from repro.cli import main

        assert main(["sessions", "--seed", "1"] + argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


class TestEstimationInTheFleet:
    def test_online_estimation_runs_and_pays_probes(self):
        fleet = make_fleet(
            SteadyChurn(size=20, horizon=160), 2, seed=3, overlap=0.3
        )
        result = FleetEngine.from_fleet(
            fleet, estimation="online", probes_per_node=4.0
        ).run()
        assert result.total_probes > 0
        for s in result.admitted:
            assert s.result.estimation == "online"


class TestReviewRegressions:
    """Fixes surfaced by review: rerunnability and memberless sessions."""

    def test_run_is_repeatable_and_mode_stable(self):
        fleet = make_fleet("rack-failure", 2, seed=1, overlap=0.3)
        engine = FleetEngine.from_fleet(fleet)
        first = engine.run(mode="serial")
        second = engine.run(mode="serial")  # jobs stay pristine
        third = engine.run(mode="process", max_workers=2)
        for a, b in ((first, second), (first, third)):
            assert [s.result.epochs for s in a.sessions] == [
                s.result.epochs for s in b.sessions
            ]
            assert a.aggregate_goodput == b.aggregate_goodput

    def test_memberless_sessions_are_rejected_not_infinite(self):
        fleet = make_fleet(
            SteadyChurn(size=5, horizon=120), 8, seed=0, overlap=0.0
        )
        assert any(
            not sp.members for sp in fleet.sessions
        ), "fixture must produce a memberless session"
        result = FleetEngine.from_fleet(fleet).run()
        for s in result.sessions:
            if s.initial_members == 0:
                assert s.status == "rejected"
                assert s.ceiling == 0.0
        assert math.isfinite(result.aggregate_goodput)
        assert math.isfinite(result.bound_sum)
        assert 0.0 < result.fairness <= 1.0


# ----------------------------------------------------------------------
# Per-subscriber-set arbitration == the per-node reference, bit for bit
# ----------------------------------------------------------------------
def _reference_waterfill_node(requests):
    """Verbatim per-node water-fill (the pre-grouping kernel)."""
    total = sum(requests.values())
    if total <= FRACTION_EPS:
        return dict(requests)
    if total <= 1.0 + FRACTION_EPS:
        return {name: req / total for name, req in requests.items()}
    items = sorted(requests.items(), key=lambda kv: (kv[1], kv[0]))
    remaining = 1.0
    grants = {}
    for idx, (name, req) in enumerate(items):
        level = remaining / (len(items) - idx)
        if req <= level:
            grants[name] = req
            remaining -= req
        else:
            for tail_name, _tail_req in items[idx:]:
                grants[tail_name] = level
            return grants
    return grants


def _reference_bounds(alloc, kinds, bandwidths, claims):
    for claim in claims:
        alloc.bounds[claim.name] = lemma51_bound(
            claim.source_bw, claim.demand, claim.members, kinds, bandwidths,
            alloc.fractions[claim.name].get,
        )


def _reference_weighted(broker, kinds, bandwidths, claims):
    """Verbatim per-node weighted split (``equal``/``proportional``)."""
    weights = broker._session_weights(kinds, bandwidths, claims)
    subscribers = {}
    for claim in claims:
        for node in claim.members:
            subscribers.setdefault(node, []).append(claim.name)
    alloc = Allocation(fractions={claim.name: {} for claim in claims})
    for node, names in subscribers.items():
        total = sum(weights[name] for name in names)
        for name in names:
            alloc.fractions[name][node] = (
                weights[name] / total if total > 0 else 1.0 / len(names)
            )
    _reference_bounds(alloc, kinds, bandwidths, claims)
    return alloc


def _reference_waterfill(rounds, kinds, bandwidths, claims):
    """Verbatim per-node waterfill: one split per node per round."""
    subscribers = {}
    for claim in claims:
        for node in claim.members:
            subscribers.setdefault(node, []).append(claim.name)
    needs, requests = {}, {}
    for claim in claims:
        target = lemma51_bound(
            claim.source_bw, claim.demand, claim.members, kinds, bandwidths
        )
        size = len(claim.members)
        if not math.isfinite(target) or size == 0:
            needs[claim.name] = 0.0
            requests[claim.name] = 0.0
            continue
        b0 = min(claim.source_bw, claim.demand)
        open_sum = math.fsum(
            bandwidths[n] for n in claim.members
            if kinds[n] != NodeKind.GUARDED
        )
        guarded = [n for n in claim.members if kinds[n] == NodeKind.GUARDED]
        total_bw = open_sum + math.fsum(bandwidths[n] for n in guarded)
        fraction = 0.0
        if target * size > b0:
            fraction = (target * size - b0) / total_bw if total_bw > 0 else 1.0
        if guarded and target * len(guarded) > b0:
            fraction = max(
                fraction,
                (target * len(guarded) - b0) / open_sum
                if open_sum > 0 else 1.0,
            )
        requests[claim.name] = min(1.0, fraction)
        needs[claim.name] = requests[claim.name] * total_bw
    alloc = Allocation(fractions={claim.name: {} for claim in claims})
    for _ in range(rounds):
        granted_bw = {claim.name: 0.0 for claim in claims}
        for node, names in subscribers.items():
            grants = _reference_waterfill_node(
                {name: requests[name] for name in names}
            )
            for name, fraction in grants.items():
                alloc.fractions[name][node] = fraction
                granted_bw[name] += fraction * bandwidths[node]
        for claim in claims:
            need, got = needs[claim.name], granted_bw[claim.name]
            if need > 0 and got > FRACTION_EPS and got < need:
                requests[claim.name] = min(
                    1.0, requests[claim.name] * min(need / got, 4.0)
                )
    _reference_bounds(alloc, kinds, bandwidths, claims)
    return alloc


def _bits(alloc):
    """Everything an allocation carries, order-sensitive and exact."""
    return (
        [
            (name, [(node, f.hex()) for node, f in fractions.items()])
            for name, fractions in alloc.fractions.items()
        ],
        [(name, bound.hex()) for name, bound in alloc.bounds.items()],
    )


@st.composite
def contended_platforms(draw):
    """A shared platform plus overlapping claims: subscriber tuples
    repeat (few nodes, several sessions, members drawn from a handful
    of templates), demands may be infinite, guarded members and
    zero-bandwidth nodes occur."""
    num_nodes = draw(st.integers(1, 14))
    nodes = list(range(1, num_nodes + 1))
    kind = st.sampled_from([NodeKind.OPEN, NodeKind.OPEN, NodeKind.GUARDED])
    kinds = {n: draw(kind) for n in nodes}
    bandwidths = {
        n: draw(st.one_of(
            st.just(0.0),
            st.sampled_from([1.0, 2.5, 4.0]),
            st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
        ))
        for n in nodes
    }
    templates = draw(st.lists(
        st.lists(st.sampled_from(nodes), unique=True, max_size=num_nodes),
        min_size=1, max_size=3,
    ))
    claims = []
    for k in range(draw(st.integers(1, 6))):
        members = draw(st.one_of(
            st.sampled_from(templates),
            st.lists(st.sampled_from(nodes), unique=True, max_size=num_nodes),
        ))
        claims.append(SessionClaim(
            name=f"s{k}",
            source_bw=draw(st.floats(0.0, 60.0, allow_nan=False)),
            demand=draw(st.one_of(
                st.just(math.inf), st.floats(0.01, 80.0, allow_nan=False)
            )),
            priority=draw(st.sampled_from([0.25, 1.0, 1.0, 3.0])),
            members=tuple(members),
        ))
    return kinds, bandwidths, claims


class TestGroupedArbitration:
    @settings(max_examples=300)
    @given(case=contended_platforms())
    def test_weighted_brokers_match_per_node_reference(self, case):
        kinds, bandwidths, claims = case
        for name in ("equal", "proportional"):
            broker = make_broker(name)
            alloc = broker.arbitrate(kinds, bandwidths, claims)
            ref = _reference_weighted(broker, kinds, bandwidths, claims)
            assert _bits(alloc) == _bits(ref), name
            assert alloc.bounds == ref.bounds

    @settings(max_examples=300)
    @given(case=contended_platforms(), rounds=st.sampled_from([1, 2, 3, 5]))
    def test_waterfill_matches_per_node_reference(self, case, rounds):
        kinds, bandwidths, claims = case
        alloc = make_broker("waterfill", rounds=rounds).arbitrate(
            kinds, bandwidths, claims
        )
        ref = _reference_waterfill(rounds, kinds, bandwidths, claims)
        assert _bits(alloc) == _bits(ref)
        assert alloc.bounds == ref.bounds

    def test_repeated_tuple_oversubscribed_example(self):
        # Three sessions on the same two nodes (one tuple) plus a third
        # node with a different tuple: the water-fill sweep saturates.
        kinds = {1: NodeKind.OPEN, 2: NodeKind.GUARDED, 3: NodeKind.OPEN}
        bandwidths = {1: 4.0, 2: 0.0, 3: 2.0}
        claims = [
            SessionClaim(name="a", source_bw=20.0, members=(1, 2, 3)),
            SessionClaim(name="b", source_bw=20.0, members=(1, 2, 3)),
            SessionClaim(name="c", source_bw=20.0, demand=3.0, members=(1, 2)),
        ]
        for rounds in (1, 2, 3, 5):
            alloc = make_broker("waterfill", rounds=rounds).arbitrate(
                kinds, bandwidths, claims
            )
            ref = _reference_waterfill(rounds, kinds, bandwidths, claims)
            assert _bits(alloc) == _bits(ref)

    def test_accumulation_order_example(self):
        # Found by random search: granted bandwidth summed per
        # subscriber tuple (instead of in node order) moves the requests
        # by an ulp after round one, and the final grants with them.
        open_, guarded = NodeKind.OPEN, NodeKind.GUARDED
        kinds = {n: open_ for n in range(1, 12)}
        kinds[6] = kinds[11] = guarded
        bandwidths = {
            1: 0.0, 2: 0.0, 3: 41.754415658833175, 4: 18.050190902616247,
            5: 0.0, 6: 46.527298689496206, 7: 6.707849874263033,
            8: 11.390362963745154, 9: 0.0, 10: 48.21612273098926, 11: 0.0,
        }
        claims = [
            SessionClaim("s0", 23.897350844769516, 27.490590003783126,
                         members=(9, 3, 1, 11, 5, 10, 2, 7, 8, 4)),
            SessionClaim("s1", 2.109269784470491,
                         members=(11, 6, 9, 1, 8, 10)),
            SessionClaim("s2", 33.654831619509395, members=(1, 2, 9, 3)),
            SessionClaim("s3", 11.844571916332207,
                         members=(7, 1, 9, 8, 5, 11)),
            SessionClaim("s4", 6.18274491062714, 51.523550384510216,
                         members=(5, 6, 4, 9, 3, 7, 11, 10, 8, 2)),
            SessionClaim("s5", 31.64473750841879, 29.37281269381235,
                         members=(3, 9, 2, 10, 4, 11, 6, 7, 5, 8, 1)),
        ]
        alloc = make_broker("waterfill").arbitrate(kinds, bandwidths, claims)
        ref = _reference_waterfill(3, kinds, bandwidths, claims)
        assert _bits(alloc) == _bits(ref)


def _fraction_bits(alloc):
    """Per-session fractions (node order kept) and bounds, as hex."""
    return (
        {
            name: [(node, f.hex()) for node, f in fractions.items()]
            for name, fractions in alloc.fractions.items()
        },
        {name: bound.hex() for name, bound in alloc.bounds.items()},
    )


@st.composite
def shared_platform_rounds(draw):
    """A shared platform with dead and zero-bandwidth nodes, plus a few
    rounds of overlapping session specs; between rounds some specs are
    replaced (new members / priority), the rest keep their object."""
    num_nodes = draw(st.integers(1, 12))
    nodes = list(range(1, num_nodes + 1))
    platform = DynamicPlatform(source_bw=10.0)
    for n in nodes:
        platform.nodes[n] = NodeState(
            node_id=n,
            kind=draw(st.sampled_from(
                [NodeKind.OPEN, NodeKind.OPEN, NodeKind.GUARDED]
            )),
            bandwidth=draw(st.one_of(
                st.just(0.0),
                st.sampled_from([1.0, 2.5, 4.0]),
                st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
            )),
            alive=draw(st.booleans().map(lambda b: b or n % 3 != 0)),
        )
    member_lists = st.lists(st.sampled_from(nodes), unique=True, max_size=6)
    specs = [
        SessionSpec(
            name=f"s{k}",
            source_bw=draw(st.floats(0.0, 60.0, allow_nan=False)),
            demand=draw(st.one_of(
                st.just(math.inf), st.floats(0.01, 80.0, allow_nan=False)
            )),
            priority=draw(st.sampled_from([0.25, 1.0, 3.0])),
            members=tuple(draw(member_lists)),
        )
        for k in range(draw(st.integers(1, 6)))
    ]
    rounds = [specs]
    for _ in range(draw(st.integers(0, 3))):
        specs = [
            replace(
                sp,
                members=tuple(draw(member_lists)),
                priority=draw(st.sampled_from([0.25, 1.0, 3.0])),
            )
            if draw(st.booleans())
            else sp
            for sp in specs
        ]
        rounds.append(specs)
    return platform, rounds


class TestArbiterMemo:
    """The memoized per-component rounds the plane runs when planning
    incrementally equal one monolithic broker round, bit for bit."""

    @settings(max_examples=300)
    @given(case=shared_platform_rounds())
    def test_memoized_rounds_match_monolithic(self, case):
        platform, rounds = case
        alive = {n: s for n, s in platform.nodes.items() if s.alive}
        kinds = {n: s.kind for n, s in alive.items()}
        bandwidths = {n: s.bandwidth for n, s in alive.items()}
        for name in ("equal", "proportional", "waterfill"):
            broker = make_broker(name)
            arbiter = Arbiter(platform, memoize=True)
            for specs in rounds:
                claims = [
                    SessionClaim(
                        sp.name, sp.source_bw, sp.demand, sp.priority,
                        tuple(n for n in sp.members if n in bandwidths),
                    )
                    for sp in specs
                ]
                mono = broker.arbitrate(kinds, bandwidths, claims)
                arb = arbiter.arbitrate(broker, specs)
                assert _fraction_bits(arb.alloc) == _fraction_bits(mono), name
                assert arb.claims == claims
            assert arbiter.rearbitrations == len(rounds)
            assert arbiter.arb_misses >= 1

    def test_unchanged_components_hit_the_memo(self):
        kinds, bandwidths, _claims = tiny_claims()
        platform = DynamicPlatform(source_bw=20.0)
        for n, bw in bandwidths.items():
            platform.nodes[n] = NodeState(node_id=n, kind=kinds[n], bandwidth=bw)
        a = SessionSpec("a", 20.0, members=(1, 2))
        b = SessionSpec("b", 20.0, members=(3,))
        arbiter = Arbiter(platform, memoize=True)
        broker = make_broker("waterfill")
        arbiter.arbitrate(broker, [a, b])
        arbiter.arbitrate(broker, [a, replace(b, priority=2.0)])
        assert (arbiter.arb_misses, arbiter.arb_hits) == (3, 1)
        plain = Arbiter(platform, memoize=False)
        plain.arbitrate(broker, [a, b])
        assert (plain.arb_misses, plain.arb_hits) == (1, 0)
