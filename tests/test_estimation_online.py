"""Tests for estimation in the loop: probes -> estimator -> view -> engine.

Covers the online measurement pipeline of :mod:`repro.estimation.online`
unit by unit, its integration through ``RuntimeEngine(estimation=...)``
and the batch runner, and the property-style acceptance criterion: the
estimated view degrades *monotonically* — lower probe budgets or higher
noise never beat the oracle on the seeded scenario grid.
"""

import dataclasses
import hashlib
import inspect
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import (
    EstimatedPlatformView,
    LastMileGroundTruth,
    OnlineEstimator,
    ProbeScheduler,
    estimate_lastmile,
    random_instance,
    sample_measurements,
)
import repro.estimation.measurements as measurements
from repro.estimation.lastmile import _fit_lastmile, guarded_relative_errors
from repro.estimation.measurements import pair_noise, pair_noises
from repro.estimation.online import PROBES_PER_NODE, ProbeRound
from repro.analysis import clip_to_capacities
from repro.core.exceptions import DecompositionError
from repro.planning import PlanCache
from repro.runtime import (
    BandwidthDrift,
    DynamicPlatform,
    LiveStreamTrace,
    NodeJoin,
    NodeLeave,
    RuntimeEngine,
    SteadyChurn,
    make_controller,
    run_batch,
    scenario_grid,
    summarize_batch,
)
from repro.simulation.core import PacketSimEngine, SimConfig


@pytest.fixture
def platform():
    rng = np.random.default_rng(5)
    return DynamicPlatform.from_instance(random_instance(rng, 16, 0.6, "Unif100"))


def _round(*rows):
    """A :class:`ProbeRound` of ``(source, target, value)`` rows."""
    return ProbeRound(
        [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]
    )


def _rows(probes):
    """A round's ``(source, target, value)`` rows."""
    return list(zip(
        probes.sources.tolist(), probes.targets.tolist(), probes.values.tolist()
    ))


def _fresh_view(platform, *, budget=6.0, sigma=0.1, decay=0.8, seed=3):
    return EstimatedPlatformView(
        platform,
        ProbeScheduler(seed=seed, probes_per_node=budget, noise_sigma=sigma),
        OnlineEstimator(decay=decay),
    )


class TestProbeBudgetDefault:
    """One declared default budget: the scheduler, the engine, the
    fleet's amortization and the CLI all read ``PROBES_PER_NODE``."""

    @pytest.mark.parametrize("callable_", (ProbeScheduler, RuntimeEngine))
    def test_constructor_default(self, callable_):
        param = inspect.signature(callable_).parameters["probes_per_node"]
        assert param.default is PROBES_PER_NODE

    def test_fleet_amortizes_the_default(self):
        from repro.sessions import FleetEngine, make_fleet

        def amortized(**budget):
            fleet = make_fleet(
                SteadyChurn(size=12, horizon=60), 2, seed=3, overlap=0.3
            )
            engine = FleetEngine.from_fleet(
                fleet, estimation="online", **budget
            )
            engine.prepare()
            return engine.probes_per_node

        default = amortized()
        assert default > 0
        assert default == amortized(probes_per_node=PROBES_PER_NODE)
        assert default != amortized(probes_per_node=2 * PROBES_PER_NODE)

    @pytest.mark.parametrize("command", ("runtime", "sessions"))
    def test_cli_default(self, command):
        from repro.cli import build_parser

        args = build_parser().parse_args([command])
        assert args.probes_per_node is PROBES_PER_NODE


class TestProbeScheduler:
    def test_budget_scales_with_population(self, platform):
        sched = ProbeScheduler(seed=0, probes_per_node=3.0)
        assert sched.budget(platform.num_alive) == 3 * platform.num_alive
        assert sched.budget(1) == 0  # nothing to probe pairwise

    def test_budget_capped_at_all_ordered_pairs(self):
        sched = ProbeScheduler(seed=0, probes_per_node=100.0)
        assert sched.budget(4) == 4 * 3

    def test_probe_count_and_id_space(self, platform):
        sched = ProbeScheduler(seed=1, probes_per_node=2.0)
        probes = sched.probe(platform, now=0)
        assert len(probes) == sched.budget(platform.num_alive)
        alive = set(platform.alive_ids())
        for source, target, value in _rows(probes):
            assert source in alive and target in alive
            assert source != target
            assert value >= 0

    def test_deterministic_per_slot(self, platform):
        a = ProbeScheduler(seed=7, probes_per_node=3.0).probe(platform, 5)
        b = ProbeScheduler(seed=7, probes_per_node=3.0).probe(platform, 5)
        assert _rows(a) == _rows(b)
        c = ProbeScheduler(seed=7, probes_per_node=3.0).probe(platform, 6)
        assert _rows(a) != _rows(c)  # fresh pairs/noise at the next boundary

    def test_pair_values_independent_of_budget(self, platform):
        """The engine-facing mode-independence guarantee: a pair's value
        depends only on (seed, slot, pair), never on the other pairs."""
        small = {
            (s, t): v
            for s, t, v in _rows(
                ProbeScheduler(seed=7, probes_per_node=2.0).probe(platform, 0)
            )
        }
        large = {
            (s, t): v
            for s, t, v in _rows(
                ProbeScheduler(seed=7, probes_per_node=10.0).probe(platform, 0)
            )
        }
        common = set(small) & set(large)
        assert common
        for pair in common:
            assert small[pair] == large[pair]

    def test_noiseless_probe_is_lastmile_pair_bandwidth(self, platform):
        sched = ProbeScheduler(seed=2, probes_per_node=4.0, noise_sigma=0.0)
        for source, target, value in _rows(sched.probe(platform, 0)):
            expected = min(
                platform.nodes[source].bandwidth,
                sched.headroom * platform.nodes[target].bandwidth,
            )
            assert value == pytest.approx(expected)

    def test_zero_budget_probes_nothing(self, platform):
        probes = ProbeScheduler(seed=0, probes_per_node=0.0).probe(platform, 0)
        assert len(probes) == 0 and _rows(probes) == []

    def test_round_columns_must_align(self):
        with pytest.raises(ValueError, match="same length"):
            ProbeRound([1, 2], [3], [1.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            ProbeScheduler(probes_per_node=-1)
        with pytest.raises(ValueError):
            ProbeScheduler(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            ProbeScheduler(headroom=0.0)
        with pytest.raises(ValueError):
            ProbeScheduler(probes_per_node=float("nan"))
        with pytest.raises(ValueError):
            ProbeScheduler(noise_sigma=float("nan"))
        with pytest.raises(ValueError, match="probes_per_node"):
            ProbeScheduler(probes_per_node=float("inf"))
        with pytest.raises(ValueError, match="noise_sigma"):
            ProbeScheduler(noise_sigma=float("inf"))
        with pytest.raises(ValueError, match="seed"):
            ProbeScheduler(seed=-1)


#: Stream-key parts on both sides of the 32-bit word boundary, so
#: that the batched hash sees every entropy length a key can have.
_key_ints = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 10**12]),
    st.integers(min_value=0, max_value=2**70),
)


class TestPairNoises:
    """``pair_noises`` is ``pair_noise`` batched: the same floats, bit
    for bit, for every key the scalar stream definition accepts."""

    @settings(max_examples=max(300, settings.default.max_examples))
    @given(
        seed=_key_ints,
        round_=st.one_of(st.sampled_from([0, 2**40]), _key_ints),
        pairs=st.lists(st.tuples(_key_ints, _key_ints), max_size=6),
        sigma=st.one_of(
            st.sampled_from([0.0, 1e-300, 0.1, 3.0]),
            st.floats(min_value=0.0, max_value=10.0),
        ),
    )
    @example(seed=2**32, round_=0, pairs=[(0, 2**32), (2**32, 0)], sigma=0.1)
    @example(seed=1, round_=2, pairs=[(3, 5), (4, 6)], sigma=0.0)
    def test_pair_noises_match_scalar(self, seed, round_, pairs, sigma):
        sources = [s for s, _ in pairs]
        targets = [t for _, t in pairs]
        batched = pair_noises(seed, round_, sources, targets, sigma)
        scalar = [pair_noise(seed, s, t, sigma, round_) for s, t in pairs]
        assert [v.hex() for v in batched] == [v.hex() for v in scalar]

    def test_pair_noises_5000_draws(self):
        """Enough draws that the ziggurat's rare slow path runs: 73 of
        these 5000 streams consume more than one 64-bit word."""
        sources = [i % 97 for i in range(5000)]
        targets = [i // 97 + 2**32 * (i % 3 == 0) for i in range(5000)]
        batched = pair_noises(303, 17, sources, targets, 3.0)
        scalar = [
            pair_noise(303, s, t, 3.0, 17) for s, t in zip(sources, targets)
        ]
        assert [v.hex() for v in batched] == [v.hex() for v in scalar]

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize(
        "seed, round_, source, target",
        [(-1, 0, 1, 2), (0, -1, 1, 2), (0, 0, -1, 2), (0, 0, 1, -2)],
    )
    def test_pair_noises_negative_keys_rejected(
        self, seed, round_, source, target, sigma
    ):
        with pytest.raises(ValueError, match="non-negative"):
            pair_noises(seed, round_, [source], [target], sigma)
        with pytest.raises(ValueError, match="non-negative"):
            pair_noise(seed, source, target, sigma, round_)

    def test_pair_noises_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            pair_noises(0, 0, [1, 2], [3], 0.1)


class TestOnlineEstimator:
    def test_decay_window(self):
        assert OnlineEstimator(decay=1.0).window is None
        est = OnlineEstimator(decay=0.5, min_weight=0.05)
        assert est.window == 4  # 0.5**4 = 0.0625 >= 0.05 > 0.5**5

    def test_stale_measurements_expire(self, platform):
        est = OnlineEstimator(decay=0.5, min_weight=0.05)
        ids = platform.alive_ids()
        est.ingest(_round((ids[0], ids[1], 10.0)))
        assert len(est) == 1
        for _ in range(est.window):
            est.ingest(_round())
        assert len(est) == 1  # exactly at the window edge: retained
        est.ingest(_round())
        assert len(est) == 0  # one round past: decayed away

    def test_leave_purges_both_directions(self, platform):
        est = OnlineEstimator()
        a, b, c = platform.alive_ids()[:3]
        est.ingest(_round((a, b, 1.0), (c, a, 2.0), (b, c, 3.0)))
        est.observe_leave(a)
        assert len(est) == 1  # only b -> c survives

    def test_drift_purges_outgoing_only(self, platform):
        est = OnlineEstimator()
        a, b = platform.alive_ids()[:2]
        est.ingest(_round((a, b, 1.0), (b, a, 2.0)))
        est.observe_drift(a)
        assert len(est) == 1  # a's outgoing probe lied; b's still stands

    def test_apply_events_routes_by_type(self, platform):
        est = OnlineEstimator()
        a, b = platform.alive_ids()[:2]
        est.ingest(_round((a, b, 1.0), (b, a, 2.0)))
        est.apply_events([
            NodeJoin(time=1, bandwidth=5.0, node_id=99),  # no-op
            BandwidthDrift(time=1, node_id=b, bandwidth=3.0),
        ])
        assert len(est) == 1
        est.apply_events([NodeLeave(time=2, node_id=a)])
        assert len(est) == 0

    def test_refit_is_lazy(self, platform):
        view = _fresh_view(platform)
        view.refresh(0)
        fits = view.estimator.fits
        assert fits == 1
        # No new probes, no churn: repeated estimate calls are memo hits.
        view.estimator.estimates(platform)
        view.estimator.estimates(platform)
        assert view.estimator.fits == fits

    def test_prior_without_measurements(self, platform):
        est = OnlineEstimator(prior_bw=2.5)
        fit = est.estimates(platform)
        assert set(fit) == set(platform.alive_ids())
        assert all(v == 2.5 for v in fit.values())

    def test_estimates_track_truth(self, platform):
        view = _fresh_view(platform, budget=8.0, sigma=0.05)
        for now in range(3):
            view.refresh(now)
        errors = view.relative_errors()
        assert float(np.median(errors)) < 0.10

    def test_conservative_envelope(self, platform):
        """No estimate may exceed the node's own observation quantile:
        overestimated relays starve subtrees, underestimates only waste
        slack (see OnlineEstimator docstring)."""
        view = _fresh_view(platform, budget=8.0, sigma=0.3)
        frozen = _DictEstimator(decay=view.estimator.decay)
        for now in range(3):
            view.refresh(now)
            # A slot's probes are a pure function of (seed, slot).
            frozen.ingest(view.scheduler.probe(platform, now))
        by_src = {}
        for (s, _), (v, _) in frozen._latest.items():
            by_src.setdefault(s, []).append(v)
        for node, obs in by_src.items():
            cap = float(np.quantile(obs, view.estimator.quantile))
            assert view.bandwidth(node) <= cap + 1e-9

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_probe_round_rejected_atomically(self, platform, bad):
        """A rejected round leaves the store, the round counter and the
        estimates untouched — one bad probe cannot poison later refits."""
        est = OnlineEstimator()
        a, b, c = platform.alive_ids()[:3]
        est.ingest(_round((a, b, 4.0), (b, c, 6.0)))
        before = (len(est), est._round, dict(est.estimates(platform)))
        with pytest.raises(ValueError, match="finite"):
            est.ingest(_round((c, a, 5.0), (a, c, bad)))
        assert (len(est), est._round, est.estimates(platform)) == before

    @pytest.mark.parametrize(
        "owner, name",
        [(OnlineEstimator, "warm_start"), (OnlineEstimator, "prior_for"),
         (PlanCache, "nearest_profile")],
    )
    def test_no_warm_start_seam(self, owner, name):
        """Estimates depend only on this run's probes and churn: there is
        no seam to seed per-node priors from an earlier run's solves."""
        assert not hasattr(owner, name)

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineEstimator(decay=0.0)
        with pytest.raises(ValueError):
            OnlineEstimator(decay=1.5)
        with pytest.raises(ValueError):
            OnlineEstimator(min_weight=1.0)
        with pytest.raises(ValueError):
            OnlineEstimator(prior_bw=-1.0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"quantile": 1.5}, "quantile"), ({"quantile": -0.1}, "quantile"),
         ({"quantile": float("nan")}, "quantile"),
         ({"prior_bw": float("nan")}, "prior_bw"),
         ({"prior_bw": float("inf")}, "prior_bw"),
         ({"prior_bw": -1.0}, "prior_bw")],
    )
    def test_bad_options_rejected_at_construction(self, kwargs, name):
        """A bad quantile used to surface at the first fit, mid-run, and
        a non-finite prior reached planners as every unprobed peer's
        bandwidth."""
        with pytest.raises(ValueError, match=name):
            OnlineEstimator(**kwargs)

    @pytest.mark.parametrize("end", [-1, 2**31])
    def test_out_of_range_endpoint_rejected_atomically(self, platform, end):
        est = OnlineEstimator()
        a, b = platform.alive_ids()[:2]
        est.ingest(_round((a, b, 4.0)))
        with pytest.raises(ValueError, match="endpoints"):
            est.ingest(_round((b, a, 5.0), (a, end, 1.0)))
        assert (len(est), est._round) == (1, 1)

    def test_repeated_pair_in_a_round_keeps_the_last(self, platform):
        est = OnlineEstimator()
        a, b = platform.alive_ids()[:2]
        est.ingest(_round((a, b, 4.0), (b, a, 1.0), (a, b, 9.0)))
        assert len(est) == 2
        assert est.estimates(platform)[a] == 9.0


class TestEstimatedPlatformView:
    def test_membership_is_oracle(self, platform):
        view = _fresh_view(platform)
        view.refresh(0)
        assert view.alive_ids() == platform.alive_ids()
        assert view.num_alive == platform.num_alive
        assert view.is_alive(platform.alive_ids()[0])
        assert view.source_bw == platform.source_bw

    def test_snapshot_same_shape_estimated_values(self, platform):
        view = _fresh_view(platform, sigma=0.2)
        view.refresh(0)
        est_inst, est_ids = view.snapshot()
        true_inst, true_ids = platform.snapshot()
        assert est_inst.num_receivers == true_inst.num_receivers
        assert est_inst.n == true_inst.n and est_inst.m == true_inst.m
        assert sorted(est_ids) == sorted(true_ids)
        assert est_inst.source_bw == true_inst.source_bw  # tracker-known
        # Kinds follow the oracle per external id (control-plane facts).
        for k, ext in enumerate(est_ids):
            if k == 0:
                continue
            assert est_inst.kind(k) == platform.nodes[ext].kind
        # Bandwidths are estimates, not oracle values.
        assert est_inst.open_bws != true_inst.open_bws

    def test_observe_event_rewrites_join_and_drift(self, platform):
        view = _fresh_view(platform)
        view.refresh(0)
        node = platform.alive_ids()[0]
        drift = BandwidthDrift(time=3, node_id=node, bandwidth=123.0)
        seen = view.observe_event(drift)
        assert seen.bandwidth == pytest.approx(view.bandwidth(node))
        leave = NodeLeave(time=3, node_id=node)
        assert view.observe_event(leave) is leave

    def test_unprobed_joiner_gets_imputed_bandwidth(self, platform):
        view = _fresh_view(platform, budget=6.0)
        view.refresh(0)
        platform.apply(NodeJoin(time=1, bandwidth=77.0, node_id=500))
        # Not yet probed: the view must still answer, via imputation,
        # and must not leak the oracle 77.0.
        seen = view.observe_event(
            NodeJoin(time=1, bandwidth=77.0, node_id=500)
        )
        assert seen.bandwidth != 77.0

    def test_zero_truth_error_is_inf_guarded(self, platform):
        view = _fresh_view(platform)
        view.refresh(0)
        node = platform.alive_ids()[0]
        platform.nodes[node].bandwidth = 0.0  # uplink died; estimate stale
        errors = view.relative_errors()
        assert np.isinf(errors).any()


def _listed_errors(view):
    """The list-built errors the array path replaced: ``bandwidth()``
    and ``nodes[i].bandwidth`` per alive id."""
    alive = view.platform.alive_ids()
    return guarded_relative_errors(
        [view.bandwidth(i) for i in alive],
        [view.platform.nodes[i].bandwidth for i in alive],
    )


class TestErrorArrays:
    """``relative_errors`` reads the fit's and the platform's arrays and
    returns the list version's floats in its order, so ``median_error``
    is the same float."""

    @staticmethod
    def _same(view, median_error=EstimatedPlatformView.median_error):
        arrays, listed = view.relative_errors(), _listed_errors(view)
        assert arrays.dtype == listed.dtype
        assert arrays.tobytes() == listed.tobytes()
        median = median_error(view)
        if listed.size:
            assert median.hex() == float(np.median(listed)).hex()
        else:
            assert median is None
        return median

    @pytest.mark.parametrize("name", ["live-stream", "steady-churn"])
    def test_every_boundary_of_an_online_run(self, name, monkeypatch):
        checked = []

        def spy(view):
            checked.append(view)
            return self._same(view)

        monkeypatch.setattr(EstimatedPlatformView, "median_error", spy)
        spec = (LiveStreamTrace(size=40) if name == "live-stream"
                else SteadyChurn(size=30))
        run = spec.build(1, name=name)
        RuntimeEngine(
            run.platform, run.events, run.horizon, seed=1,
            estimation="online",
        ).run(make_controller("incremental"))
        assert len(checked) > 10

    def test_roster_changes_since_the_last_refresh(self, platform):
        view = _fresh_view(platform)
        self._same(view)  # no fit yet: every estimate is the prior
        view.refresh(0)
        self._same(view)
        first = platform.alive_ids()[0]
        events = [
            NodeJoin(time=1, bandwidth=77.0, node_id=1000),
            NodeJoin(time=1, bandwidth=5.0, node_id=999),  # out of id order
            NodeLeave(time=1, node_id=first),
            BandwidthDrift(time=1, node_id=platform.alive_ids()[1],
                           bandwidth=0.0),
        ]
        for ev in events:
            platform.apply(ev)
            view.note_events([ev])
            self._same(view)
        view.refresh(1)
        self._same(view)
        for node in platform.alive_ids():
            platform.apply(NodeLeave(time=2, node_id=node))
        self._same(view)


class TestEngineIntegration:
    def _run(self, estimation, *, budget=4.0, sigma=0.1, seed=0,
             controller="reactive", horizon=160, size=14):
        spec = SteadyChurn(size=size, horizon=horizon,
                           join_rate=0.03, leave_rate=0.03)
        run = spec.build(seed, name="steady-churn")
        engine = RuntimeEngine(
            run.platform, run.events, run.horizon, seed=seed,
            estimation=estimation, probes_per_node=budget,
            noise_sigma=sigma,
        )
        return engine.run(make_controller(controller))

    def test_online_run_accounts_probes_and_errors(self):
        result = self._run("online")
        assert result.estimation == "online"
        assert result.probes > 0
        assert result.probes == sum(e.probes for e in result.epochs)
        assert result.epochs[0].probes > 0  # the initial boundary probed
        errs = [e.estimation_error for e in result.epochs]
        assert all(e is not None for e in errs)
        assert result.mean_estimation_error is not None
        assert 0.0 <= result.mean_estimation_error < 1.0

    def test_oracle_mode_is_a_passthrough(self):
        default = self._run(None)
        oracle = self._run("oracle")
        assert oracle.estimation == default.estimation == "oracle"
        assert oracle.probes == 0
        assert oracle.mean_estimation_error is None
        assert oracle.epochs == default.epochs

    def test_oracle_identical_regardless_of_estimation_knobs(self):
        """Estimation knobs are inert in oracle mode (no RNG leakage)."""
        a = self._run("oracle", budget=4.0, sigma=0.1)
        b = self._run("oracle", budget=9.0, sigma=0.7)
        assert a.epochs == b.epochs

    def test_planners_consume_the_view(self):
        """Plans under estimation are built in estimated space: the plan
        instance differs from the oracle snapshot of the same swarm."""
        rng = np.random.default_rng(11)
        inst = random_instance(rng, 12, 0.6, "Unif100")
        platform = DynamicPlatform.from_instance(inst)
        engine = RuntimeEngine(platform, [], 40, seed=1,
                               estimation="online", probes_per_node=6.0)
        engine._observe(())
        plan = engine.build_plan()
        assert plan.instance != platform.snapshot()[0]
        assert sorted(plan.node_ids) == sorted(platform.snapshot()[1])

    def _engine(self, cache):
        run = SteadyChurn(size=14, horizon=160).build(0, name="steady-churn")
        return RuntimeEngine(
            run.platform, run.events, run.horizon, seed=0, cache=cache,
            estimation="online", probes_per_node=0.5,
        )

    def test_warm_cache_leaves_the_prior_flat(self):
        """A cache that already solved this swarm seeds nothing: before
        the first probe every peer reads the estimator's flat prior."""
        warm = PlanCache()
        warm.solve(self._engine(PlanCache()).platform.snapshot()[0])
        view = self._engine(warm).view
        prior = view.estimator.prior_bw
        assert [view.bandwidth(n) for n in view.alive_ids()] == [
            prior for _ in view.alive_ids()
        ]

    def test_warm_cache_run_equals_cold_run(self):
        warm = PlanCache()
        self._engine(warm).run(make_controller("reactive"))
        assert len(warm) > 0
        again = self._engine(warm).run(make_controller("reactive"))
        cold = self._engine(PlanCache()).run(make_controller("reactive"))
        assert again.epochs == cold.epochs
        assert again.probes == cold.probes

    def test_incremental_controller_runs_under_estimation(self):
        result = self._run("online", controller="incremental")
        assert result.estimation == "online"
        assert result.probes > 0
        assert result.mean_delivered_fraction > 0.3

    def test_estimated_never_beats_oracle(self):
        oracle = self._run("oracle")
        online = self._run("online")
        assert (
            online.mean_optimality_fraction
            <= oracle.mean_optimality_fraction + 0.05
        )

    def test_engine_validation(self):
        rng = np.random.default_rng(0)
        platform = DynamicPlatform.from_instance(
            random_instance(rng, 6, 0.5, "Unif100")
        )
        with pytest.raises(ValueError, match="estimation"):
            RuntimeEngine(platform, [], 10, estimation="psychic")
        with pytest.raises(ValueError, match="probes_per_node"):
            RuntimeEngine(platform, [], 10, probes_per_node=-2.0)
        with pytest.raises(ValueError, match="estimator_decay"):
            RuntimeEngine(platform, [], 10, estimator_decay=0.0)
        with pytest.raises(ValueError, match="noise_sigma"):
            RuntimeEngine(platform, [], 10, noise_sigma=-0.5)
        with pytest.raises(ValueError, match="probes_per_node"):
            RuntimeEngine(platform, [], 10, probes_per_node=float("nan"))
        with pytest.raises(ValueError, match="noise_sigma"):
            RuntimeEngine(platform, [], 10, noise_sigma=float("nan"))
        with pytest.raises(ValueError, match="probes_per_node"):
            RuntimeEngine(platform, [], 10, probes_per_node=float("inf"))
        with pytest.raises(ValueError, match="noise_sigma"):
            RuntimeEngine(platform, [], 10, noise_sigma=float("inf"))
        with pytest.raises(ValueError, match="seed"):
            RuntimeEngine(platform, [], 10, seed=-1, estimation="online")

    def test_sharded_backend_refuses_online_estimation(self):
        """The runtime offers no ``sharded`` transport, so the pair is
        refused at construction as an unknown backend; ``auto`` builds
        the same sharded transport wherever it can run and falls back
        to ``reference`` for the truth-clipped schemes it cannot."""
        run = SteadyChurn(size=14, horizon=160).build(1, name="steady-churn")
        with pytest.raises(ValueError, match="unknown simulation backend"):
            RuntimeEngine(
                run.platform, run.events, run.horizon, seed=1,
                sim_backend="sharded", estimation="online",
            )
        result = RuntimeEngine(
            run.platform, run.events, run.horizon, seed=1,
            sim_backend="auto", estimation="online",
        ).run(make_controller("reactive"))
        assert result.estimation == "online" and result.probes > 0


class TestMonotoneDegradation:
    """Satellite acceptance: on the seeded scenario grid, less probing or
    more noise never yields *better* achieved throughput than oracle."""

    SPEC = SteadyChurn(size=12, horizon=120, join_rate=0.03, leave_rate=0.03)

    def _optimality(self, *, estimation, budget=4.0, sigma=0.1, seeds=(0, 1)):
        jobs = scenario_grid(
            [self.SPEC],
            ["reactive"],
            seeds=seeds,
            engine_kwargs={
                "estimation": estimation,
                "probes_per_node": budget,
                "noise_sigma": sigma,
            },
        )
        results = run_batch(jobs, mode="serial")
        return sum(r.mean_optimality for r in results) / len(results)

    @pytest.mark.parametrize("budget", [8.0, 2.0, 1.0])
    def test_no_probe_budget_beats_oracle(self, budget):
        oracle = self._optimality(estimation="oracle")
        online = self._optimality(estimation="online", budget=budget)
        assert online <= oracle + 0.05

    @pytest.mark.parametrize("sigma", [0.05, 0.3, 0.6])
    def test_no_noise_level_beats_oracle(self, sigma):
        oracle = self._optimality(estimation="oracle")
        online = self._optimality(estimation="online", sigma=sigma)
        assert online <= oracle + 0.05

    def test_flow_level_gap_monotone_in_budget_and_sigma(self):
        """Deterministic (no transport RNG) statement of the same
        property: the truth-clipped achieved rate degrades monotonically
        along both axes of the estimation-gap sweep."""
        from repro.analysis import estimation_gap_experiment

        rows = estimation_gap_experiment(
            budgets=(8.0, 2.0, 0.5),
            sigmas=(0.05, 0.3),
            size=24,
            trials=3,
        )
        by_sigma = {}
        for r in rows:
            by_sigma.setdefault(r.noise_sigma, []).append(r)
        for sigma, cells in by_sigma.items():
            gaps = [r.gap for r in sorted(
                cells, key=lambda r: -r.probes_per_node
            )]
            assert gaps == sorted(gaps), (sigma, gaps)  # widens as probes drop
        for lo, hi in zip(by_sigma[0.05], by_sigma[0.3]):
            assert lo.gap <= hi.gap + 1e-9  # and as noise grows


class TestEstimationAblation:
    def test_oracle_row_first_and_never_worse(self):
        from repro.experiments.ablations import estimation_ablation

        rows = estimation_ablation(budgets=(4.0,), size=14, horizon=160)
        assert [r.estimation for r in rows] == ["oracle", "online"]
        oracle, online = rows
        assert oracle.probes == 0 and oracle.est_error == 0.0
        assert online.probes > 0 and online.est_error > 0.0
        assert online.mean_optimality <= oracle.mean_optimality + 0.05


class TestBatchIntegration:
    SPEC = SteadyChurn(size=10, horizon=100, join_rate=0.03, leave_rate=0.03)

    def test_grid_threads_estimation_kwargs(self):
        jobs = scenario_grid(
            [self.SPEC], ["static"], engine_kwargs={
                "estimation": "online", "probes_per_node": 2.0,
                "estimator_decay": 0.9, "noise_sigma": 0.2,
            },
        )
        kwargs = dict(jobs[0].engine_kwargs)
        assert kwargs["estimation"] == "online"
        assert kwargs["probes_per_node"] == 2.0
        assert kwargs["estimator_decay"] == 0.9
        assert kwargs["noise_sigma"] == 0.2

    def test_jobs_pickle(self):
        jobs = scenario_grid(
            [self.SPEC], ["reactive"], engine_kwargs={"estimation": "online"}
        )
        assert pickle.loads(pickle.dumps(jobs)) == jobs

    def test_summary_carries_estimation_columns(self):
        jobs = scenario_grid(
            [self.SPEC], ["static", "reactive"],
            engine_kwargs={"estimation": "online", "probes_per_node": 3.0},
        )
        results = run_batch(jobs, mode="serial")
        for r in results:
            assert r.estimation == "online"
            assert r.probes > 0
            assert r.estimation_error is not None
        table = summarize_batch(results)
        assert "estim" in table and "probes" in table and "est err" in table
        assert "online" in table

    def test_mode_independent_results(self):
        """Estimated sweeps stay bit-identical across execution modes —
        the PR 1 guarantee extended to the measurement loop."""
        jobs = scenario_grid(
            [self.SPEC], ["static", "reactive"], seeds=(0, 1),
            engine_kwargs={"estimation": "online", "probes_per_node": 3.0},
        )
        serial = run_batch(jobs, mode="serial")
        pooled = run_batch(jobs, mode="process", max_workers=2)
        assert serial == pooled

    def test_oracle_rows_unchanged_shape(self):
        results = run_batch(
            scenario_grid([self.SPEC], ["static"]), mode="serial"
        )
        assert results[0].estimation == "oracle"
        assert results[0].probes == 0
        assert results[0].estimation_error is None


class TestCli:
    def test_estimation_run(self, capsys):
        from repro.cli import main

        rc = main([
            "runtime", "--scenario", "rack-failure", "--controller",
            "reactive", "--estimation", "online", "--probes-per-node", "4",
            "--seed", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "estimation=online" in out
        assert "mean est error" in out

    def test_oracle_run_prints_no_estimation_line(self, capsys):
        from repro.cli import main

        rc = main([
            "runtime", "--scenario", "rack-failure", "--seed", "1",
        ])
        assert rc == 0
        assert "estimation=online" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--probes-per-node", "-1"], "--probes-per-node"),
            (["--noise-sigma", "-0.1"], "--noise-sigma"),
            (["--estimator-decay", "0"], "--estimator-decay"),
            (["--estimator-decay", "1.5"], "--estimator-decay"),
            (["--estimation", "online", "--probes-per-node", "nan"],
             "--probes-per-node"),
            (["--estimation", "online", "--noise-sigma", "nan"],
             "--noise-sigma"),
            (["--estimation", "online", "--probes-per-node", "inf"],
             "--probes-per-node"),
            (["--estimation", "online", "--noise-sigma", "inf"],
             "--noise-sigma"),
            (["--estimation", "online", "--seed", "-1"], "--seed"),
            (["--batch", "--seeds", "1", "--period", "0"], "period"),
            (["--estimation", "online", "--sim-backend", "sharded"],
             "'sharded'"),
            (["--estimation", "online", "--sim-backend", "sharded",
              "--batch", "--seeds", "1"], "'sharded'"),
        ],
    )
    def test_invalid_estimation_flags(self, capsys, argv, message):
        from repro.cli import main

        rc = main(["runtime", "--scenario", "rack-failure"] + argv)
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["runtime", "--seed", "-1"], "--seed"),
            (["sessions", "--seed", "-1"], "--seed"),
            (["serve", "--seed", "-1", "--transport", "inproc"], "--seed"),
            (["sessions", "--estimation", "online", "--probes-per-node",
              "inf"], "--probes-per-node"),
        ] + [
            # Every typed flag of every command that declares it: NaN,
            # inf and an out-of-range value, wherever each is invalid.
            (command + [flag, value], flag)
            for command, flag, values in [
                (["solve", "--source", "5", "--open", "3"], "--rate",
                 ["nan", "inf", "-1"]),
                (["runtime"], "--tick", ["0"]),
                (["runtime"], "--seeds", ["0"]),
                (["runtime"], "--workers", ["0"]),
                (["runtime"], "--repair-tolerance", ["nan", "inf", "1"]),
                (["runtime"], "--estimator-decay", ["nan", "inf", "0"]),
                (["runtime"], "--probes-per-node", ["nan", "inf", "-1"]),
                (["runtime"], "--noise-sigma", ["nan", "inf", "-0.1"]),
                (["sessions"], "--num-sessions", ["0"]),
                (["sessions"], "--overlap", ["nan", "inf", "1.5"]),
                (["sessions"], "--admission-floor", ["nan", "-1"]),
                (["sessions"], "--demand", ["nan", "0"]),
                (["sessions"], "--probes-per-node", ["nan", "-1"]),
                (["sessions"], "--workers", ["0"]),
                (["serve"], "--num-sessions", ["0"]),
                (["serve"], "--overlap", ["nan", "inf", "-0.5"]),
                (["serve"], "--admission-floor", ["nan", "-1"]),
                (["serve"], "--repair-tolerance", ["nan", "inf", "1"]),
            ]
            for value in values
        ],
    )
    def test_invalid_seed_and_budget_in_every_command(
        self, capsys, argv, message
    ):
        from repro.cli import main

        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_unknown_estimation_choice_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["runtime", "--estimation", "magic"])


def _lastmile_case(case):
    """Seeded offline fit inputs spanning both quantiles, both
    imputation modes, noiseless ties, receiver-limited pairs (headroom 1)
    and nodes whose outgoing probes were all dropped."""
    rng = np.random.default_rng((0xE57, case))
    n = 8 + 4 * (case % 5)
    truth = LastMileGroundTruth.symmetric(
        rng.uniform(1.0, 100.0, n), headroom=(1.0, 4.0)[case % 2]
    )
    ms = sample_measurements(
        case,
        truth,
        pairs_per_node=2 + case % 4,
        noise_sigma=(0.0, 0.1, 0.3)[case % 3],
    )
    dropped = {case % n, (3 * case + 1) % n}
    ms = [m for m in ms if m.source not in dropped]
    kwargs = dict(
        quantile=(0.5, 0.85)[case % 2],
        unmeasured=("median", 7.5)[(case // 2) % 2],
    )
    return ms, n, kwargs


def _lastmile_digest(case):
    ms, n, kwargs = _lastmile_case(case)
    est = estimate_lastmile(ms, n, **kwargs)
    record = (
        [v.hex() for v in est.b_out],
        [v.hex() for v in est.b_in],
        est.residual_rms_log.hex(),
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()


def _online_digest(name):
    """Every estimate map the view handed out, plus the epoch reports."""
    kind, seed = name.split(":")
    if kind == "steady-churn":
        spec, controller = SteadyChurn(size=25, horizon=160), "reactive"
    else:
        spec, controller = LiveStreamTrace(size=20, horizon=120), "incremental"
    run = spec.build(int(seed))
    engine = RuntimeEngine(
        run.platform, run.events, run.horizon, seed=int(seed),
        estimation="online",
    )
    estimator = engine.view.estimator
    fits = []
    refit = estimator.estimates

    def recording(platform):
        fit = refit(platform)
        fits.append(sorted((k, v.hex()) for k, v in fit.items()))
        return fit

    estimator.estimates = recording
    result = engine.run(make_controller(controller))
    epochs = [
        (ep.start, ep.end, ep.num_alive, ep.planned_rate.hex(),
         ep.optimal_rate.hex(), ep.min_goodput.hex(),
         ep.mean_goodput.hex(), ep.starved, ep.unserved, ep.rebuilt,
         ep.plan_op, ep.probes,
         None if ep.estimation_error is None else ep.estimation_error.hex())
        for ep in result.epochs
    ]
    record = (fits, epochs, estimator.fits)
    return hashlib.sha256(repr(record).encode()).hexdigest()


#: SHA-256 of each offline ``LastMileEstimate`` (``b_out``, ``b_in`` and
#: ``residual_rms_log`` as ``float.hex``), recorded when the fit still
#: ran every per-node quantile through ``np.quantile``.
GOLDEN_LASTMILE = {
    0: "8a17eeff4ed765400be5ff1e4f5caf14781b44b30b17e229edf95aac4de0e101",
    1: "cf676b8833e9386329f6ec40e37a8f1f6c878a2aac154267e06457cf1ae80254",
    2: "cad2553eebeb1bc124c1fce9c101b7cf65bc5310c9bd11cf5bcf464d23d65dc4",
    3: "8c463c1018fbdb1619e30f919845be1abe77d46fde3b8e695bc230a9f6dc520e",
    4: "5cce28522f5cfdf922049b97ab84350d898c6a8d5824aa2051a54fe8b4ebead8",
    5: "b747d50a93a893585388349c940fad1b687305d9c11723c6e9dc9825f3c72568",
    6: "5486a55e8525abc772efedcf09e6d9785f0446242f6072596852802b708576c3",
    7: "b4cf0a269e4e1dc2ad60f3a6b8554d1613b2a964343c1aa8a91ead3494359a7e",
    8: "d31e99f71e1e90f48a948b1b156a44aae83bbb3a8e70042850d025c0a0cfc187",
    9: "b4770b8079c12cc57107e47276c2219bbf17623114cc570d44495debede82afb",
    10: "00cb33184543388f7548c2fe1b96b0aec522593fbc88808d9a6194e2f9060fdc",
    11: "7644d3f5d888cade69323948bfa080701160af4d1966cf507e8f61a2c01ddebc",
    12: "43d45a2aff89058dc8c5b501856491016955f342d934a610e0305a57b6d947f4",
    13: "1ca1da7cd42ac647161de07ffb6bae730aa119b5e93c93b22f428293f15ae8c2",
    14: "c12226500afb2d15c28d5a4dd9f9a3786bb53bd6cf6a0bf316575291a9e3537a",
    15: "e11d236739e23089b8ec9f703cc77c4bf19da6c3a22839bdd5099622addb2e57",
    16: "1e18f0f249aa9214ea8bee028c9dea7553a707b3f5fc61c800b342ad6c722173",
    17: "36cfde047f50228eeb0cbfbdf1f5a83ebc262f2b086c477e46c44122fbb65d3f",
    18: "ad86705649429c1fda60edeff9cfb55a8a5b3aa2280e5be25242d69a59f071a3",
    19: "b9b20a0b851f3cec38af90de2ef1dc2500617039b8addfc48413894b8b837d28",
}
#: SHA-256 of every online estimate map plus the per-epoch reports of
#: one engine run under ``estimation="online"``, re-recorded when the
#: transport began leveling truth-clipped schemes (the estimate maps
#: did not move; the epoch goodputs did).
GOLDEN_ONLINE = {
    "live-stream:1": "310c5ef1d0d5abe31ce37bcfcb7d095d5db84a2c754bffce650ebf72261cf29e",
    "live-stream:2": "1c381d7729c023f0f3d6bfbad6309ca024f474b5ffdefc2f327b2150099e6ff5",
    "live-stream:3": "bbd5db2706c6c4f1140d20767de189937463c91aaae3f26c663f828094117474",
    "live-stream:4": "6b31e1472b8aed1b1545e0d951d0a8edf1581fd3f2e59301902ffe391ae60ee9",
    "steady-churn:1": "851ea86adac09801498768bb6b50a40fc28b0862a02fdd077133265a6894c5c2",
    "steady-churn:2": "ad9dc84e2c7f651803b86e5108062c71db5eeedbb5fd9b23801f4d4e29f542c0",
    "steady-churn:3": "dce745eca76756d5dcda2be4bbb3a96e0331d80a6257133a4e360bb67c7dc3bd",
    "steady-churn:4": "66858dc0265eb4672ad97af654ebde3cc9d9179e055f7419d80b97ffefc02aa5",
}


class TestEstimationGoldenState:
    """The estimation layer's exact outputs, pinned bit for bit."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_LASTMILE))
    def test_offline_fit_matches_golden(self, case):
        assert _lastmile_digest(case) == GOLDEN_LASTMILE[case]

    @pytest.mark.parametrize("name", sorted(GOLDEN_ONLINE))
    def test_online_run_matches_golden(self, name):
        assert _online_digest(name) == GOLDEN_ONLINE[name]


def _epoch_digest(result):
    """Every ``EpochReport`` field except ``plan_seconds``, floats as
    ``float.hex``."""
    rows = []
    for ep in result.epochs:
        row = []
        for f in dataclasses.fields(ep):
            if f.name == "plan_seconds":
                continue
            v = getattr(ep, f.name)
            row.append(v.hex() if isinstance(v, float) else repr(v))
        rows.append(tuple(row))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _live_online_run(spec, seed, **kwargs):
    run = spec.build(seed, name="live-stream")
    engine = RuntimeEngine(
        run.platform, run.events, run.horizon, seed=seed,
        estimation="online", **kwargs,
    )
    return engine.run(make_controller("incremental"))


#: Epoch digests of ``LiveStreamTrace(size=40)`` incremental runs under
#: online estimation, per seed and transport; warm and cold runs share
#: them.  Both transports run the same leveled scheme: ``auto`` on its
#: trees, ``reference`` with its random useful-packet rule.
GOLDEN_LIVE40_ONLINE = {
    1: {
        "auto": "57b2ee50d56e37514a76c083321a914f7aab19b3ac078bb1fa2a5b48872bc33c",
        "reference": "572fab91e8aec2338b2c396756d872350ae5651ac00d6ad820aff545f357aa45",
    },
    2: {
        "auto": "92d2922b90fa866a51e63ea3ef467b30506ba91c4d1e70fac555c6204ab21d73",
        "reference": "5e8ee445cb0aa5d3ffae32cb4d1409ab21b7a093e0ce3d21a8921cc6ae69d3c0",
    },
    3: {
        "auto": "215230820e774fb012fdef571a92ab326e20bac948dc4152b7c3187883f632f1",
        "reference": "cebd7c393d9d2d4344dbb1ad578f90d57e1563e1f418fb3e5be8ec2a8ccace86",
    },
}


def _spy_sharded_builds(monkeypatch):
    """Record ``True``/``False`` per ``ShardedBackend`` build attempt
    (built, or refused with ``DecompositionError``)."""
    import repro.simulation.backends.sharded as sharded

    outcomes = []
    init = sharded.ShardedBackend.__init__

    def spy(backend, config, seed):
        try:
            init(backend, config, seed)
        except DecompositionError:
            outcomes.append(False)
            raise
        outcomes.append(True)

    monkeypatch.setattr(sharded.ShardedBackend, "__init__", spy)
    return outcomes


class TestOnlineTransportChoice:
    """Online estimation runs leveled schemes: ``auto`` builds the trees
    for every one of them, ``reference`` stays the named oracle of the
    same scheme."""

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("backend", ["auto", "reference"])
    @pytest.mark.parametrize("seed", sorted(GOLDEN_LIVE40_ONLINE))
    def test_epochs_match_golden(self, seed, backend, warm):
        result = _live_online_run(
            LiveStreamTrace(size=40), seed,
            sim_backend=backend, warm_epochs=warm,
        )
        assert _epoch_digest(result) == GOLDEN_LIVE40_ONLINE[seed][backend]

    @pytest.mark.parametrize("seed", sorted(GOLDEN_LIVE40_ONLINE))
    def test_auto_never_refuses_a_leveled_scheme(self, seed, monkeypatch):
        """Every transport run of the golden runs builds ``sharded``:
        0 refusals, so ``auto`` never falls back."""
        outcomes = _spy_sharded_builds(monkeypatch)
        result = _live_online_run(
            LiveStreamTrace(size=40), seed, sim_backend="auto"
        )
        assert outcomes and all(outcomes)
        assert len(outcomes) == sum(
            1 for ep in result.epochs if ep.planned_rate > 0
        )

    @pytest.mark.parametrize("warm", [False, True])
    def test_zero_leveled_rate_runs_no_transport(self, warm, monkeypatch):
        """Every true capacity 0: clipping drops every edge, so some
        receiver has no feeder and the leveled rate is 0.  No transport
        run is built and every alive receiver reads 0."""
        built = []
        init = PacketSimEngine.__init__

        def spy(sim, *args, **kwargs):
            built.append(sim)
            init(sim, *args, **kwargs)

        monkeypatch.setattr(PacketSimEngine, "__init__", spy)
        run = LiveStreamTrace(size=40).build(1)
        engine = RuntimeEngine(
            run.platform, run.events, run.horizon, seed=1,
            estimation="online", warm_epochs=warm,
        )
        monkeypatch.setattr(
            engine.platform, "true_capacities", lambda ids: [0.0] * len(ids)
        )
        result = engine.run(make_controller("incremental"))
        assert not built
        scheme, level = engine._transport_scheme(engine._clip_plan)
        assert level == 0.0 and scheme.num_edges == 0
        served = [ep for ep in result.epochs if ep.num_alive]
        assert served and all(ep.planned_rate > 0 for ep in served)
        assert all(ep.min_goodput == ep.mean_goodput == 0.0 for ep in served)

    def test_auto_refuses_an_unleveled_clipped_scheme(self, monkeypatch):
        """The robustness path clips without leveling: there ``auto``
        still meets the exact in-rate refusal, before the decomposition
        memo is consulted, and falls back to ``reference``; the leveled
        scheme of the same clip builds the trees."""
        import repro.simulation.backends.sharded as sharded

        run = LiveStreamTrace(size=40).build(1)
        engine = RuntimeEngine(
            run.platform, run.events, run.horizon, seed=1,
            estimation="online",
        )
        installs = []
        transport_scheme = engine._transport_scheme

        def spy_install(plan):
            if not installs:
                installs.append((plan, clip_to_capacities(
                    plan.scheme,
                    engine.platform.true_capacities(plan.node_ids),
                ), transport_scheme(plan)))
            return transport_scheme(plan)

        engine._transport_scheme = spy_install
        engine.run(make_controller("incremental"))
        plan, clipped, (leveled, level) = installs[0]
        memo_calls = []
        memo = sharded._decompose_cached

        def spy_memo(scheme, *arrays):
            memo_calls.append(scheme)
            return memo(scheme, *arrays)

        monkeypatch.setattr(sharded, "_decompose_cached", spy_memo)
        outcomes = _spy_sharded_builds(monkeypatch)
        sim = PacketSimEngine(
            plan.instance, clipped, plan.rate, seed=0, backend="auto"
        )
        assert sim.backend_name == "reference"
        assert outcomes == [False] and not memo_calls
        with pytest.raises(DecompositionError, match="has in-rate .* != "
                           "scheme rate .*equal-in-rate schemes"):
            sharded.ShardedBackend(SimConfig(scheme=clipped, rate=1.0), 0)

        sim = PacketSimEngine(
            plan.instance, leveled, level, seed=0, backend="auto"
        )
        assert sim.backend_name == "sharded" and len(memo_calls) == 1


class _DictEstimator:
    """The dict-based probe store the columnar one replaced, frozen as
    the oracle of :class:`TestStoreEquivalence`: pair -> (value, round)
    in dict order, a full scan per expiry, a predicate per purge and
    fit rows built per pair.  Only the intake reads a
    :class:`ProbeRound` and the fit's outputs are arrays now."""

    def __init__(self, *, decay=0.8, min_weight=0.05, quantile=0.5,
                 prior_bw=1.0):
        self.decay = decay
        self.min_weight = min_weight
        self.quantile = quantile
        self.prior_bw = prior_bw
        self._latest = {}
        self._round = 0
        self._dirty = True
        self._fit = {}
        self._fit_alive = ()
        self.fits = 0

    @property
    def window(self):
        if self.decay >= 1.0:
            return None
        return int(math.floor(math.log(self.min_weight) / math.log(self.decay)))

    def __len__(self):
        return len(self._latest)

    def ingest(self, probes):
        probes = _rows(probes)
        for m in probes:
            if not (math.isfinite(m[2]) and m[2] >= 0):
                raise ValueError(f"probe values must be finite and >= 0, got {m}")
        self._round += 1
        for source, target, value in probes:
            self._latest[(source, target)] = (value, self._round)
            self._dirty = True
        self._expire()

    def _expire(self):
        window = self.window
        if window is None:
            return
        stale = [
            pair
            for pair, (_, rnd) in self._latest.items()
            if self._round - rnd > window
        ]
        for pair in stale:
            del self._latest[pair]
            self._dirty = True

    def _purge(self, predicate):
        doomed = [p for p in self._latest if predicate(*p)]
        for pair in doomed:
            del self._latest[pair]
        if doomed:
            self._dirty = True

    def apply_events(self, events):
        for ev in events:
            if isinstance(ev, NodeLeave):
                self._purge(lambda s, t: ev.node_id in (s, t))
            elif isinstance(ev, BandwidthDrift):
                self._purge(lambda s, t: s == ev.node_id)

    def estimates(self, platform):
        alive = tuple(platform.alive_ids())
        if not self._dirty and alive == self._fit_alive:
            return self._fit
        index = {ext: k for k, ext in enumerate(alive)}
        rows = [
            (index[s], index[t], value)
            for (s, t), (value, _) in self._latest.items()
            if s in index and t in index
        ]
        if not rows or len(alive) < 2:
            fit = {ext: self.prior_bw for ext in alive}
        else:
            sources, targets, values = zip(*rows)
            est = _fit_lastmile(
                sources, targets, values, len(alive),
                quantile=self.quantile, unmeasured="median",
            )
            b_out, caps = est.b_out.tolist(), est.out_quantile
            fit = {}
            for ext, k in index.items():
                value = b_out[k]
                cap = caps.get(k)
                if cap is not None:
                    value = min(value, cap)
                fit[ext] = value
            self.fits += 1
        self._fit = fit
        self._fit_alive = alive
        self._dirty = False
        return fit


#: Probe endpoints: the six seeded receivers, the source, ids that join
#: later and ids that never exist, so some rows never enter a fit.
_store_ids = st.integers(min_value=0, max_value=9)
#: Probe values with ties and zeros; no -0.0, which compares equal to
#: 0.0 but whose place among ties would depend on row order.
_store_values = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 4.0]),
    st.floats(min_value=0.0, max_value=50.0),
)
_store_rows = st.lists(
    st.tuples(_store_ids, _store_ids, _store_values), max_size=10
)


class StoreMachine(RuleBasedStateMachine):
    """The columnar :class:`OnlineEstimator` against :class:`_DictEstimator`:
    after every step both hold as many pairs, hand out the same
    estimates to the last bit and have run as many fits."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(17)
        self.platform = DynamicPlatform.from_instance(
            random_instance(rng, 6, 0.5, "Unif100")
        )
        self.live = self.frozen = None

    @initialize(
        decay=st.sampled_from([0.5, 0.8, 1.0]),
        quantile=st.sampled_from([0.0, 0.3, 0.5, 0.85, 1.0]),
    )
    def start(self, decay, quantile):
        self.live = OnlineEstimator(decay=decay, quantile=quantile)
        self.frozen = _DictEstimator(decay=decay, quantile=quantile)

    @rule(rows=_store_rows)
    def ingest(self, rows):
        """Pairs repeat within and across rounds; empty rounds too."""
        self.live.ingest(_round(*rows))
        self.frozen.ingest(_round(*rows))

    @rule(
        rows=_store_rows,
        bad=st.sampled_from([float("nan"), float("inf"), -1.0]),
        at=st.integers(min_value=0, max_value=10),
    )
    def ingest_invalid(self, rows, bad, at):
        rows.insert(at, (1, 2, bad))
        for est in (self.live, self.frozen):
            with pytest.raises(ValueError, match="finite"):
                est.ingest(_round(*rows))

    @rule(node=_store_ids)
    def leave_purge(self, node):
        for est in (self.live, self.frozen):
            est.apply_events([NodeLeave(time=0, node_id=node)])

    @rule(node=_store_ids)
    def drift_purge(self, node):
        for est in (self.live, self.frozen):
            est.apply_events([
                BandwidthDrift(time=0, node_id=node, bandwidth=3.0)
            ])

    @rule(node=_store_ids)
    def roster_change(self, node):
        """A peer leaves or (re)joins the roster, unknown to the store."""
        if node == 0:
            return
        if self.platform.is_alive(node):
            self.platform.apply(NodeLeave(time=0, node_id=node))
        else:
            self.platform.apply(
                NodeJoin(time=0, bandwidth=5.0, node_id=node)
            )

    @invariant()
    def same_store(self):
        if self.live is None:
            return
        assert len(self.live) == len(self.frozen)
        live = self.live.estimates(self.platform)
        frozen = self.frozen.estimates(self.platform)
        assert [(k, v.hex()) for k, v in live.items()] == [
            (k, v.hex()) for k, v in frozen.items()
        ]
        assert self.live.fits == self.frozen.fits


TestStoreEquivalence = StoreMachine.TestCase
TestStoreEquivalence.settings = settings(
    max_examples=max(100, settings.default.max_examples),
    stateful_step_count=20,
)


def _layer_rounds():
    """Twenty rounds of all 182 ordered pairs of 14 peers: 3640 probes,
    enough that every certified layer index occurs on the first-try
    path and layers 1 and 2 and over-bound draws fall back."""
    pairs = [(s, t) for s in range(1, 15) for t in range(1, 15) if s != t]
    sources = [s for s, _ in pairs]
    targets = [t for _, t in pairs]
    return [(301, r, sources, targets) for r in range(20)]


class TestZigguratReplay:
    """``pair_noises`` replays numpy's ziggurat where :func:`_ziggurat`
    certified the first try, and lets numpy draw everything else."""

    def _expected(self):
        return [
            [pair_noise(seed, s, t, 0.3, r).hex() for s, t in zip(src, dst)]
            for seed, r, src, dst in _layer_rounds()
        ]

    def _noises(self):
        return [
            [v.hex() for v in pair_noises(seed, r, src, dst, 0.3).tolist()]
            for seed, r, src, dst in _layer_rounds()
        ]

    def test_every_layer_and_the_fallback_match(self):
        bound = measurements._ziggurat()[1]
        fast, slow = set(), 0
        for seed, r, src, dst in _layer_rounds():
            states = measurements._stream_states(
                seed, r, np.array(src), np.array(dst)
            )
            word = measurements._first_outputs(states)
            idx = (word & np.uint64(255)).astype(int)
            rabs = (word >> np.uint64(9)) & np.uint64((1 << 52) - 1)
            first = rabs < bound[idx]
            fast.update(idx[first].tolist())
            slow += int((~first).sum())
            assert set(idx.tolist()) <= set(range(256))
        assert fast == set(np.nonzero(bound)[0].tolist())
        assert len(fast) == 254 and slow > 0
        assert self._noises() == self._expected()

    def test_fallback_alone_matches(self, monkeypatch):
        wi, bound = measurements._ziggurat()
        monkeypatch.setattr(
            measurements, "_ziggurat", lambda: (wi, np.zeros_like(bound))
        )
        assert self._noises() == self._expected()

    def test_every_derivation_draw_consumed_one_output(self):
        """Replays each certified layer's two derivation words through a
        fresh generator: each returns ``rabs * wi`` and leaves the
        generator exactly one step on (``inc = 1``: the state is the
        word itself)."""
        wi, bound = measurements._ziggurat()
        mult_inv = pow(measurements._PCG_MULT, -1, 1 << 128)
        certified = np.nonzero(bound)[0].tolist()
        assert 1 not in certified and 2 not in certified
        for idx in certified:
            for rabs in (1, int(bound[idx]) - 1):
                word = idx | rabs << 9
                bitgen = np.random.PCG64(0)
                state = bitgen.state
                state["state"] = {
                    "state": (word - 1) * mult_inv % (1 << 128), "inc": 1,
                }
                state["has_uint32"] = 0
                bitgen.state = state
                value = np.random.Generator(bitgen).standard_normal()
                assert bitgen.state["state"]["state"] == word
                assert value == float(rabs) * wi[idx]
