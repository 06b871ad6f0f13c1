"""Tests for the analysis extensions (metrics, depth packing, churn)."""

import pytest
from hypothesis import given

from repro import (
    BroadcastScheme,
    Instance,
    acyclic_guarded_scheme,
    figure1_instance,
    optimal_acyclic_throughput,
    scheme_from_word,
    scheme_throughput,
)
from repro.analysis import (
    churn_experiment,
    compare_stats,
    depth_ablation,
    depth_aware_scheme_from_word,
    scheme_depths,
    scheme_stats,
)

from .conftest import instances


class TestSchemeDepths:
    def test_chain_depths(self):
        s = BroadcastScheme.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert scheme_depths(s) == [0, 1, 2]

    def test_longest_path_not_shortest(self):
        s = BroadcastScheme.from_edges(
            3, [(0, 1, 1.0), (0, 2, 0.5), (1, 2, 0.5)]
        )
        assert scheme_depths(s)[2] == 2  # via node 1

    def test_unreachable_marked(self):
        s = BroadcastScheme.from_edges(3, [(0, 1, 1.0)])
        assert scheme_depths(s)[2] == -1

    def test_cyclic_rejected(self):
        s = BroadcastScheme.from_edges(
            3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)]
        )
        with pytest.raises(ValueError):
            scheme_depths(s)


class TestSchemeStats:
    def test_fig1_stats(self):
        inst = figure1_instance()
        sol = acyclic_guarded_scheme(inst)
        stats = scheme_stats(inst, sol.scheme, sol.throughput)
        assert stats.num_edges == sol.scheme.num_edges
        assert stats.throughput == sol.throughput
        assert stats.max_degree_excess <= 3
        assert stats.max_depth is not None and stats.max_depth >= 1
        assert 0 < stats.bandwidth_utilization <= 1.0

    def test_cyclic_scheme_has_no_depth(self):
        inst = Instance.open_only(5.0, (1.0, 1.0))
        from repro import cyclic_open_scheme

        scheme = cyclic_open_scheme(inst)
        stats = scheme_stats(inst, scheme)
        assert stats.max_depth is None

    def test_compare_stats_renders(self):
        inst = figure1_instance()
        sol = acyclic_guarded_scheme(inst)
        out = compare_stats(inst, {"paper": sol.scheme})
        assert "paper" in out and "max depth" in out


class TestDepthAwarePacking:
    def test_same_throughput_as_fifo(self):
        inst = figure1_instance()
        t, word = optimal_acyclic_throughput(inst)
        target = t * (1 - 1e-9)
        aware = depth_aware_scheme_from_word(inst, word, target)
        aware.validate(inst, require_acyclic=True)
        assert scheme_throughput(aware, inst) == pytest.approx(
            target, rel=1e-6
        )

    def test_never_deeper_at_slack_rates(self):
        """With slack the min-depth draw can only match or improve the
        FIFO depth on these seeds (not a theorem; a regression guard)."""
        rows = depth_ablation(sizes=(20, 60), rate_fractions=(0.9, 0.75))
        for r in rows:
            assert r.depth_aware_max_depth <= r.fifo_max_depth + 1

    def test_rate_backoff_reduces_depth(self):
        rows = depth_ablation(sizes=(60,), rate_fractions=(1.0, 0.75))
        by_frac = {r.rate_fraction: r for r in rows}
        assert (
            by_frac[0.75].fifo_max_depth < by_frac[1.0].fifo_max_depth
        )

    def test_invalid_word_raises(self):
        from repro import InfeasibleThroughputError

        inst = figure1_instance()
        with pytest.raises(InfeasibleThroughputError):
            depth_aware_scheme_from_word(inst, "gggoo", 4.0)

    @given(instances(max_open=5, max_guarded=5, min_receivers=1))
    def test_matches_fifo_rate_on_random_instances(self, inst):
        t, word = optimal_acyclic_throughput(inst)
        if t <= 0 or t == float("inf"):
            return
        target = t * (1 - 1e-9)
        fifo = scheme_from_word(inst, word, target)
        aware = depth_aware_scheme_from_word(inst, word, target)
        aware.validate(inst, require_acyclic=True)
        assert scheme_throughput(aware, inst) == pytest.approx(
            scheme_throughput(fifo, inst), rel=1e-6
        )


class TestChurn:
    @pytest.fixture(scope="class")
    def report(self):
        return churn_experiment(size=25, slots=160, seed=23)

    @pytest.mark.parametrize(
        "keyword, value", (("sim_backend", "reference"), ("warm_epochs", 1))
    )
    def test_deleted_transport_keywords_rejected(self, keyword, value):
        """The churn run always uses the runtime's default transport."""
        with pytest.raises(TypeError, match=keyword):
            churn_experiment(size=25, slots=160, seed=23, **{keyword: value})

    def test_healthy_run_near_planned_rate(self, report):
        assert report.healthy_min_goodput > 0.8 * report.planned_rate

    def test_churn_collapses_someone(self, report):
        """Failing the busiest relay must hurt at least one survivor."""
        assert report.churn_min_goodput < report.healthy_min_goodput
        assert report.starved_nodes >= 1

    def test_static_repair_restores_most_throughput(self, report):
        assert report.repair_ratio > 0.7

    def test_repaired_rate_is_surviving_optimum(self, report):
        assert report.repaired_rate <= report.planned_rate * 1.001

    def test_failure_validation(self):
        from repro import simulate_packet_broadcast

        inst = figure1_instance()
        scheme = acyclic_guarded_scheme(inst).scheme
        with pytest.raises(ValueError):
            simulate_packet_broadcast(
                inst, scheme, 1.0, failures={0: 10}
            )  # the source cannot fail
        with pytest.raises(ValueError):
            simulate_packet_broadcast(
                inst, scheme, 1.0, failures={1: -1}
            )

    def test_failed_node_stops_receiving(self):
        from repro import simulate_packet_broadcast

        inst = figure1_instance()
        sol = acyclic_guarded_scheme(inst)
        res_fail = simulate_packet_broadcast(
            inst, sol.scheme, sol.throughput * 0.99,
            slots=200, seed=1, failures={3: 0},
        )
        assert res_fail.received[3] == 0
