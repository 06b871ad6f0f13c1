"""Tests for class-collapsed planning — the scale-wall seam.

Covers the run-length equivalence oracle (``optimal_acyclic_throughput_runs``
bit-identical in rate to the per-node dichotomic search across the
instance families and seeds), the collapsed Lemma 4.6 packing
(expanded plans satisfy bandwidth/firewall/DAG validation and deliver
the planned rate to every receiver), :class:`ClassRuns` round trips,
the class-aware generators, the lazily expanded scheme, and the
``collapsed`` planner: registry wiring, engine-rate equality with
``FullRebuildPlanner``, and O(changes) class-preserving swap repairs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.acyclic_guarded import (
    collapsed_scheme,
    optimal_acyclic_throughput,
    optimal_acyclic_throughput_runs,
)
from repro.core.bounds import cyclic_optimum
from repro.core.instance import Instance, NodeKind
from repro.core.runs import ClassRuns, LazyExpandedScheme
from repro.instances import (
    DISTRIBUTIONS,
    class_runs,
    random_class_runs,
    random_instance,
)
from repro.planning import (
    PLANNERS,
    ClassCollapsedPlanner,
    make_planner,
    planner_names,
)
from repro.runtime import (
    BandwidthDrift,
    DynamicPlatform,
    NodeJoin,
    NodeLeave,
    ReactiveController,
    RuntimeEngine,
)

FAMILIES = sorted(DISTRIBUTIONS)

#: One ``(bandwidth, multiplicity)`` run; zero counts are dropped by
#: normalization, so they exercise the empty-run path.
_run_specs = st.tuples(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.integers(min_value=0, max_value=40),
)
SEEDS = (0, 1, 7)


def _family_runs(family, seed, size=64, open_prob=0.6, num_classes=6):
    rng = np.random.default_rng(seed)
    return random_class_runs(
        rng, size, open_prob, family, num_classes=num_classes
    )


class TestRunsOracle:
    """The headline identity: run-length planning == per-node planning,
    bit for bit in the returned rate."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rate_bit_identical_on_class_structured_swarms(self, family, seed):
        runs = _family_runs(family, seed)
        collapsed_rate, _ = optimal_acyclic_throughput_runs(runs)
        per_node_rate, _ = optimal_acyclic_throughput(runs.to_instance())
        assert collapsed_rate == per_node_rate  # exact, not approx

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rate_bit_identical_on_all_distinct_bandwidths(self, family, seed):
        """Degenerate collapse: every node its own class (runs of
        multiplicity 1) must reproduce the scalar pipeline too."""
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, 40, 0.5, family)
        runs = ClassRuns.from_instance(inst)
        collapsed_rate, _ = optimal_acyclic_throughput_runs(runs)
        per_node_rate, _ = optimal_acyclic_throughput(inst)
        assert collapsed_rate == per_node_rate

    @pytest.mark.parametrize("seed", SEEDS)
    def test_segments_expand_to_the_greedy_word_length(self, seed):
        runs = _family_runs("Unif100", seed)
        _, segments = optimal_acyclic_throughput_runs(runs)
        assert sum(count for _, count in segments) == runs.num_receivers
        assert all(count > 0 for _, count in segments)


class TestCollapsedScheme:
    """The packed RunScheme, expanded, is a valid optimal plan."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_expanded_plan_validates_and_delivers_the_rate(self, family, seed):
        runs = _family_runs(family, seed, size=48)
        inst = runs.to_instance()
        sol = collapsed_scheme(runs)
        scheme = LazyExpandedScheme(sol.scheme)
        # Bandwidth caps, the guarded->guarded firewall, and acyclicity.
        scheme.validate(inst, require_acyclic=True)
        for v in inst.receivers():
            assert scheme.in_rate(v) == pytest.approx(
                sol.throughput, abs=1e-9 * max(1.0, sol.throughput)
            )

    def test_rate_matches_the_runs_oracle(self):
        runs = _family_runs("Unif100", 3)
        sol = collapsed_scheme(runs)
        rate, _ = optimal_acyclic_throughput_runs(runs)
        assert sol.throughput == rate

    def test_edge_arrays_match_the_expanded_adjacency(self):
        runs = _family_runs("Power1", 5, size=40)
        sol = collapsed_scheme(runs)
        src, dst, rate = sol.scheme.edge_arrays()
        from_arrays = sorted(zip(src.tolist(), dst.tolist(), rate.tolist()))
        expanded = sorted(LazyExpandedScheme(sol.scheme).edges())
        assert [(i, j) for i, j, _ in from_arrays] == [
            (i, j) for i, j, _ in expanded
        ]
        for (_, _, a), (_, _, b) in zip(from_arrays, expanded):
            assert a == pytest.approx(b, abs=1e-12)


class TestLazyExpandedScheme:
    def test_expansion_is_deferred_until_edges_are_walked(self):
        runs = class_runs(50.0, [("open", 60.0, 20), ("open", 40.0, 20)])
        scheme = LazyExpandedScheme(collapsed_scheme(runs).scheme)
        assert not scheme.is_expanded
        assert scheme.num_nodes == runs.num_nodes  # header stays lazy
        list(scheme.edges())
        assert scheme.is_expanded


class TestClassRuns:
    def test_round_trip_through_instance(self):
        runs = class_runs(
            100.0,
            [("open", 150.0, 5), ("guarded", 100.0, 3), ("open", 50.0, 4)],
        )
        back = ClassRuns.from_instance(runs.to_instance())
        assert back == runs

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cyclic_optimum_bit_identical_to_per_node_bound(self, seed):
        runs = _family_runs("LN1", seed)
        assert runs.cyclic_optimum() == cyclic_optimum(runs.to_instance())

    @settings(max_examples=300)
    @given(
        opens=st.lists(_run_specs, max_size=6),
        guardeds=st.lists(_run_specs, max_size=6),
    )
    def test_sums_match_the_per_value_generator(self, opens, guardeds):
        """``open_sum``/``guarded_sum`` expand runs at C speed; the sums
        stay bit-identical to a per-value Python generator and to the
        per-node :class:`Instance` (empty and zero-count runs included)."""

        def per_value(runs):
            for bw, count in runs:
                for _ in range(count):
                    yield bw

        runs = ClassRuns(7.0, tuple(opens), tuple(guardeds))
        inst = runs.to_instance()
        for got, run_list, per_node in (
            (runs.open_sum, runs.open_runs, inst.open_sum),
            (runs.guarded_sum, runs.guarded_runs, inst.guarded_sum),
        ):
            expected = math.fsum(per_value(run_list))
            assert got.hex() == expected.hex() == per_node.hex()

    def test_counts(self):
        runs = class_runs(10.0, [("open", 5.0, 7), ("guarded", 3.0, 2)])
        assert (runs.n, runs.m) == (7, 2)
        assert runs.num_nodes == 10
        assert runs.num_receivers == 9


class TestClassGenerators:
    def test_fixed_point_source_saturates(self):
        """source_bw=None solves b0 = T*(b0): the swarm is then
        source-limited and open-limited at once."""
        runs = class_runs(
            None, [("open", 150.0, 10), ("open", 50.0, 10), ("guarded", 100.0, 2)]
        )
        assert runs.source_bw == pytest.approx(runs.cyclic_optimum(), rel=1e-9)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_random_class_runs_shape(self, family):
        rng = np.random.default_rng(11)
        runs = random_class_runs(rng, 500, 0.5, family, num_classes=8)
        assert runs.num_receivers == 500
        assert runs.num_classes <= 8  # equal-bandwidth runs merge
        assert runs.n + runs.m == 500
        assert all(count >= 1 for _, count in runs.open_runs)
        assert all(count >= 1 for _, count in runs.guarded_runs)

    def test_random_class_runs_is_rng_deterministic(self):
        a = random_class_runs(np.random.default_rng(5), 200, 0.4, "Unif100")
        b = random_class_runs(np.random.default_rng(5), 200, 0.4, "Unif100")
        assert a == b

    def test_bad_arguments_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_class_runs(rng, 10, 1.5, "Unif100")
        with pytest.raises(ValueError):
            random_class_runs(rng, 10, 0.5, "Unif100", num_classes=0)
        with pytest.raises(ValueError):
            random_class_runs(rng, 3, 0.5, "Unif100", num_classes=8)


def _class_platform(seed=0, size=30):
    runs = random_class_runs(
        np.random.default_rng(seed), size, 0.6, "Unif100", num_classes=5
    )
    return DynamicPlatform.from_instance(runs.to_instance())


class TestClassCollapsedPlanner:
    def test_registered_by_name(self):
        assert "collapsed" in PLANNERS
        assert "collapsed" in planner_names()
        assert isinstance(make_planner("collapsed"), ClassCollapsedPlanner)

    def test_collapsed_solve_memoized_by_runs(self):
        """The collapsed memo is keyed on the class runs alone, so a
        rebuild of an unchanged swarm is a cache hit."""
        engine = RuntimeEngine(
            _class_platform(seed=3), [], 100, seed=0, planner="collapsed"
        )
        first = engine.build_plan()
        runs = ClassRuns.from_instance(first.instance)
        assert ("collapsed", runs) in engine.cache
        hits = engine.cache.hits
        second = engine.build_plan()
        assert engine.cache.hits == hits + 1
        assert engine.planner.builds == 2
        assert second.rate.hex() == first.rate.hex()

    @pytest.mark.parametrize("seed", (0, 4))
    def test_engine_rates_bit_identical_to_full_rebuild(self, seed):
        """Same platform, same churn: every epoch's planned rate must be
        the same float under both planners (build-path equivalence)."""
        events = [
            BandwidthDrift(time=40, node_id=3, bandwidth=17.0),
            NodeLeave(time=80, node_id=5),
        ]

        def run(planner):
            return RuntimeEngine(
                _class_platform(seed), list(events), 120,
                seed=seed, planner=planner,
            ).run(ReactiveController())

        full, collapsed = run("full"), run("collapsed")
        assert [e.planned_rate for e in collapsed.epochs] == [
            e.planned_rate for e in full.epochs
        ]
        assert [e.optimal_rate for e in collapsed.epochs] == [
            e.optimal_rate for e in full.epochs
        ]

    def test_swap_repair_relabels_without_replanning(self):
        platform = _class_platform(seed=2)
        engine = RuntimeEngine(platform, [], 100, seed=0, planner="collapsed")
        planner = engine.planner
        plan = engine.build_plan()
        engine.active_plan = plan
        victim = plan.node_ids[3]
        kind = plan.instance.kind(3)
        bandwidth = plan.instance.bandwidth(3)
        leave = NodeLeave(time=10, node_id=victim)
        join = NodeJoin(
            time=10, kind=kind, bandwidth=bandwidth, node_id=9999
        )
        platform.apply(leave)
        platform.apply(join)
        engine.now = 10
        outcome = planner.replan(engine, plan, (leave, join))
        assert outcome.op == "repair"
        assert planner.swaps == 1 and planner.builds == 1
        repaired = outcome.plan
        assert repaired.rate == plan.rate
        assert repaired.scheme is plan.scheme  # class structure unchanged
        assert repaired.node_ids[3] == 9999
        assert victim not in repaired.node_ids

    def test_class_changing_churn_falls_back_to_build(self):
        platform = _class_platform(seed=2)
        engine = RuntimeEngine(platform, [], 100, seed=0, planner="collapsed")
        planner = engine.planner
        plan = engine.build_plan()
        engine.active_plan = plan
        leave = NodeLeave(time=10, node_id=plan.node_ids[3])
        join = NodeJoin(  # bandwidth not matching any departing class
            time=10, kind=NodeKind.OPEN, bandwidth=123.456, node_id=9999
        )
        platform.apply(leave)
        platform.apply(join)
        engine.now = 10
        outcome = planner.replan(engine, plan, (leave, join))
        assert outcome.op == "build"
        assert planner.swaps == 0 and planner.builds == 2
