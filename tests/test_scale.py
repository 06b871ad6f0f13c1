"""Tests for the scale pipeline and the engine's scale knobs.

Covers the array-native greedy tree extraction (bit-identical to the
scalar dict-based greedy kept as a test oracle), the :class:`ShardFleet`
transport (dust truncation accounting, an empty fleet's per-node
zeros), :func:`measure_scale` reports, the
saturated-swarm repair (an optimal plan has zero spare upload, so a
departure must fall back to a rebuild), and the engine-level
``phase_seconds`` wiring.

The shard's level-contiguous layout is pinned against
:class:`_ReferenceShard`, the tree-major gather/scatter shard it
replaced: counters, credits and deliveries match bit for bit on random
arborescence sets and on the n = 10k scale swarm (serially and on a
two-thread pool), and the BFS schedule's
invariants (one level per position, non-decreasing parents ahead of the
level, ``intp`` indices, unreachable receivers rejected) hold.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.acyclic_guarded import (
    acyclic_guarded_scheme,
    collapsed_scheme,
)
from repro.analysis import ScaleReport, build_fleet, measure_scale, peak_rss_kb
from repro.analysis.scale import PACKETS_PER_SLOT
from repro.core.runs import ClassRuns
from repro.flows.arborescence import decompose_broadcast_arrays
from repro.instances import class_runs, random_instance
from repro.planning import (
    ClassCollapsedPlanner,
    FullRebuildPlanner,
    IncrementalRepairPlanner,
)
from repro.runtime import (
    DynamicPlatform,
    IncrementalController,
    NodeLeave,
    RuntimeEngine,
)
from repro.simulation.backends import BURST_CAP, RATE_BACKOFF
from repro.simulation.backends.sharded import ShardFleet, _TreeShard

from .test_arborescence import _reference_decompose

SCALE_CLASSES = [("open", 150.0, 12), ("open", 50.0, 12), ("guarded", 100.0, 2)]


def _edge_arrays(scheme):
    edges = list(scheme.edges())
    return (
        np.array([i for i, _, _ in edges], dtype=np.int64),
        np.array([j for _, j, _ in edges], dtype=np.int64),
        np.array([r for _, _, r in edges], dtype=np.float64),
    )


class TestDecomposeArrays:
    @pytest.mark.parametrize("seed", (0, 3, 9))
    def test_bit_identical_to_dict_decomposition(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, 40, 0.5, "Unif100")
        sol = acyclic_guarded_scheme(inst)
        trees = _reference_decompose(sol.scheme)
        weights, parents = decompose_broadcast_arrays(
            sol.scheme.num_nodes, *_edge_arrays(sol.scheme)
        )
        assert [t.weight for t in trees] == weights.tolist()
        assert [list(t.parent) for t in trees] == parents.tolist()

    def test_collapsed_edge_arrays_decompose_cleanly(self):
        runs = class_runs(None, SCALE_CLASSES)
        from repro.algorithms.acyclic_guarded import collapsed_scheme

        sol = collapsed_scheme(runs)
        src, dst, rate = sol.scheme.edge_arrays()
        weights, parents = decompose_broadcast_arrays(
            runs.num_nodes, src, dst, rate
        )
        # Substream weights recompose the full broadcast rate...
        assert weights.sum() == pytest.approx(sol.throughput, rel=1e-9)
        # ... and every tree spans: each receiver has a parent.
        assert (parents[:, 0] == -1).all()
        assert (parents[:, 1:] >= 0).all()

    def test_rejects_edges_outside_the_receiver_range(self):
        from repro.core.exceptions import DecompositionError

        with pytest.raises(DecompositionError):
            decompose_broadcast_arrays(
                3,
                np.array([0], dtype=np.int64),
                np.array([0], dtype=np.int64),  # the source receives
                np.array([1.0]),
            )


class TestShardFleet:
    def _fleet(self, **kwargs):
        runs = class_runs(None, SCALE_CLASSES)
        return build_fleet(runs, **kwargs)

    def test_goodput_approaches_the_planned_rate(self):
        runs = class_runs(None, SCALE_CLASSES)
        fleet, rate, _ = build_fleet(runs)
        slots = 400
        fleet.run(slots)
        per_packet = rate / PACKETS_PER_SLOT  # bandwidth units per packet
        goodput = fleet.delivered()[1:] * per_packet / slots
        assert goodput.min() >= 0.95 * rate
        assert goodput.max() <= rate * (1 + 1e-9)

    @pytest.mark.parametrize("node", (0, -2, -1, 8, 100))
    def test_kill_rejects_the_source_and_out_of_range_ids(self, node):
        """Negative ids used to wrap around and dark another node's
        edges; the source id stalled the whole fleet."""
        runs = ClassRuns.from_classes(10.0, [("open", 5.0, 4), ("open", 2.0, 3)])
        fleet, _, _ = build_fleet(runs)
        reference, _, _ = build_fleet(runs)
        assert fleet.num == 8
        with pytest.raises(ValueError, match="cannot kill"):
            fleet.kill(node)
        for shard in fleet.shards:
            with pytest.raises(ValueError, match="cannot kill"):
                shard.kill(node)
            assert shard.alive.all()
        fleet.run(50)
        reference.run(50)
        assert fleet.delivered().tolist() == reference.delivered().tolist()
        assert fleet.delivered()[1:].min() > 0

    def test_one_runner_behind_both_paths(self):
        from repro import analysis

        assert analysis.ShardFleet is ShardFleet

    def test_thread_pool_needs_no_close(self):
        """``workers > 1`` is a per-``run()`` thread pool: nothing
        outlives a run, so a fleet has no ``close`` and no
        ``worker_mode``."""
        assert not hasattr(ShardFleet, "close")
        runs = class_runs(None, SCALE_CLASSES)
        with pytest.raises(TypeError, match="worker_mode"):
            build_fleet(runs, workers=2, worker_mode="process")

    @pytest.mark.parametrize("keyword", ("packets_per_slot", "burst_cap"))
    @pytest.mark.parametrize(
        "entry", (build_fleet, measure_scale), ids=("build_fleet", "measure_scale")
    )
    def test_deleted_scale_keywords_rejected(self, entry, keyword):
        """The scale path always cuts the stream into
        ``PACKETS_PER_SLOT`` packets and banks ``BURST_CAP`` credit."""
        runs = class_runs(None, SCALE_CLASSES)
        with pytest.raises(TypeError, match=keyword):
            entry(runs, **{keyword: 64.0})

    def test_empty_fleet_reports_every_node(self):
        """A zero-rate scheme decomposes into no trees; the fleet still
        reports one (zero) count per node."""
        fleet = ShardFleet(
            np.zeros(0), np.zeros((0, 5), dtype=np.int64), 5, 1.0, 1.0,
            workers=3,
        )
        assert fleet.shards == []
        fleet.run(10)
        fleet.kill(2)
        assert fleet.delivered().tolist() == [0] * 5

    def test_kill_starves_a_subtree(self):
        fleet, _, _ = self._fleet()
        fleet.run(50)
        fleet.kill(1)
        mark = fleet.delivered()[1]
        fleet.run(100)
        assert fleet.delivered()[1] == mark

    def test_dust_truncation_is_accounted(self):
        runs = class_runs(None, SCALE_CLASSES)
        _, rate, exact = build_fleet(runs)
        _, rate2, pruned = build_fleet(runs, min_tree_weight_frac=0.05)
        assert rate2 == rate  # the planned rate is never touched
        assert pruned["num_trees"] <= exact["num_trees"]
        total_dropped = pruned["dropped_rate"]
        assert 0.0 <= total_dropped <= 0.05 * rate * exact["num_trees"]
        if pruned["num_trees"] < exact["num_trees"]:
            assert total_dropped > 0.0


class TestMeasureScale:
    def test_report_shape_and_gates(self):
        runs = class_runs(None, SCALE_CLASSES)
        report = measure_scale(runs, slots=300)
        assert isinstance(report, ScaleReport)
        assert report.num_nodes == runs.num_nodes
        assert report.min_goodput >= 0.9 * (report.rate - report.dropped_rate)
        assert report.node_slots_per_sec > 0
        row = report.as_dict()
        for key in (
            "plan_seconds", "decompose_seconds", "build_seconds",
            "simulate_seconds", "total_seconds", "node_slots_per_sec",
            "min_goodput", "dropped_rate", "peak_rss_kb",
        ):
            assert key in row

    def test_peak_rss_is_positive(self):
        assert peak_rss_kb() > 0


class TestSaturatedRepair:
    def test_departure_from_saturated_swarm_falls_back(self, fig1):
        """Figure 1 is saturated (zero spare upload), so the incremental
        planner cannot absorb a departure in place and falls back to a
        rebuild."""
        result = RuntimeEngine(
            DynamicPlatform.from_instance(fig1),
            [NodeLeave(time=30, node_id=2)], 60, seed=5,
        ).run(IncrementalController())
        assert (result.repairs, result.repair_fallbacks) == (0, 1)


class TestEngineScaleKnobs:
    @pytest.mark.parametrize(
        "knob",
        [{"sim_worker_mode": "process"}, {"sim_workers": 2},
         {"plan_slack": 0.05}, {"estimator_warmstart": True}],
    )
    def test_deleted_engine_knobs_rejected(self, fig1, knob):
        """Per-epoch fleets are rebuilt every transport run, where
        neither threads nor forked workers beat the serial shards; plans
        are built at the exact ``T*_ac`` of the measured swarm, and every
        estimator starts from its flat prior."""
        platform = DynamicPlatform.from_instance(fig1)
        with pytest.raises(TypeError, match=next(iter(knob))):
            RuntimeEngine(platform, [], 60, **knob)

    @pytest.mark.parametrize(
        "planner",
        [FullRebuildPlanner, IncrementalRepairPlanner, ClassCollapsedPlanner],
    )
    def test_planners_take_no_slack(self, planner):
        with pytest.raises(TypeError):
            planner(slack=0.05)

    def test_phase_seconds_cover_the_run(self, fig1):
        result = RuntimeEngine(
            DynamicPlatform.from_instance(fig1), [], 120, seed=0
        ).run(IncrementalController())
        phases = result.phase_seconds
        assert set(phases) == {
            "plan", "arbitrate", "simulate", "epoch_boundary"
        }
        assert all(v >= 0.0 for v in phases.values())
        assert phases["simulate"] > 0.0


class _ReferenceShard:
    """The tree-major shard the level-contiguous layout replaced, kept
    as an oracle: pairs stored as flat ``k * num + v``, a per-depth
    ``take_along_axis`` schedule, and a gather/scatter slot loop."""

    def __init__(self, weights, parents, num, rate_fraction, ppu, burst_cap):
        K = len(weights)
        weights = np.asarray(weights, dtype=float)
        self.num, self.K = num, K
        self.parents = np.asarray(parents, dtype=np.int64).reshape(K, num)
        self.inj = weights * rate_fraction * ppu
        self.cap = np.repeat(weights * ppu, num - 1)
        self.burst_cap = burst_cap
        self.injected = np.zeros(K)
        self.recv = np.zeros(K * num, dtype=np.int64)
        self.credit = np.zeros(K * (num - 1))
        self.alive = np.ones(K * (num - 1), dtype=bool)
        self._src_idx = np.arange(K) * num
        self._levels = self._build_levels()

    def _build_levels(self):
        K, num, parents = self.K, self.num, self.parents
        depth = np.full((K, num), -1, dtype=np.int64)
        depth[:, 0] = 0
        parents_c = np.maximum(parents, 0)
        levels = []
        d = 0
        while (depth < 0).any():
            d += 1
            parent_depth = np.take_along_axis(depth, parents_c, axis=1)
            newly = (depth < 0) & (parents >= 0) & (parent_depth == d - 1)
            if not newly.any():
                raise ValueError("unreachable")
            depth[newly] = d
            k_idx, v_idx = np.nonzero(newly)
            levels.append(
                (
                    k_idx * num + v_idx,
                    k_idx * num + parents[k_idx, v_idx],
                    k_idx * (num - 1) + (v_idx - 1),
                )
            )
        return levels

    def run(self, num_slots):
        recv, credit, alive = self.recv, self.credit, self.alive
        cap, K, num = self.cap, self.K, self.num
        capb = cap + self.burst_cap
        tail = recv.reshape(K, num)[:, 1:]
        gained = np.empty_like(credit)
        floor = np.empty(credit.shape, dtype=np.int64)
        old = np.empty((K, num - 1), dtype=np.int64)
        moved = np.empty(credit.shape, dtype=np.int64)
        moved2 = moved.reshape(K, num - 1)
        any_dead = not alive.all()
        for _ in range(num_slots):
            self.injected += self.inj
            recv[self._src_idx] = self.injected.astype(np.int64)
            np.add(credit, cap, out=gained)
            np.minimum(gained, capb, out=gained)
            np.copyto(floor, gained, casting="unsafe")
            if any_dead:
                floor[~alive] = 0
            np.copyto(old, tail)
            for child, parent, edge in self._levels:
                t = recv[child] + floor[edge]
                np.minimum(t, recv[parent], out=t)
                recv[child] = t
            np.subtract(tail, old, out=moved2)
            if any_dead:
                np.copyto(credit, gained - moved, where=alive)
            else:
                np.subtract(gained, moved, out=credit, casting="unsafe")

    def kill(self, node):
        dark = np.zeros((self.K, self.num - 1), dtype=bool)
        dark[:, node - 1] = True
        dark |= self.parents[:, 1:] == node
        self.alive &= ~dark.ravel()

    def delivered(self):
        counts = self.recv.reshape(self.K, self.num).sum(axis=0)
        counts[0] = 0
        return counts


def _random_parents(rng, K, num, chain_bias):
    """K random arborescences rooted at 0: receivers join in a random
    order, each under the last joiner (probability ``chain_bias``, deep
    trees) or a uniformly drawn earlier one (bushy trees)."""
    parents = np.full((K, num), -1, dtype=np.int64)
    for k in range(K):
        placed = [0]
        for v in rng.permutation(np.arange(1, num)):
            if rng.random() < chain_bias:
                parents[k, v] = placed[-1]
            else:
                parents[k, v] = placed[int(rng.integers(len(placed)))]
            placed.append(int(v))
    return parents


@st.composite
def shard_cases(draw):
    K = draw(st.integers(min_value=1, max_value=6))
    num = draw(st.integers(min_value=2, max_value=60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parents = _random_parents(
        rng, K, num, draw(st.floats(min_value=0.0, max_value=1.0))
    )
    unit = st.floats(min_value=0.01, max_value=50.0)
    weights = draw(st.lists(unit, min_size=K, max_size=K))
    params = (
        draw(st.floats(min_value=0.05, max_value=1.0)),  # rate fraction
        draw(st.floats(min_value=0.1, max_value=8.0)),  # packets per unit
        draw(st.floats(min_value=0.0, max_value=8.0)),  # burst cap
    )
    # Run chunks, each followed by an optional kill.
    chunks = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=25),
                st.none() | st.integers(min_value=1, max_value=num - 1),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return weights, parents, num, params, chunks


def _tree_major(shard):
    """A shard's (recv, credit, alive) in the reference's flat order."""
    edges = shard._edges()
    return shard.recv[shard._perm], shard.credit[edges], shard.alive[edges]


class TestShardLayout:
    @settings(max_examples=max(500, settings.default.max_examples))
    @given(shard_cases())
    def test_matches_reference_layout(self, case):
        weights, parents, num, params, chunks = case
        shard = _TreeShard(weights, parents, num, *params)
        oracle = _ReferenceShard(weights, parents, num, *params)
        for slots, victim in chunks:
            shard.run(slots)
            oracle.run(slots)
            recv, credit, alive = _tree_major(shard)
            assert recv.tobytes() == oracle.recv.tobytes()
            assert credit.tobytes() == oracle.credit.tobytes()
            assert (alive == oracle.alive).all()
            assert shard.delivered().tobytes() == oracle.delivered().tobytes()
            if victim is not None:
                shard.kill(victim)
                oracle.kill(victim)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_scale_swarm_digest_matches_reference(self, workers):
        runs = class_runs(
            None,
            [("open", 150.0, 5_000), ("open", 50.0, 5_000), ("guarded", 100.0, 2)],
        )
        sol = collapsed_scheme(runs)
        weights, parents = decompose_broadcast_arrays(
            runs.num_nodes, *sol.scheme.edge_arrays()
        )
        ppu = PACKETS_PER_SLOT / (sol.throughput * RATE_BACKOFF)
        oracle = _ReferenceShard(
            weights, parents, runs.num_nodes, RATE_BACKOFF, ppu, BURST_CAP
        )
        fleet, _, _ = build_fleet(runs, workers=workers)
        for slots, victim in ((40, None), (24, 17), (16, None)):
            fleet.run(slots)
            oracle.run(slots)
            if victim is not None:
                fleet.kill(victim)
                oracle.kill(victim)
        got = hashlib.sha256(fleet.delivered().tobytes()).hexdigest()
        want = hashlib.sha256(oracle.delivered().tobytes()).hexdigest()
        assert got == want

    @settings(max_examples=200)
    @given(shard_cases())
    def test_schedule_invariants(self, case):
        weights, parents, num, params, _ = case
        shard = _TreeShard(weights, parents, num, *params)
        K = shard.K
        # ``_perm`` is a permutation with the sources first.
        assert sorted(shard._perm.tolist()) == list(range(K * num))
        assert shard._perm.reshape(K, num)[:, 0].tolist() == list(range(K))
        node_of = np.empty(K * num, dtype=np.int64)
        node_of[shard._perm] = np.tile(np.arange(num), K)
        covered = 0
        for a, b, par in shard._levels:
            # Every receiver position lies in exactly one level...
            assert a == covered and b > a
            covered = b
            # ... whose parents are intp, non-decreasing and ahead of it.
            assert par.dtype == np.intp and len(par) == b - a
            assert (np.diff(par) >= 0).all()
            assert par.max() < K + a
            # BFS order: parent position, then receiver id.
            kids = node_of[K + a:K + b]
            assert ((np.diff(par) > 0) | (np.diff(kids) > 0)).all()
            # A level's parents are exactly its pairs' tree parents.
            tree = shard._perm.argsort()[K + a:K + b] // num
            assert (node_of[par] == parents[tree, kids]).all()
        assert covered == K * (num - 1)

    @pytest.mark.parametrize(
        "parent_row",
        (
            [-1, 0, 3, 2],  # receivers 2 and 3 parent each other
            [-1, 0, 2, 1],  # receiver 2 is its own parent
            [-1, 0, -1, 2],  # receiver 2 (and its child 3) have none
            [-1, 0, 9, 1],  # an out-of-range parent
        ),
    )
    def test_unreachable_receivers_are_rejected(self, parent_row):
        good = [-1, 0, 0, 1]
        parents = np.array([good, parent_row], dtype=np.int64)
        with pytest.raises(ValueError, match="unreachable"):
            _TreeShard([1.0, 1.0], parents, 4, 1.0, 1.0, 4.0)
