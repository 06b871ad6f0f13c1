"""Tests for the broadcast-tree decomposition substrate.

:func:`decompose_broadcast_trees` wraps the array greedy
(:func:`decompose_broadcast_arrays`); :func:`_reference_decompose` keeps
the scalar dict-based greedy it replaced as an oracle, and
:class:`TestReferenceOracle` pins the wrapper to it bit for bit — same
weights and parents, or both raising :class:`DecompositionError` — on
per-node schemes, zero-rate and dust-rate schemes, and cyclic,
unequal-in-rate and orphaned-receiver variants of them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    BroadcastScheme,
    DecompositionError,
    InfeasibleThroughputError,
    Instance,
    acyclic_guarded_scheme,
    acyclic_open_scheme,
    decompose_broadcast_trees,
    is_valid_word,
    scheme_from_word,
    verify_decomposition,
)
from repro.analysis import clip_to_capacities
from repro.core.throughput import maxflow_throughput
from repro.flows.arborescence import (
    _REL_EPS,
    BroadcastTree,
    _equal_in_rate_tol,
    _stranded_slack,
    common_in_rate,
    level_in_rates,
)
from repro.simulation.backends.sharded import ShardedBackend
from repro.simulation.core import SimConfig

from .conftest import instances, open_instances


def _reference_decompose(scheme):
    """The scalar greedy extraction, one dict of residual in-edge lists
    per receiver: per round each receiver picks its first largest
    residual above ``tol``, the round weight is the minimum pick."""
    num = scheme.num_nodes
    if num == 1:
        return []
    if not scheme.is_acyclic():
        raise DecompositionError(
            "greedy tree decomposition requires an acyclic scheme"
        )
    in_rates = scheme.in_rates()
    receivers = list(range(1, num))
    total = in_rates[receivers[0]]
    tol = _REL_EPS * max(1.0, total)
    for v in receivers:
        if abs(in_rates[v] - total) > tol:
            raise DecompositionError(f"receiver {v} in-rate != scheme rate")
    if total <= tol:
        return []

    residual = {v: [] for v in receivers}
    for i, j, rate in scheme.edges():
        residual[j].append([i, rate])

    trees = []
    remaining = total
    for _ in range(scheme.num_edges + 1):
        if remaining <= tol:
            break
        parent = [-1] * num
        weight = remaining
        chosen = []
        stranded = False
        for v in receivers:
            best = None
            for entry in residual[v]:
                if entry[1] > tol and (best is None or entry[1] > best[1]):
                    best = entry
            if best is None:
                if remaining <= _stranded_slack(
                    total, len(residual[v]) + len(trees)
                ):
                    stranded = True
                    break
                raise DecompositionError(f"receiver {v} ran out")
            parent[v] = best[0]
            chosen.append(best)
            if best[1] < weight:
                weight = best[1]
        if stranded:
            break
        for entry in chosen:
            entry[1] -= weight
        trees.append(BroadcastTree(weight, tuple(parent)))
        remaining -= weight
    else:
        raise DecompositionError("round cap exceeded without converging")
    return trees


class TestBasics:
    def test_single_chain(self):
        s = BroadcastScheme.from_edges(3, [(0, 1, 2.0), (1, 2, 2.0)])
        trees = decompose_broadcast_trees(s)
        verify_decomposition(s, trees, 2.0)
        assert len(trees) == 1
        assert trees[0].parent == (-1, 0, 1)
        assert trees[0].weight == pytest.approx(2.0)

    def test_two_parallel_trees(self):
        s = BroadcastScheme.from_edges(
            3,
            [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 1, 0.0)],
        )
        # node1 in-rate 1, node2 in-rate 2 -> unequal: must raise
        with pytest.raises(DecompositionError):
            decompose_broadcast_trees(s)

    def test_diamond_equal_rates(self):
        s = BroadcastScheme.from_edges(
            4,
            [
                (0, 1, 2.0),
                (0, 2, 1.0),
                (1, 2, 1.0),
                (1, 3, 1.0),
                (2, 3, 1.0),
            ],
        )
        trees = decompose_broadcast_trees(s)
        verify_decomposition(s, trees, 2.0)

    def test_cyclic_scheme_rejected(self):
        s = BroadcastScheme.from_edges(
            3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)]
        )
        with pytest.raises(DecompositionError, match="acyclic"):
            decompose_broadcast_trees(s)

    def test_empty_scheme(self):
        assert decompose_broadcast_trees(BroadcastScheme(1)) == []
        assert decompose_broadcast_trees(BroadcastScheme(3)) == []

    def test_tree_depths(self):
        s = BroadcastScheme.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        tree = decompose_broadcast_trees(s)[0]
        assert tree.depth(0) == 0
        assert tree.depth(2) == 2
        assert tree.max_depth() == 2
        assert tree.edges() == [(0, 1), (1, 2)]


class TestVerifier:
    def test_detects_wrong_total(self):
        s = BroadcastScheme.from_edges(2, [(0, 1, 1.0)])
        trees = decompose_broadcast_trees(s)
        with pytest.raises(DecompositionError, match="sum"):
            verify_decomposition(s, trees, 2.0)

    def test_detects_overused_edge(self):
        from repro.flows.arborescence import BroadcastTree

        s = BroadcastScheme.from_edges(2, [(0, 1, 1.0)])
        trees = [BroadcastTree(2.0, (-1, 0))]
        with pytest.raises(DecompositionError):
            verify_decomposition(s, trees, 2.0)

    def test_detects_disconnected_tree(self):
        from repro.flows.arborescence import BroadcastTree

        s = BroadcastScheme.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        bad = [BroadcastTree(1.0, (-1, 0, -1))]  # node 2 parentless
        with pytest.raises(DecompositionError, match="connected"):
            verify_decomposition(s, bad, 1.0)


class TestOnConstructedSchemes:
    """Every scheme our algorithms build decomposes exactly."""

    @given(open_instances(max_open=8))
    def test_algorithm1_schemes_decompose(self, inst):
        from repro import acyclic_open_optimum

        t = acyclic_open_optimum(inst)
        if t <= 0:
            return
        scheme = acyclic_open_scheme(inst)
        trees = decompose_broadcast_trees(scheme)
        verify_decomposition(scheme, trees, t, rel_tol=1e-6)

    @given(instances(max_open=6, max_guarded=6, min_receivers=1))
    def test_word_packing_schemes_decompose(self, inst):
        sol = acyclic_guarded_scheme(inst)
        if sol.throughput <= 0 or sol.throughput == float("inf"):
            return
        trees = decompose_broadcast_trees(sol.scheme)
        verify_decomposition(sol.scheme, trees, sol.throughput, rel_tol=1e-6)

    def test_number_of_trees_bounded_by_edges(self):
        inst = Instance.open_only(10.0, (6.0, 5.0, 3.0, 1.0))
        scheme = acyclic_open_scheme(inst)
        trees = decompose_broadcast_trees(scheme)
        assert len(trees) <= scheme.num_edges


def _word_rate(inst, word):
    """The largest rate (to bisection precision) ``word`` is valid for."""
    lo, hi = 0.0, inst.source_bw
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if is_valid_word(inst, word, mid):
            lo = mid
        else:
            hi = mid
    return lo


def _fan_in_scheme(rates):
    """Node 1 fed by one relay per rate, each relay fed by the source at
    the (edge-order) sum of the rates."""
    total = 0.0
    for r in rates:
        total += r
    relays = range(2, len(rates) + 2)
    return BroadcastScheme.from_edges(
        len(rates) + 2,
        [(0, v, total) for v in relays]
        + [(v, 1, r) for v, r in zip(relays, rates)],
    )


def _packed_scheme(draw):
    """A Lemma 4.6 packing at full, zero or dust rate (n = 2..81)."""
    inst = draw(instances(max_open=40, max_guarded=40, min_receivers=1))
    if draw(st.booleans()):
        sol = acyclic_guarded_scheme(inst)
        word, rate = sol.word, sol.throughput
    else:
        word = "".join(draw(st.permutations("o" * inst.n + "g" * inst.m)))
        rate = _word_rate(inst, word) * draw(st.floats(0.05, 1.0))
    scale = draw(st.sampled_from(("full", "zero", "dust")))
    if scale == "zero":
        rate = 0.0
    elif scale == "dust":
        rate = draw(st.floats(min_value=1e-10, max_value=1e-6))
    try:
        return scheme_from_word(inst, word, rate)
    except InfeasibleThroughputError:
        return BroadcastScheme(inst.num_nodes)


@st.composite
def decomposition_inputs(draw):
    """A per-node scheme, possibly broken on purpose."""
    if draw(st.integers(0, 7)) == 0:
        rates = st.floats(min_value=0.01, max_value=10.0)
        packed = _fan_in_scheme(draw(st.lists(rates, min_size=1, max_size=20)))
    else:
        packed = _packed_scheme(draw)
    num = packed.num_nodes
    # Relabel the receivers so any node (node 1 sets the scheme rate)
    # can carry any in-degree, and edge order varies.
    label = [0] + list(range(1, num))
    if draw(st.booleans()):
        label[1:] = draw(st.permutations(label[1:]))
    scheme = BroadcastScheme.from_edges(
        num, [(label[i], label[j], r) for i, j, r in packed.edges()]
    )
    edges = list(scheme.edges())
    mutation = draw(
        st.sampled_from((None, None, "cyclic", "unequal", "orphan"))
    )
    if mutation == "cyclic" and num >= 3:
        relays = [(i, j, r) for i, j, r in edges if i != 0]
        if relays:
            i, j, r = draw(st.sampled_from(relays))
            scheme.add_rate(j, i, r * draw(st.floats(0.01, 1.0)))
        else:
            scheme.add_rate(1, 2, 1.0)
            scheme.add_rate(2, 1, 1.0)
    elif mutation == "unequal" and edges:
        i, j, r = draw(st.sampled_from(edges))
        scheme.add_rate(i, j, r * draw(st.floats(-0.9, 1.0)))
    elif mutation == "orphan":
        v = draw(st.integers(1, num - 1))
        for i, j, _ in edges:
            if j == v:
                scheme.set_rate(i, j, 0.0)
    return scheme


def _outcome(decompose, scheme):
    try:
        trees = decompose(scheme)
    except DecompositionError:
        return "raises"
    return [(float(t.weight).hex(), tuple(t.parent)) for t in trees]


class TestReferenceOracle:
    @settings(max_examples=max(500, settings.default.max_examples))
    @given(decomposition_inputs())
    def test_matches_reference_decomposition(self, scheme):
        assert _outcome(decompose_broadcast_trees, scheme) == _outcome(
            _reference_decompose, scheme
        )

    @pytest.mark.parametrize("fan_in", (8, 18, 19, 24))
    def test_wide_receivers_sum_in_edge_order(self, fan_in):
        """Node 1 (whose in-rate is the scheme rate) fed by 8+ relays:
        the array path must add its in-edges in edge order, as
        ``in_rates()`` does, not pairwise."""
        rng = np.random.default_rng(fan_in)
        scheme = _fan_in_scheme((rng.random(fan_in) * 10).tolist())
        trees = _outcome(decompose_broadcast_trees, scheme)
        assert trees != "raises"
        assert trees == _outcome(_reference_decompose, scheme)


@st.composite
def clipped_inputs(draw):
    """A (possibly broken) scheme with some senders' rates clipped into
    a capacity below their out-rate, as online estimation's transport
    does with overestimated uplinks."""
    scheme = draw(decomposition_inputs())
    caps = [
        scheme.out_rate(i) * draw(st.sampled_from((1.0, 1.0, 0.5, 0.9, 0.0)))
        for i in range(scheme.num_nodes)
    ]
    return clip_to_capacities(scheme, caps)


def _sharded_refuses(scheme):
    try:
        ShardedBackend(SimConfig(scheme=scheme, rate=1.0), 0)
    except DecompositionError:
        return True
    return False


class TestShardedInRateRule:
    """The sharded transport runs the greedy's own equal-in-rate rule
    before its memo lookup, so it refuses exactly what
    :func:`decompose_broadcast_trees` refuses."""

    @settings(max_examples=max(300, settings.default.max_examples))
    @given(st.one_of(decomposition_inputs(), clipped_inputs()))
    def test_refuses_exactly_what_the_greedy_refuses(self, scheme):
        greedy = _outcome(decompose_broadcast_trees, scheme) == "raises"
        assert _sharded_refuses(scheme) == greedy

    def test_refuses_clearly_unequal_in_rates(self):
        s = BroadcastScheme.from_edges(
            3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]
        )
        assert _sharded_refuses(s)
        assert _outcome(decompose_broadcast_trees, s) == "raises"

    @pytest.mark.parametrize("tolerances, refused", ((0.5, False), (1.5, True)))
    def test_borderline_in_rates_meet_one_tolerance(self, tolerances, refused):
        """An in-rate half or one and a half equality tolerances off:
        both paths draw the line at the same place."""
        gap = tolerances * _equal_in_rate_tol(3, 1.0)
        s = BroadcastScheme.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0 + gap)])
        assert _sharded_refuses(s) == refused
        assert (_outcome(decompose_broadcast_trees, s) == "raises") == refused

    def test_source_and_edgeless_schemes_pass(self):
        assert not _sharded_refuses(BroadcastScheme(1))
        assert not _sharded_refuses(BroadcastScheme(4))


@st.composite
def clipped_packed_overlays(draw):
    """A packed (acyclic, equal-in-rate) overlay with every sender
    clipped into a random true capacity, as online estimation's
    transport clips a plan built on estimated uplinks: some capacities
    are 0 (a free-rider the estimator overrated), some cut the sender's
    out-rate, some leave it alone."""
    inst = draw(instances(
        max_open=6, max_guarded=6, min_receivers=1, positive=True
    ))
    scheme = acyclic_guarded_scheme(inst).scheme
    num = scheme.num_nodes
    factors = st.one_of(st.just(1.0), st.floats(0.01, 1.5))
    caps = [scheme.out_rate(i) * draw(factors) for i in range(num)]
    for i in draw(st.lists(st.integers(0, num - 1), max_size=2)):
        caps[i] = 0.0
    return clip_to_capacities(scheme, caps)


def _leveled(clipped):
    src, dst, rate = clipped.edge_arrays()
    leveled, r = level_in_rates(clipped.num_nodes, dst, rate)
    return src, dst, rate, leveled, r


class TestLeveling:
    """:func:`level_in_rates` turns a truth-clipped DAG into an
    equal-in-rate DAG at its worst receiver's max-flow."""

    @settings(max_examples=max(200, settings.default.max_examples))
    @given(clipped_packed_overlays())
    def test_leveled_scheme_decomposes_at_the_max_flow(self, clipped):
        src, dst, rate, leveled, r = _leveled(clipped)
        num = clipped.num_nodes
        # No edge grows: each is scaled by r / in_rate <= 1.
        assert (leveled <= rate).all()
        # The fact leveling rests on: on a DAG the smallest in-rate is
        # the smallest receiver max-flow.
        assert clipped.is_acyclic()
        flow = maxflow_throughput(clipped)
        assert r == pytest.approx(flow, rel=1e-9, abs=1e-9)
        in_rates = np.bincount(dst, weights=leveled, minlength=num)[1:]
        if r == 0.0:
            assert not leveled.any()
            return
        assert common_in_rate(in_rates) == pytest.approx(r, rel=1e-12)
        scheme = BroadcastScheme.from_edges(
            num, list(zip(src.tolist(), dst.tolist(), leveled.tolist()))
        )
        assert scheme.is_acyclic()
        trees = decompose_broadcast_trees(scheme)
        verify_decomposition(scheme, trees, r)

    def test_a_starved_receiver_levels_to_zero(self):
        """Node 2's only feeder has true capacity 0: its in-rate, the
        worst max-flow and ``r`` are all 0, and nothing is left."""
        s = BroadcastScheme.from_edges(
            3, [(0, 1, 2.0), (1, 2, 2.0)]
        )
        clipped = clip_to_capacities(s, [2.0, 0.0, 0.0])
        src, dst, rate, leveled, r = _leveled(clipped)
        assert r == 0.0 == maxflow_throughput(clipped)
        assert leveled.size == 1 and not leveled.any()

    def test_min_receiver_keeps_its_edges(self):
        """Receiver 2 ingests the least (1.0): its edges stay bit for
        bit, receiver 1's shrink to sum 1.0."""
        s = BroadcastScheme.from_edges(
            3, [(0, 1, 3.0), (0, 2, 0.5), (1, 2, 3.0)]
        )
        clipped = clip_to_capacities(s, [3.5, 0.5, 0.0])
        src, dst, rate, leveled, r = _leveled(clipped)
        assert r == 1.0
        assert dict(zip(zip(src.tolist(), dst.tolist()), leveled.tolist())) == {
            (0, 1): 1.0, (0, 2): 0.5, (1, 2): 0.5,
        }

    def test_no_receivers(self):
        leveled, r = level_in_rates(1, np.zeros(0, np.int64), np.zeros(0))
        assert r == 0.0 and leveled.size == 0
