"""Tests for the Bedibe-style LastMile estimation substrate."""

import math
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import (
    EstimationError,
    LastMileGroundTruth,
    Measurement,
    estimate_lastmile,
    sample_measurements,
)
from repro.estimation.lastmile import _fit_lastmile


def _quantile(values, q):
    """``float(np.quantile(values, q))`` for a short list, bit for bit:
    the scalar oracle the array fit's per-node quantiles must match.

    numpy's default ``linear`` method: the virtual index ``(n - 1) * q``
    clamped to the last element, then numpy's two-sided interpolation
    (``a + d*g`` below the midpoint, ``b - d*(1-g)`` from it).
    """
    ordered = sorted(values)
    last = len(ordered) - 1
    index = last * q
    if index >= last:
        return ordered[-1]
    lo = int(index)
    gamma = index - lo
    a, b = ordered[lo], ordered[lo + 1]
    diff = b - a
    if gamma < 0.5:
        return a + diff * gamma
    return b - diff * (1 - gamma)


def _reference_fit(rows, num_nodes, *, iterations=6, quantile=0.85):
    """The per-node scalar alternating fit that ``_fit_lastmile`` runs
    on arrays: ``(b_out, b_in, out_quantile)`` in index space,
    unmeasured nodes left at 0.0 (imputation is not part of the
    oracle)."""
    out_obs = [[] for _ in range(num_nodes)]
    in_obs = [[] for _ in range(num_nodes)]
    for source, target, value in rows:
        out_obs[source].append((target, value))
        in_obs[target].append((source, value))
    out_values = [[v for _, v in obs] for obs in out_obs]
    in_values = [[v for _, v in obs] for obs in in_obs]
    out_quantile = {
        i: _quantile(values, quantile)
        for i, values in enumerate(out_values)
        if values
    }
    b_out = [out_quantile.get(i, 0.0) for i in range(num_nodes)]
    b_in = [
        _quantile(values, quantile) if values else math.inf
        for values in in_values
    ]
    for _ in range(iterations):
        new_out = list(b_out)
        for i, obs in enumerate(out_obs):
            if obs:
                unexplained = [v for j, v in obs if b_in[j] >= b_out[i]]
                new_out[i] = _quantile(unexplained or out_values[i], quantile)
        new_in = list(b_in)
        for j, obs in enumerate(in_obs):
            if obs:
                unexplained = [v for i, v in obs if new_out[i] >= b_in[j]]
                new_in[j] = _quantile(unexplained or in_values[j], quantile)
        b_out, b_in = new_out, new_in
    return b_out, b_in, out_quantile


@pytest.fixture
def truth():
    rng = np.random.default_rng(0)
    b_out = rng.uniform(5, 100, 30)
    return LastMileGroundTruth.symmetric(b_out, headroom=4.0)


class TestGroundTruth:
    def test_pair_bandwidth_is_min(self):
        t = LastMileGroundTruth((10.0, 50.0), (20.0, 30.0))
        assert t.pair_bandwidth(0, 1) == 10.0  # sender-limited
        assert t.pair_bandwidth(1, 0) == 20.0  # receiver-limited

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            LastMileGroundTruth((1.0,), (1.0, 2.0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LastMileGroundTruth((-1.0,), (1.0,))

    def test_symmetric_headroom(self):
        t = LastMileGroundTruth.symmetric((10.0, 20.0), headroom=3.0)
        assert t.b_in == (30.0, 60.0)


class TestMeasurements:
    def test_counts_and_ranges(self, truth):
        rng = np.random.default_rng(1)
        ms = sample_measurements(rng, truth, pairs_per_node=5)
        assert len(ms) == truth.num_nodes * 5
        for m in ms:
            assert m.source != m.target
            assert m.value > 0

    def test_noiseless_measurements_exact(self, truth):
        rng = np.random.default_rng(1)
        ms = sample_measurements(rng, truth, pairs_per_node=5, noise_sigma=0.0)
        for m in ms:
            assert m.value == pytest.approx(
                truth.pair_bandwidth(m.source, m.target)
            )

    def test_needs_two_nodes(self):
        t = LastMileGroundTruth((1.0,), (1.0,))
        with pytest.raises(ValueError):
            sample_measurements(np.random.default_rng(0), t)

    @pytest.mark.parametrize("rng", [np.random.default_rng(0), 0])
    @pytest.mark.parametrize("pairs", [-1, float("nan")])
    def test_negative_pairs_per_node_rejected(self, truth, rng, pairs):
        with pytest.raises(ValueError, match="pairs_per_node"):
            sample_measurements(rng, truth, pairs_per_node=pairs)

    def test_negative_seed_rejected(self, truth):
        """Same error as a ProbeScheduler's: the seed names itself."""
        with pytest.raises(ValueError, match="seed must be >= 0"):
            sample_measurements(-1, truth, pairs_per_node=2)


class TestEstimation:
    def test_noiseless_recovery_in_sender_limited_regime(self, truth):
        """With b_in >> b_out every pair is sender-limited, so b_out is
        exactly identifiable."""
        rng = np.random.default_rng(2)
        ms = sample_measurements(rng, truth, pairs_per_node=8, noise_sigma=0.0)
        est = estimate_lastmile(ms, truth.num_nodes)
        errors = est.relative_out_errors(truth.b_out)
        assert float(np.max(errors)) < 1e-9

    def test_noisy_recovery_reasonable(self, truth):
        rng = np.random.default_rng(2)
        ms = sample_measurements(rng, truth, pairs_per_node=10, noise_sigma=0.1)
        est = estimate_lastmile(ms, truth.num_nodes)
        errors = est.relative_out_errors(truth.b_out)
        assert float(np.median(errors)) < 0.15
        assert est.residual_rms_log < 0.3

    def test_empty_measurements_rejected(self):
        with pytest.raises(EstimationError):
            estimate_lastmile([], 3)

    def test_unmeasured_node_rejected(self):
        ms = [Measurement(0, 1, 5.0)]
        with pytest.raises(EstimationError, match="no outgoing"):
            estimate_lastmile(ms, 3)

    def test_out_of_range_measurement_rejected(self):
        with pytest.raises(EstimationError):
            estimate_lastmile([Measurement(0, 5, 1.0)], 3)

    def test_negative_measurement_rejected(self):
        with pytest.raises(EstimationError):
            estimate_lastmile(
                [Measurement(0, 1, -2.0), Measurement(1, 0, 1.0)], 2
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_measurement_rejected(self, bad):
        """A NaN or infinite probe must not leak into b_out / b_in (and
        from there into the planners) as a silent NaN."""
        with pytest.raises(EstimationError, match="non-finite"):
            estimate_lastmile(
                [Measurement(0, 1, bad), Measurement(1, 0, 1.0)], 2
            )

    def test_estimates_usable_for_instances(self, truth):
        """End of the pipeline: estimated b_out values feed Instance."""
        from repro import Instance

        rng = np.random.default_rng(4)
        ms = sample_measurements(rng, truth, pairs_per_node=8, noise_sigma=0.05)
        est = estimate_lastmile(ms, truth.num_nodes)
        inst = Instance(est.b_out[0], est.b_out[1:], ())
        assert inst.num_receivers == truth.num_nodes - 1

    def test_max_envelope_ratchet_regression(self):
        """A single noisy probe must not anchor its endpoints' fit.

        Historical bug: the max-of-observations initialisation let the
        largest noisy probe ``(i, j)`` seed both ``b_out_i`` and
        ``b_in_j``, so the pair stayed "unexplained by the other side"
        forever and the swarm's top uplink converged to its noisiest
        observation instead of its typical one.
        """
        truth = LastMileGroundTruth.symmetric((50.0,) * 12, headroom=4.0)
        rng = np.random.default_rng(7)
        ms = sample_measurements(rng, truth, pairs_per_node=8, noise_sigma=0.0)
        # One wild outlier on a single pair: +60% measurement spike.
        spiked = [Measurement(ms[0].source, ms[0].target, ms[0].value * 1.6)]
        spiked += ms[1:]
        est = estimate_lastmile(spiked, truth.num_nodes)
        errors = est.relative_out_errors(truth.b_out)
        assert float(np.max(errors)) < 0.10  # was ~0.6 under the ratchet


#: Non-negative floats across the whole range: 0, subnormals, huge
#: magnitudes, and a small pool that makes ties likely.
_sample_values = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=100.0),
    st.sampled_from([0.0, 5e-324, 1e-310, 1.0, 2.5, 1e300]),
)


class TestQuantileKernel:
    """The fit's scalar quantile is numpy's ``linear`` method, exactly."""

    @settings(max_examples=400)
    @given(
        st.lists(_sample_values, min_size=1, max_size=20),
        st.one_of(
            st.sampled_from([0.0, 0.5, 0.85, 1.0]),
            st.floats(min_value=0.0, max_value=1.0),
        ),
    )
    # The first two hit each side of numpy's two-sided lerp, where the
    # other side's formula rounds differently in the last bit.
    @example([0.1, 0.3], 0.85)
    @example([0.1, 0.7], 0.3)
    @example([3.0], 0.85)
    @example([2.0, 2.0, 2.0, 7.0], 0.5)
    def test_matches_np_quantile_bit_for_bit(self, values, q):
        expected = float(np.quantile(values, q))
        assert _quantile(values, q).hex() == expected.hex()

    def test_quantile_out_of_range_rejected(self):
        ms = [Measurement(0, 1, 1.0), Measurement(1, 0, 1.0)]
        with pytest.raises(ValueError, match="quantile"):
            estimate_lastmile(ms, 2, quantile=1.5)


#: A fit sample: few nodes so that samples are long, ``_sample_values``
#: for zeros, ties and extreme magnitudes, and no self-pairs (as in
#: every caller).
@st.composite
def _fit_rows(draw):
    num = draw(st.integers(min_value=2, max_value=9))
    pair = st.tuples(
        st.integers(min_value=0, max_value=num - 1),
        st.integers(min_value=0, max_value=num - 1),
    ).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, min_size=1, max_size=40, unique=True))
    values = draw(
        st.lists(_sample_values, min_size=len(pairs), max_size=len(pairs))
    )
    return num, [(s, t, v) for (s, t), v in zip(pairs, values)]


class TestArrayFit:
    """``_fit_lastmile`` runs the alternating fit on arrays; it must
    return the per-node scalar fit's numbers to the last bit."""

    @settings(max_examples=300)
    @given(
        _fit_rows(),
        st.one_of(
            st.sampled_from([0.0, 0.5, 0.85, 1.0]),
            st.floats(min_value=0.0, max_value=1.0),
        ),
    )
    @example((3, [(0, 1, 2.0), (1, 0, 2.0), (1, 2, 0.0)]), 0.0)
    @example((3, [(0, 1, 2.0), (1, 2, 1.0), (2, 0, 3.0)]), 1.0)
    def test_matches_scalar_fit(self, sample, q):
        num, rows = sample
        b_out, b_in, out_quantile = _reference_fit(
            rows, num, quantile=q
        )
        sources, targets, values = zip(*rows)
        fit = _fit_lastmile(
            sources, targets, values, num, quantile=q, unmeasured=0.0
        )
        assert [v.hex() for v in fit.b_out] == [v.hex() for v in b_out]
        assert [v.hex() for v in fit.b_in] == [v.hex() for v in b_in]
        assert {k: v.hex() for k, v in fit.out_quantile.items()} == {
            k: v.hex() for k, v in out_quantile.items()
        }


class TestZeroTruthErrors:
    """Satellite regression: dead uplinks can't hide estimator errors."""

    def test_wrong_estimate_on_zero_truth_is_inf(self):
        from repro import LastMileEstimate

        e = LastMileEstimate(
            b_out=(5.0, 3.0), b_in=(1.0, 1.0), residual_rms_log=0.0
        )
        errors = e.relative_out_errors([5.0, 0.0])
        assert errors[0] == pytest.approx(0.0)
        assert errors[1] == np.inf  # busy estimate on a dead uplink

    def test_exact_zero_estimate_on_zero_truth_is_zero(self):
        from repro import LastMileEstimate

        e = LastMileEstimate(
            b_out=(5.0, 0.0), b_in=(1.0, 1.0), residual_rms_log=0.0
        )
        errors = e.relative_out_errors([5.0, 0.0])
        assert errors[1] == pytest.approx(0.0)

    def test_positive_truth_unchanged(self):
        from repro import LastMileEstimate

        e = LastMileEstimate(
            b_out=(6.0,), b_in=(1.0,), residual_rms_log=0.0
        )
        assert e.relative_out_errors([5.0])[0] == pytest.approx(0.2)


class TestUnmeasuredFallback:
    """Satellite: nodes with no incident measurement get a documented
    fallback instead of a crash (possible at low pairs_per_node under
    churn — e.g. a peer that joined between probe rounds)."""

    def _three_node_measurements(self):
        """pairs_per_node=1 on a 3-node platform, then node 2's only
        outgoing probe is lost (its target churned away)."""
        truth = LastMileGroundTruth.symmetric((30.0, 20.0, 10.0))
        ms = sample_measurements(0, truth, pairs_per_node=1, noise_sigma=0.0)
        return [m for m in ms if m.source != 2]

    def test_raise_is_still_the_default(self):
        with pytest.raises(EstimationError, match="no outgoing"):
            estimate_lastmile(self._three_node_measurements(), 3)

    def test_median_imputation(self):
        ms = self._three_node_measurements()
        est = estimate_lastmile(ms, 3, unmeasured="median")
        measured = [est.b_out[i] for i in range(3) if i != 2]
        assert est.b_out[2] == pytest.approx(float(np.median(measured)))

    def test_float_imputation(self):
        est = estimate_lastmile(
            self._three_node_measurements(), 3, unmeasured=15.0
        )
        assert est.b_out[2] == pytest.approx(15.0)

    def test_measured_nodes_not_distorted_by_imputation(self):
        ms = self._three_node_measurements()
        with_fallback = estimate_lastmile(ms, 3, unmeasured=999.0)
        # The imputed node is excluded from the fit, so the measured
        # nodes' estimates match a fit over the same measurements alone.
        assert with_fallback.b_out[2] == pytest.approx(999.0)
        other = estimate_lastmile(ms, 3, unmeasured=0.0)
        assert with_fallback.b_out[:2] == other.b_out[:2]

    def test_bad_unmeasured_values_rejected(self):
        ms = self._three_node_measurements()
        with pytest.raises(ValueError, match="unmeasured"):
            estimate_lastmile(ms, 3, unmeasured="mean")
        with pytest.raises(ValueError, match=">= 0"):
            estimate_lastmile(ms, 3, unmeasured=-1.0)


def _sample_job(args):
    seed, pairs = args
    truth = LastMileGroundTruth.symmetric(tuple(range(5, 30)), headroom=4.0)
    return sample_measurements(seed, truth, pairs_per_node=pairs)


class TestSeedThreading:
    """Satellite: seeded sampling is deterministic per pair, not per
    call order, so batch shards can re-sample independently."""

    @pytest.fixture
    def truth(self):
        rng = np.random.default_rng(0)
        return LastMileGroundTruth.symmetric(rng.uniform(5, 100, 20))

    def test_seeded_calls_reproducible(self, truth):
        a = sample_measurements(11, truth, pairs_per_node=4)
        b = sample_measurements(11, truth, pairs_per_node=4)
        assert a == b

    def test_common_pairs_identical_across_subsets(self, truth):
        """The same seed at different pairs_per_node reports the same
        value for every pair both samplings contain — per-pair noise
        streams, not one shared sequential stream."""
        sparse = {
            (m.source, m.target): m.value
            for m in sample_measurements(11, truth, pairs_per_node=2)
        }
        dense = {
            (m.source, m.target): m.value
            for m in sample_measurements(11, truth, pairs_per_node=8)
        }
        common = set(sparse) & set(dense)
        assert common  # the samplers do overlap
        for pair in common:
            assert sparse[pair] == dense[pair]

    def test_generator_api_unchanged(self, truth):
        """The historical Generator-based path still threads one shared
        stream (bit-for-bit what it always produced)."""
        a = sample_measurements(
            np.random.default_rng(3), truth, pairs_per_node=4
        )
        b = sample_measurements(
            np.random.default_rng(3), truth, pairs_per_node=4
        )
        assert a == b

    def test_pickle_round_trip(self, truth):
        ms = sample_measurements(5, truth, pairs_per_node=3)
        assert pickle.loads(pickle.dumps(ms)) == ms
        est = estimate_lastmile(ms, truth.num_nodes)
        assert pickle.loads(pickle.dumps(est)) == est

    def test_process_pool_dispatch_matches_serial(self):
        """Mode independence: the exact guarantee the batch runner makes
        for engine runs, extended to measurement sampling."""
        jobs = [(9, 2), (9, 6), (13, 2)]
        serial = [_sample_job(j) for j in jobs]
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = list(pool.map(_sample_job, jobs))
        assert serial == pooled
