"""Tests for the shared float-comparison helpers."""

from hypothesis import given, strategies as st

from repro.core.numerics import (
    feq,
    fge,
    fgt,
    fle,
    flt,
    fpos,
    safe_ceil_div,
)

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestComparisons:
    def test_feq_within_tolerance(self):
        assert feq(1.0, 1.0 + 1e-12)
        assert not feq(1.0, 1.001)

    def test_relative_scaling(self):
        assert feq(1e9, 1e9 + 0.5)  # relative tolerance dominates
        assert not feq(1e-3, 2e-3)

    def test_strict_variants_exclude_band(self):
        assert not fgt(1.0, 1.0)
        assert not flt(1.0, 1.0)
        assert fgt(1.0 + 1e-3, 1.0)
        assert flt(1.0, 1.0 + 1e-3)

    @given(floats, floats)
    def test_trichotomy(self, x, y):
        assert fle(x, y) or fge(x, y)
        if flt(x, y):
            assert not fgt(x, y) and not feq(x, y)

    def test_fpos(self):
        assert fpos(1e-3)
        assert not fpos(1e-12)

    def test_tolerance_overrides(self):
        assert not feq(1.0, 1.0 + 1e-6)
        assert feq(1.0, 1.0 + 1e-6, rel=1e-5)
        assert feq(0.0, 1e-6, abs_=1e-5)
        assert fle(1.0 + 1e-6, 1.0, rel=1e-5)
        assert not fle(1.0 + 1e-6, 1.0)
        assert fpos(1e-6, abs_=1e-7)
        assert not fpos(1e-6, abs_=1e-5)

    @given(floats)
    def test_feq_reflexive(self, x):
        assert feq(x, x) and fle(x, x) and fge(x, x)
        assert not flt(x, x) and not fgt(x, x)

    @given(floats, floats)
    def test_feq_symmetric(self, x, y):
        assert feq(x, y) == feq(y, x)


class TestSafeCeilDiv:
    def test_exact_quotients_not_bumped(self):
        assert safe_ceil_div(6.0, 3.0) == 2
        assert safe_ceil_div(6.0, 2.0) == 3

    def test_fractional_quotients_ceiled(self):
        assert safe_ceil_div(7.0, 3.0) == 3

    def test_float_noise_absorbed(self):
        assert safe_ceil_div(0.1 + 0.2, 0.3) == 1  # 0.30000000000000004/0.3

    def test_zero_rate_and_zero_bandwidth(self):
        assert safe_ceil_div(5.0, 0.0) == 0
        assert safe_ceil_div(0.0, 5.0) == 0

    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=1e-3, max_value=1e4),
    )
    def test_never_below_true_ratio(self, b, t):
        assert safe_ceil_div(b, t) >= b / t - 1e-6

    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=1e-3, max_value=1e4),
    )
    def test_less_than_one_above_true_ratio(self, b, t):
        assert safe_ceil_div(b, t) < b / t + 1
