"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from repro import Instance

# Library-wide hypothesis profile: deterministic, no deadline flakiness on
# slow CI machines.
settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("repro")

# Larger budget for CI's extended property steps, selected with
# ``--hypothesis-profile repro-extended``.  Properties that pin their own
# ``max_examples`` scale it as ``max(own, settings.default.max_examples)``.
settings.register_profile(
    "repro-extended", parent=settings.get_profile("repro"), max_examples=20_000
)

#: A bandwidth value: bounded, non-degenerate floats.
bandwidths = st.floats(
    min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)

#: A strictly positive bandwidth.
positive_bandwidths = st.floats(
    min_value=0.01, max_value=1000.0, allow_nan=False, allow_infinity=False
)


@st.composite
def instances(
    draw,
    max_open: int = 8,
    max_guarded: int = 8,
    min_receivers: int = 1,
    positive: bool = False,
):
    """Random canonical instances (class sizes and bandwidths drawn)."""
    bw = positive_bandwidths if positive else bandwidths
    n = draw(st.integers(min_value=0, max_value=max_open))
    m = draw(st.integers(min_value=max(0, min_receivers - n), max_value=max_guarded))
    source = draw(positive_bandwidths)
    opens = tuple(draw(st.lists(bw, min_size=n, max_size=n)))
    guardeds = tuple(draw(st.lists(bw, min_size=m, max_size=m)))
    return Instance(source, opens, guardeds)


@st.composite
def open_instances(draw, max_open: int = 10, positive: bool = True):
    """Random open-only instances with at least one receiver."""
    bw = positive_bandwidths if positive else bandwidths
    n = draw(st.integers(min_value=1, max_value=max_open))
    source = draw(positive_bandwidths)
    opens = tuple(draw(st.lists(bw, min_size=n, max_size=n)))
    return Instance.open_only(source, opens)


@pytest.fixture
def fig1():
    from repro import figure1_instance

    return figure1_instance()
