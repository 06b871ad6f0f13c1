"""Floating-point comparison helpers shared by every algorithm in the library.

The paper's algorithms are stated over exact reals; a faithful float
implementation has to compare accumulated sums against thresholds (for
example ``O(pi) >= T`` inside Algorithm 2).  Every such comparison in this
code base goes through the helpers below so that the tolerance policy lives
in exactly one place.

The default tolerance is *relative* with an absolute floor:
``x`` and ``y`` are considered equal when ``|x - y| <= ABS_TOL + REL_TOL *
max(|x|, |y|)``.  The defaults are deliberately loose enough to absorb the
worst-case error of summing a few thousand bandwidths (the largest instances
used in the paper's experiments have 1000 nodes) and tight enough not to blur
the bisection searches, which stop at relative width ``1e-12``.
"""

from __future__ import annotations

import math

#: Absolute tolerance floor used by all comparisons.
ABS_TOL: float = 1e-9

#: Relative tolerance used by all comparisons.
REL_TOL: float = 1e-9


def feq(x: float, y: float, *, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    """Return True when ``x`` and ``y`` are equal up to tolerance."""
    return abs(x - y) <= abs_ + rel * max(abs(x), abs(y))


def fle(x: float, y: float, *, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    """Tolerant ``x <= y``."""
    return x <= y + abs_ + rel * max(abs(x), abs(y))


def fge(x: float, y: float, *, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    """Tolerant ``x >= y``."""
    return x >= y - abs_ - rel * max(abs(x), abs(y))


def flt(x: float, y: float, *, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    """Tolerant strict ``x < y`` (strict beyond the tolerance band)."""
    return not fge(x, y, rel=rel, abs_=abs_)


def fgt(x: float, y: float, *, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    """Tolerant strict ``x > y`` (strict beyond the tolerance band)."""
    return not fle(x, y, rel=rel, abs_=abs_)


def fpos(x: float, *, abs_: float = ABS_TOL) -> bool:
    """Tolerant ``x > 0`` (used to decide whether an edge 'exists')."""
    return x > abs_


def safe_ceil_div(b: float, t: float) -> int:
    """``ceil(b / t)`` robust to float noise, as used for degree bounds.

    The paper's degree guarantees are stated as ``o_i <= ceil(b_i / T) + d``.
    A float quotient that lands within tolerance of an integer is rounded to
    that integer before taking the ceiling, so that e.g. ``b=6, T=3`` cannot
    yield ``ceil(2.0000000000004) = 3``.

    ``t <= 0`` (broadcast rate zero) gives 0: a node never needs to open a
    connection to sustain a null rate.
    """
    if t <= 0.0:
        return 0
    if b <= 0.0:
        return 0
    q = b / t
    nearest = round(q)
    if feq(q, float(nearest)):
        return int(nearest)
    return int(math.ceil(q))

