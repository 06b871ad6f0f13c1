"""Shared infrastructure for the experiment modules.

Every experiment in :mod:`repro.experiments` is a pure function from an
explicit configuration (sizes, seeds) to a plain-data result object, so
benchmarks, tests and examples all drive the same code.  Paper-scale runs
are opt-in through the environment:

* ``REPRO_FULL=1`` — run every sweep at the sizes used in the paper
  (Figure 7's 100x100 grid, Figure 19's 1000 instances x n=1000);
  default sizes are reduced for CI latency but preserve every qualitative
  conclusion.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "full_scale",
    "Stats",
    "summarize",
    "format_table",
]


def full_scale() -> bool:
    """Whether paper-scale experiment sizes were requested."""
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "no")


@dataclass(frozen=True)
class Stats:
    """Order statistics of a sample (quantiles computed by interpolation)."""

    count: int
    mean: float
    minimum: float
    q05: float
    median: float
    q95: float
    maximum: float

    def row(self) -> tuple[float, float, float, float, float]:
        return (self.mean, self.q05, self.median, self.q95, self.minimum)


def _quantile(sorted_vals: Sequence[float], q: float) -> float:
    if not sorted_vals:
        raise ValueError("empty sample")
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = q * (len(sorted_vals) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def summarize(values: Iterable[float]) -> Stats:
    vals = sorted(values)
    if not vals:
        raise ValueError("cannot summarize an empty sample")
    return Stats(
        count=len(vals),
        mean=math.fsum(vals) / len(vals),
        minimum=vals[0],
        q05=_quantile(vals, 0.05),
        median=_quantile(vals, 0.5),
        q95=_quantile(vals, 0.95),
        maximum=vals[-1],
    )


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    float_fmt: str = "{:.4f}",
) -> str:
    """Fixed-width ASCII table used by the benchmark reports."""

    def render(cell: object) -> str:
        if isinstance(cell, float):
            return float_fmt.format(cell)
        return str(cell)

    str_rows = [[render(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
