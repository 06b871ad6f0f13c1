"""LastMile parameter estimation from sparse pairwise measurements.

The Bedibe-style reconstruction step of the paper's pipeline
(Section II-C): given noisy measurements ``y_ij ~ min(b_out_i, b_in_j)``
on a sparse pair set, recover per-node ``b_out`` (and ``b_in``).  The
estimated outgoing bandwidths are what the paper's algorithms consume.

Algorithm (alternating quantile fit):

1. initialise ``b_out_i`` (resp. ``b_in_j``) to the max of the node's
   outgoing (resp. incoming) measurements — an upper envelope, since
   ``y_ij <= min(b_out_i, b_in_j)`` up to noise;
2. alternate: for each node, re-fit its parameter as a high quantile of
   the measurements *not explained by the other side* (pairs where the
   partner's current estimate is not the binding minimum).  The quantile
   (default 0.85) trades robustness to positive noise spikes against
   bias from always taking the max.

This is intentionally a simple, dependency-free estimator: the paper
treats Bedibe as a black box, and what the reproduction needs is the
interface contract (sparse noisy pairs in, LastMile parameters out) plus
reasonable accuracy, which the tests quantify on synthetic ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from ..core.exceptions import EstimationError
from .measurements import Measurement

__all__ = [
    "LastMileEstimate",
    "estimate_lastmile",
    "guarded_relative_errors",
]


def guarded_relative_errors(
    estimates: Sequence[float], truth: Sequence[float]
) -> np.ndarray:
    """Per-node relative error of ``estimates`` against ``truth``.

    Nodes whose true bandwidth is 0 (dead uplinks) have no relative
    scale: a wrong estimate there is reported as ``inf`` (and an exact
    0 estimate as 0.0), never silently as 0.0 — otherwise an estimator
    that hallucinates capacity on dead uplinks would look perfect to
    every error aggregate.  Shared by the offline diagnostic
    (:meth:`LastMileEstimate.relative_out_errors`) and the online
    view's self-scoring
    (:meth:`~repro.estimation.online.EstimatedPlatformView.relative_errors`),
    so the dead-uplink policy cannot drift between them.
    """
    t = np.asarray(truth, dtype=float)
    e = np.asarray(estimates, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(t > 0, np.abs(e - t) / t, 0.0)
    return np.where((t <= 0) & (e > 0), np.inf, rel)


@dataclass(frozen=True)
class LastMileEstimate:
    """Estimated per-node LastMile parameters plus fit diagnostics."""

    b_out: tuple[float, ...]
    b_in: tuple[float, ...]
    residual_rms_log: float  #: RMS of log(y / min(out, in)) over pairs

    @property
    def num_nodes(self) -> int:
        return len(self.b_out)

    def relative_out_errors(
        self, truth_out: Sequence[float]
    ) -> np.ndarray:
        """Per-node relative error against a known ground truth
        (inf-guarded on dead uplinks — see
        :func:`guarded_relative_errors`)."""
        return guarded_relative_errors(self.b_out, truth_out)


class _Side:
    """The rows of one side of the fit (outgoing or incoming), sorted
    once by (owner, value), so each node's sample is one sorted segment.

    :meth:`quantiles` returns every owner's ``q``-quantile of the rows a
    mask keeps — or of all its rows when the mask keeps none — as
    numpy's default ``linear`` ``np.quantile`` would, to the last bit:
    the virtual index ``(m - 1) * q`` clamped to the last element, then
    numpy's two-sided interpolation (``a + d*g`` below the midpoint,
    ``b - d*(1-g)`` from it).  The upper side is computed as
    ``b + d*(g-1)``, which rounds identically (IEEE rounding is
    symmetric under negation), so one expression serves both sides.
    Everything but ``a`` and ``b`` depends only on how many rows a
    segment keeps, and is tabulated per count once.
    """

    def __init__(
        self,
        owners: np.ndarray,
        partners: np.ndarray,
        values: np.ndarray,
        rank: np.ndarray,
        num_nodes: int,
        q: float,
    ) -> None:
        # ``rank`` is the stable value order, so the keys are distinct
        # and sort like ``lexsort((values, owners))``: ties keep row order.
        order = np.argsort(owners * len(values) + rank)
        self.values = values[order]
        self.owner = owners[order]
        self.partner = partners[order]
        self.counts = np.bincount(owners, minlength=num_nodes)
        self.nodes = self.counts.nonzero()[0]  #: owners with >= 1 row
        count = self.counts[self.nodes]
        self.edges = np.concatenate(([0], np.cumsum(count)))
        # Per kept count: the lower element's offset in the segment, the
        # upper one's step above it, which one the result starts from,
        # and the weight of ``b - a`` added to it.  At the clamp (index
        # >= last) ``a`` and ``b`` are one element and the weight is
        # -0.0, so the sum returns ``b`` bit for bit, signed zeros too.
        # Count 0 only reads a valid row; its result is replaced.
        last = np.arange(self.counts.max(initial=0) + 1) - 1
        index = last * q
        lo = index.astype(np.intp)
        gamma = index - lo
        clamped = index >= last
        lo[0] = -1
        self._lo = lo
        self._step = (lo < last).astype(np.intp)
        self._from_a = (gamma < 0.5) & ~clamped
        self._weight = np.where(
            clamped, -0.0, np.where(self._from_a, gamma, gamma - 1)
        )
        #: every owner's quantile of all its rows (the fallback)
        self.whole = self._pick(self.values, self.edges[:-1], count)

    def _pick(
        self, values: np.ndarray, start: np.ndarray, count: np.ndarray
    ) -> np.ndarray:
        """The quantile of each sorted segment ``values[start:start +
        count]``."""
        a_at = start + self._lo[count]
        a = values[a_at]
        b = values[a_at + self._step[count]]
        return np.where(self._from_a[count], a, b) + (b - a) * self._weight[count]

    def quantiles(self, keep: np.ndarray) -> np.ndarray:
        """Per-owner quantile (aligned with :attr:`nodes`) of the rows
        the boolean mask ``keep`` selects."""
        kept_at = keep.nonzero()[0]
        if not kept_at.size:
            return self.whole
        start = kept_at.searchsorted(self.edges)
        kept = start[1:] - start[:-1]
        picked = self._pick(self.values[kept_at], start[:-1], kept)
        return np.where(kept == 0, self.whole, picked)


class _LastMileFit(NamedTuple):
    """The alternating fit's raw output, in index space."""

    b_out: np.ndarray  #: fitted, unmeasured nodes imputed
    b_in: np.ndarray  #: inf for nodes nothing was measured into
    #: each node's quantile of its own outgoing values (the fit's
    #: initial ``b_out``); inf for nodes that sent no probe
    out_cap: np.ndarray

    @property
    def out_quantile(self) -> dict[int, float]:
        """:attr:`out_cap` over the nodes that sent at least one probe."""
        sent = np.isfinite(self.out_cap).nonzero()[0]
        return dict(zip(sent.tolist(), self.out_cap[sent].tolist()))


def _fit_lastmile(
    sources: Sequence[int],
    targets: Sequence[int],
    values: Sequence[float],
    num_nodes: int,
    *,
    iterations: int = 6,
    quantile: float = 0.85,
    unmeasured: Union[str, float] = "raise",
) -> _LastMileFit:
    """Alternating quantile fit over in-range, finite, non-negative
    ``(source, target, value)`` rows, given as three aligned columns
    (see :func:`estimate_lastmile`)."""
    if not 0.0 <= quantile <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {quantile}")
    sources = np.asarray(sources, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    values = np.asarray(values, dtype=float)
    # Each row's place in the stable value order, shared by both sides.
    rank = np.empty(len(values), dtype=np.intp)
    rank[np.argsort(values, kind="stable")] = np.arange(len(values))
    out = _Side(sources, targets, values, rank, num_nodes, quantile)
    inc = _Side(targets, sources, values, rank, num_nodes, quantile)
    unmeasured_nodes = (out.counts == 0).nonzero()[0]
    if unmeasured_nodes.size and unmeasured == "raise":
        raise EstimationError(
            f"node {unmeasured_nodes[0]} has no outgoing measurement"
        )

    # Initialise at the *quantile*, not the max, of each node's
    # observations.  The max is exact on noiseless data but
    # self-reinforcing under noise: the single largest noisy probe
    # ``(i, j)`` seeds both ``b_out_i`` and ``b_in_j`` with the same
    # inflated value, so the "unexplained" filter below keeps that pair
    # as its own justification forever and the node's estimate never
    # recovers — the more probes, the worse the max-envelope bias.  The
    # quantile init is still exact on noiseless sender-limited data
    # (every sender-limited observation equals ``b_out_i``, so any
    # quantile that lands on that mass returns it) while a lone outlier
    # can no longer anchor the fit.
    b_out = np.zeros(num_nodes)
    b_out[out.nodes] = out.whole
    b_in = np.full(num_nodes, math.inf)
    b_in[inc.nodes] = inc.whole

    for _ in range(iterations):
        # Re-fit b_out from pairs where the receiver is (currently) not
        # the binding side; fall back to all pairs when none qualify.
        # Both masks read the estimates before their own side's update.
        unexplained = b_in[out.partner] >= b_out[out.owner]
        b_out[out.nodes] = out.quantiles(unexplained)
        unexplained = b_out[inc.partner] >= b_in[inc.owner]
        b_in[inc.nodes] = inc.quantiles(unexplained)

    if unmeasured_nodes.size:
        if unmeasured == "median":
            if not out.nodes.size:
                raise EstimationError(
                    "no node has an outgoing measurement; cannot impute"
                )
            fill = float(np.median(b_out[out.nodes]))
        else:
            fill = float(unmeasured)
            if fill < 0:
                raise ValueError(
                    f"unmeasured fill value must be >= 0, got {fill}"
                )
        b_out[unmeasured_nodes] = fill

    out_cap = np.full(num_nodes, math.inf)
    out_cap[out.nodes] = out.whole
    return _LastMileFit(b_out, b_in, out_cap)


def estimate_lastmile(
    measurements: Sequence[Measurement],
    num_nodes: int,
    *,
    iterations: int = 6,
    quantile: float = 0.85,
    unmeasured: Union[str, float] = "raise",
) -> LastMileEstimate:
    """Fit LastMile parameters to sparse pairwise measurements.

    ``unmeasured`` controls what happens to nodes with no outgoing
    measurement at all (their ``b_out`` is unconstrained by the data —
    possible at low ``pairs_per_node``, and routine in the online loop
    when a peer joins between probe rounds):

    * ``"raise"`` (default, the historical contract): raise
      :class:`EstimationError`;
    * ``"median"``: impute the median of the *fitted* ``b_out`` over the
      measured nodes — the population prior, computed after the
      alternating fit so imputed nodes never distort it;
    * a float: impute that value directly (an external prior, e.g. the
      advertised class bandwidth).

    Unmeasured nodes are excluded from the alternating fit either way;
    only their final ``b_out`` entry is imputed.  Every per-node
    quantile equals ``np.quantile``'s default ``linear`` method to the
    last bit (:class:`_Side`).
    """
    if not measurements:
        raise EstimationError("no measurements supplied")
    if isinstance(unmeasured, str) and unmeasured not in ("raise", "median"):
        raise ValueError(
            f"unmeasured must be 'raise', 'median' or a float, "
            f"got {unmeasured!r}"
        )
    for msr in measurements:
        if not (0 <= msr.source < num_nodes and 0 <= msr.target < num_nodes):
            raise EstimationError(f"measurement out of range: {msr}")
        if not math.isfinite(msr.value):
            raise EstimationError(f"non-finite measurement: {msr}")
        if msr.value < 0:
            raise EstimationError(f"negative measurement: {msr}")
    fit = _fit_lastmile(
        [m.source for m in measurements],
        [m.target for m in measurements],
        [m.value for m in measurements],
        num_nodes,
        iterations=iterations,
        quantile=quantile,
        unmeasured=unmeasured,
    )

    # Fit diagnostic: multiplicative residuals over all measured pairs.
    b_out, b_in = fit.b_out.tolist(), fit.b_in.tolist()
    logs = []
    for msr in measurements:
        model = min(b_out[msr.source], b_in[msr.target])
        if model > 0 and msr.value > 0:
            logs.append(np.log(msr.value / model))
    rms = float(np.sqrt(np.mean(np.square(logs)))) if logs else 0.0
    return LastMileEstimate(tuple(b_out), tuple(b_in), rms)
