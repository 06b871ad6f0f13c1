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

    :meth:`quantiles` returns every owner's quantile of the rows a mask
    keeps — or of all its rows when the mask keeps none — as numpy's
    default ``linear`` ``np.quantile`` would, to the last bit: the
    virtual index ``(m - 1) * q`` clamped to the last element, then
    numpy's two-sided interpolation (``a + d*g`` below the midpoint,
    ``b - d*(1-g)`` from it).  Every float operation is the one a scalar
    per-node ``sorted`` sample would take.
    """

    def __init__(
        self,
        owners: np.ndarray,
        partners: np.ndarray,
        values: np.ndarray,
        num_nodes: int,
    ) -> None:
        order = np.lexsort((values, owners))  # stable: ties keep row order
        self.values = values[order]
        self.owner = owners[order]
        self.partner = partners[order]
        self.counts = np.bincount(owners, minlength=num_nodes)
        self.nodes = self.counts.nonzero()[0]  #: owners with >= 1 row
        self.count = self.counts[self.nodes]
        self.edges = np.concatenate(([0], np.cumsum(self.count)))

    def quantiles(self, keep: np.ndarray, q: float) -> np.ndarray:
        """Per-owner ``q``-quantile (aligned with :attr:`nodes`) of the
        rows the boolean mask ``keep`` selects."""
        kept_at = keep.nonzero()[0]
        bounds = kept_at.searchsorted(self.edges)
        kept = bounds[1:] - bounds[:-1]
        none = kept == 0  # nothing kept: fall back to the whole sample
        size = np.where(none, self.count, kept)
        # One gather pool: all rows, then the kept rows in order.
        pool = np.concatenate((self.values, self.values[kept_at]))
        offset = np.where(
            none, self.edges[:-1], bounds[:-1] + len(self.values)
        )
        last = size - 1
        index = last * q
        lo = index.astype(np.intp)
        a = pool[offset + lo]
        b = pool[offset + np.minimum(lo + 1, last)]
        gamma = index - lo
        diff = b - a
        inner = np.where(gamma < 0.5, a + diff * gamma, b - diff * (1 - gamma))
        return np.where(index >= last, b, inner)


class _LastMileFit(NamedTuple):
    """The alternating fit's raw output, in index space."""

    b_out: list[float]  #: fitted, unmeasured nodes imputed
    b_in: list[float]  #: inf for nodes nothing was measured into
    #: node -> quantile of its own outgoing values (the fit's initial
    #: ``b_out``), for every node that sent at least one probe
    out_quantile: dict[int, float]


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
    out = _Side(sources, targets, values, num_nodes)
    inc = _Side(targets, sources, values, num_nodes)
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
    every = np.ones(len(values), dtype=bool)
    out_quantile = out.quantiles(every, quantile)
    b_out = np.zeros(num_nodes)
    b_out[out.nodes] = out_quantile
    b_in = np.full(num_nodes, math.inf)
    b_in[inc.nodes] = inc.quantiles(every, quantile)

    for _ in range(iterations):
        # Re-fit b_out from pairs where the receiver is (currently) not
        # the binding side; fall back to all pairs when none qualify.
        # Both masks read the estimates before their own side's update.
        unexplained = b_in[out.partner] >= b_out[out.owner]
        b_out[out.nodes] = out.quantiles(unexplained, quantile)
        unexplained = b_out[inc.partner] >= b_in[inc.owner]
        b_in[inc.nodes] = inc.quantiles(unexplained, quantile)

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

    return _LastMileFit(
        b_out.tolist(),
        b_in.tolist(),
        dict(zip(out.nodes.tolist(), out_quantile.tolist())),
    )


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
    logs = []
    for msr in measurements:
        model = min(fit.b_out[msr.source], fit.b_in[msr.target])
        if model > 0 and msr.value > 0:
            logs.append(np.log(msr.value / model))
    rms = float(np.sqrt(np.mean(np.square(logs)))) if logs else 0.0
    return LastMileEstimate(
        tuple(float(v) for v in fit.b_out),
        tuple(float(v) for v in fit.b_in),
        rms,
    )
