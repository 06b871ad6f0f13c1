"""Bedibe-style LastMile model instantiation from pairwise measurements.

Two halves: the offline substrate (synthetic measurement sampling and
the alternating quantile fit of :mod:`~repro.estimation.lastmile`), and
the online loop (:mod:`~repro.estimation.online`) that drives the same
fit from seeded sparse probes of a live
:class:`~repro.runtime.events.DynamicPlatform`, so runtime controllers
can re-optimize on estimated rather than oracle bandwidths.
"""

from .lastmile import LastMileEstimate, estimate_lastmile
from .measurements import (
    LastMileGroundTruth,
    Measurement,
    pair_noise,
    sample_measurements,
)
from .online import (
    EstimatedPlatformView,
    OnlineEstimator,
    ProbeRound,
    ProbeScheduler,
)

__all__ = [
    "LastMileGroundTruth",
    "Measurement",
    "pair_noise",
    "sample_measurements",
    "estimate_lastmile",
    "LastMileEstimate",
    "ProbeRound",
    "ProbeScheduler",
    "OnlineEstimator",
    "EstimatedPlatformView",
]
