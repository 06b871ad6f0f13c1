"""Estimation gap: what planning on measured bandwidths costs.

The runtime's measurement loop (:mod:`repro.estimation.online`) feeds
controllers an *estimated* view of the swarm.  This report quantifies
the price, flow-level and deterministically: for a fixed ground-truth
swarm, reconstruct the platform from seeded sparse probes, build the
Theorem 4.1 overlay on the reconstruction, clip the planned edge rates
back to the *true* capacities (per-node QoS enforcement — an
overestimated uplink cannot actually deliver), and compare the worst
receiver's achievable rate against the oracle optimum ``T*_ac``:

* ``planned_rate`` — what the optimizer *believes* it provisioned (the
  estimated ``T*_ac``; above oracle when probes overestimate);
* ``achieved_rate`` — the worst receiver's max-flow through the
  truth-clipped overlay (on a DAG this is the min in-rate — the same
  O(E) shortcut :func:`~repro.core.throughput.dag_throughput` the
  sweeps use);
* ``gap`` — ``max(0, 1 - achieved / oracle)``, the throughput actually
  lost to estimation error.

Swept over probe budgets and noise sigmas, the gap is the robustness
curve the paper's Section II-C pipeline implies but never measures: a
uniform estimation *bias* cancels (the overlay just rescales), so the
gap tracks the per-node error *dispersion*, which shrinks with probe
budget and grows with noise.  The runtime-loop analogue (same question
through the full engine, churn included) lives in
:func:`repro.experiments.ablations.estimation_ablation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..algorithms.acyclic_guarded import acyclic_guarded_scheme
from ..core.instance import Instance
from ..core.throughput import dag_throughput
from ..estimation.online import EstimatedPlatformView, OnlineEstimator, ProbeScheduler
from ..flows.arborescence import clip_to_capacities
from ..instances.generators import random_instance

__all__ = [
    "EstimationGapRow",
    "estimated_plan_outcome",
    "estimation_gap_experiment",
]


def estimated_plan_outcome(
    instance: Instance,
    *,
    probes_per_node: float,
    noise_sigma: float,
    seed: int = 0,
    rounds: int = 3,
    estimator_decay: float = 0.8,
) -> tuple[float, float, Optional[float]]:
    """One estimate-plan-clip-measure trial on a ground-truth swarm.

    Runs ``rounds`` probe rounds of the online loop against a static
    platform seeded from ``instance``, builds the overlay on the
    estimated snapshot, clips it to the true capacities, and returns
    ``(planned_rate, achieved_rate, median_rel_error)``.  Deterministic
    in ``(instance, probes_per_node, noise_sigma, seed, rounds)`` —
    probe values come from per-pair counter streams, and the flow-level
    achieved rate involves no transport RNG.  Shared by the ablation
    tables and ``benchmarks/test_bench_estimation.py``.
    """
    # Deferred import: repro.analysis is imported by modules that load
    # before repro.runtime finishes initializing.
    from ..runtime.events import DynamicPlatform

    platform = DynamicPlatform.from_instance(instance)
    view = EstimatedPlatformView(
        platform,
        ProbeScheduler(
            seed=seed,
            probes_per_node=probes_per_node,
            noise_sigma=noise_sigma,
        ),
        OnlineEstimator(decay=estimator_decay),
    )
    for now in range(rounds):
        view.refresh(now)
    est_instance, node_ids = view.snapshot()
    sol = acyclic_guarded_scheme(est_instance)
    clipped = clip_to_capacities(
        sol.scheme, platform.true_capacities(node_ids)
    )
    achieved = dag_throughput(clipped) if est_instance.num_receivers else 0.0
    return sol.throughput, achieved, view.median_error()


@dataclass
class EstimationGapRow:
    """One (probe budget, noise sigma) cell of the estimation-gap sweep."""

    probes_per_node: float
    noise_sigma: float
    oracle_rate: float  #: ``T*_ac`` of the ground truth
    planned_rate: float  #: mean estimated ``T*_ac`` the controller believes
    achieved_rate: float  #: mean worst-receiver rate after truth clipping
    gap: float  #: mean ``max(0, 1 - achieved / oracle)``
    median_rel_error: float  #: mean (over trials) median estimation error


def estimation_gap_experiment(
    budgets: Sequence[float] = (8.0, 4.0, 2.0, 1.0),
    sigmas: Sequence[float] = (0.05, 0.1, 0.3),
    size: int = 40,
    open_prob: float = 0.6,
    trials: int = 3,
    rounds: int = 3,
    seed: int = 43,
) -> list[EstimationGapRow]:
    """Achieved-vs-oracle throughput per probe budget and noise sigma.

    ``trials`` independent probe seeds are averaged per cell (one shared
    ground-truth swarm, so every cell chases the same oracle).  Cells
    with no measured peer at all report ``median_rel_error = inf``.
    This is also the sweep ``benchmarks/test_bench_estimation.py`` runs
    at n ∈ {200, 500, 1000} for the acceptance gate.
    """
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, size, open_prob, "Unif100")
    oracle = acyclic_guarded_scheme(inst).throughput
    rows = []
    for sigma in sigmas:
        for budget in budgets:
            planned, achieved, errors, gaps = [], [], [], []
            for trial in range(trials):
                p, a, err = estimated_plan_outcome(
                    inst,
                    probes_per_node=budget,
                    noise_sigma=sigma,
                    seed=seed + trial,
                    rounds=rounds,
                )
                planned.append(p)
                achieved.append(a)
                gaps.append(max(0.0, 1.0 - a / oracle) if oracle > 0 else 0.0)
                if err is not None and math.isfinite(err):
                    errors.append(err)
            rows.append(
                EstimationGapRow(
                    probes_per_node=budget,
                    noise_sigma=sigma,
                    oracle_rate=oracle,
                    planned_rate=math.fsum(planned) / len(planned),
                    achieved_rate=math.fsum(achieved) / len(achieved),
                    gap=sum(gaps) / len(gaps),
                    median_rel_error=(
                        sum(errors) / len(errors) if errors else float("inf")
                    ),
                )
            )
    return rows
