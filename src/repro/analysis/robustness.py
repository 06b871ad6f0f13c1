"""Bandwidth-perturbation robustness — the conclusion's positive claim.

The paper argues the solution "should be resilient to small variations in
the communication performance of nodes" (it relies on Massoulié's
randomized layer, which adapts, and on rate caps below capacity).  This
module quantifies the *static* part of that claim:

1. build the Theorem 4.1 overlay for a swarm at its optimal rate;
2. perturb every node's true upload bandwidth by a multiplicative factor
   drawn from ``[1 - eps, 1 + eps]`` (measurement drift, cross traffic);
3. clip each sender's edge rates proportionally where the perturbed
   capacity fell below its allocated rate (what a TCP QoS limiter does);
4. measure the worst receiver's max-flow from the source;
5. optionally (``transport_slots > 0``) validate the worst clipped
   overlay end to end with the packet layer — clipping breaks the
   equal-in-rate property, so ``backend="auto"`` exercises the facade's
   fallback from the sharded to the reference backend.

Expected result, asserted by the tests: the delivered rate degrades
*gracefully* — at least ``(1 - eps)`` of the planned rate, i.e. the
overlay has no throughput cliff; compare with churn
(:mod:`repro.analysis.churn`) where removing a node collapses downstream
rates entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import Optional

from ..algorithms.acyclic_guarded import acyclic_guarded_scheme
from ..core.throughput import maxflow_throughput
from ..flows.arborescence import clip_to_capacities
from ..instances.generators import random_instance
from ..simulation import simulate_packet_broadcast

__all__ = ["RobustnessReport", "perturbation_experiment"]


@dataclass
class RobustnessReport:
    """Perturbation sweep outcome for one epsilon."""

    eps: float
    planned_rate: float
    mean_delivered: float  #: mean over trials of the perturbed throughput
    worst_delivered: float
    graceful_floor: float  #: (1 - eps) * planned_rate
    #: Packet-layer efficiency on the worst clipped overlay (None when
    #: transport validation was not requested).
    transport_efficiency: Optional[float] = None

    @property
    def worst_fraction(self) -> float:
        return (
            self.worst_delivered / self.planned_rate
            if self.planned_rate > 0
            else 1.0
        )


def perturbation_experiment(
    epsilons: tuple[float, ...] = (0.02, 0.05, 0.1, 0.2),
    size: int = 30,
    open_prob: float = 0.5,
    trials: int = 10,
    seed: int = 29,
    *,
    transport_slots: int = 0,
) -> list[RobustnessReport]:
    """Sweep perturbation magnitudes on a fixed overlay.

    With ``transport_slots > 0`` the worst clipped overlay of each
    epsilon is additionally run through
    :func:`~repro.simulation.simulate_packet_broadcast` (``auto``
    transport) for that many slots at its max-flow rate, and the
    achieved worst-receiver efficiency is reported — confirming the
    flow-level "no cliff" claim survives the randomized packet layer.
    """
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, size, open_prob, "Unif100")
    sol = acyclic_guarded_scheme(inst)
    planned = sol.throughput
    reports = []
    for eps in epsilons:
        delivered = []
        worst_scheme = None
        for _ in range(trials):
            factors = rng.uniform(1.0 - eps, 1.0 + eps, inst.num_nodes)
            capacities = [
                inst.bandwidth(i) * float(factors[i])
                for i in range(inst.num_nodes)
            ]
            clipped = clip_to_capacities(sol.scheme, capacities)
            rate = maxflow_throughput(clipped)
            if not delivered or rate < min(delivered):
                worst_scheme = clipped
            delivered.append(rate)
        transport_efficiency = None
        if transport_slots > 0 and worst_scheme is not None:
            worst_rate = min(delivered)
            if worst_rate > 0:
                res = simulate_packet_broadcast(
                    inst,
                    worst_scheme,
                    worst_rate * (1.0 - 1e-9),
                    slots=transport_slots,
                    packets_per_unit=2.0 / worst_rate,
                    seed=seed,
                    backend="auto",
                )
                transport_efficiency = res.efficiency()
        reports.append(
            RobustnessReport(
                eps=eps,
                planned_rate=planned,
                mean_delivered=sum(delivered) / len(delivered),
                worst_delivered=min(delivered),
                graceful_floor=(1.0 - eps) * planned,
                transport_efficiency=transport_efficiency,
            )
        )
    return reports
