"""End-to-end array pipeline for the n = 10^5..10^6 scale study.

The classic path materializes O(n) Python objects at every stage:
per-node bandwidth tuples, dict-of-dict schemes, ``BroadcastTree``
lists, per-edge credit dicts.  Each stage here stays in run-length or
flat-array form instead:

    ClassRuns  --optimal_acyclic_throughput_runs-->  rate (bit-identical)
               --collapsed_scheme-->                 RunScheme (O(classes
                                                     + word alternations))
               --RunScheme.edge_arrays-->            flat (src, dst, rate)
               --decompose_broadcast_arrays-->       (weights, parents[K, n])
               --ShardFleet-->                       packed integer shards

so the only O(n)-sized objects are numpy arrays, and the per-slot cost
is the sharded transport's vectorized level sweep.  :func:`measure_scale`
runs the whole chain once and reports per-phase wall times plus peak
RSS — the numbers behind ``benchmarks/test_bench_scale.py``.

:class:`~repro.simulation.backends.sharded.ShardFleet` is the sharded
transport's one runner (re-exported here): the runtime
:class:`~repro.simulation.backends.sharded.ShardedBackend` wraps one
built from a dict-based scheme, while :func:`build_fleet` builds one
straight from the edge arrays, minus the dict detour.  Serial and
thread-pool runs share its code path.  The stream is cut into
:data:`PACKETS_PER_SLOT` packets per slot and injected at
:data:`~repro.simulation.backends.RATE_BACKOFF` of the planned rate.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass

import numpy as np

from ..algorithms.acyclic_guarded import collapsed_scheme
from ..core.runs import ClassRuns
from ..flows.arborescence import decompose_broadcast_arrays
from ..simulation.backends import RATE_BACKOFF
from ..simulation.backends.sharded import ShardFleet

__all__ = ["ScaleReport", "ShardFleet", "build_fleet", "measure_scale", "peak_rss_kb"]

#: Packets the source injects per slot: fine enough that every
#: substream of the scale swarms moves whole packets most slots.
PACKETS_PER_SLOT = 64.0


def peak_rss_kb() -> int:
    """Peak resident set size of *this* process, in KiB (Linux units).

    ``ru_maxrss`` is a high-water mark — it never goes down — so tiered
    benchmarks fork one child per tier and read this inside the child.
    """
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@dataclass(frozen=True)
class ScaleReport:
    """One tier of the scale benchmark: sizes, per-phase wall, RSS."""

    num_nodes: int
    num_classes: int
    rate: float
    cyclic_bound: float
    num_trees: int
    num_edges: int
    slots: int
    packets_per_slot: float
    plan_seconds: float
    decompose_seconds: float
    build_seconds: float
    simulate_seconds: float
    min_goodput: float
    dropped_rate: float
    peak_rss_kb: int

    @property
    def total_seconds(self) -> float:
        return (
            self.plan_seconds
            + self.decompose_seconds
            + self.build_seconds
            + self.simulate_seconds
        )

    @property
    def node_slots_per_sec(self) -> float:
        """The headline metric: simulated node-slots per wall second,
        charged against the *whole* pipeline (plan + decompose + build +
        simulate), not just the inner loop."""
        return self.num_nodes * self.slots / max(self.total_seconds, 1e-12)

    def as_dict(self) -> dict:
        return {
            "num_nodes": self.num_nodes,
            "num_classes": self.num_classes,
            "rate": self.rate,
            "cyclic_bound": self.cyclic_bound,
            "num_trees": self.num_trees,
            "num_edges": self.num_edges,
            "slots": self.slots,
            "packets_per_slot": self.packets_per_slot,
            "plan_seconds": self.plan_seconds,
            "decompose_seconds": self.decompose_seconds,
            "build_seconds": self.build_seconds,
            "simulate_seconds": self.simulate_seconds,
            "total_seconds": self.total_seconds,
            "node_slots_per_sec": self.node_slots_per_sec,
            "min_goodput": self.min_goodput,
            "dropped_rate": self.dropped_rate,
            "peak_rss_kb": self.peak_rss_kb,
        }


def build_fleet(
    runs: ClassRuns,
    *,
    workers: int = 1,
    min_tree_weight_frac: float = 0.0,
) -> tuple[ShardFleet, float, dict]:
    """Plan + decompose + shard one swarm; no simulation.

    Returns ``(fleet, rate, timings)`` where ``rate`` is the planned
    (not backed-off) acyclic optimum and ``timings`` holds the
    ``plan`` / ``decompose`` / ``build`` phase seconds plus the edge and
    tree counts.

    ``min_tree_weight_frac`` truncates the greedy's geometric dust tail:
    substream trees carrying less than that fraction of the total rate
    are not simulated (per-slot cost is O(trees * n) regardless of
    weight, and the greedy halves residuals, so the last trees cost as
    much as the first while carrying ~nothing).  The dropped rate is
    reported in ``timings["dropped_rate"]`` — the planned rate itself is
    untouched, only the simulated substream total shrinks by that much.
    """
    num = runs.num_nodes
    t0 = time.perf_counter()
    sol = collapsed_scheme(runs)
    rate = sol.throughput
    t1 = time.perf_counter()
    if not np.isfinite(rate) or rate <= 0.0:
        raise ValueError(f"degenerate swarm: T*_ac = {rate}")
    src, dst, err = sol.scheme.edge_arrays()
    weights, parents = decompose_broadcast_arrays(num, src, dst, err)
    dropped = 0.0
    if min_tree_weight_frac > 0.0 and len(weights):
        keep = weights >= min_tree_weight_frac * float(weights.sum())
        keep[int(np.argmax(weights))] = True  # never drop the whole fleet
        dropped = float(weights[~keep].sum())
        weights, parents = weights[keep], parents[keep]
    t2 = time.perf_counter()
    fleet = ShardFleet(
        weights,
        parents,
        num,
        RATE_BACKOFF,
        PACKETS_PER_SLOT / (rate * RATE_BACKOFF),
        workers=workers,
    )
    t3 = time.perf_counter()
    timings = {
        "plan": t1 - t0,
        "decompose": t2 - t1,
        "build": t3 - t2,
        "num_trees": int(len(weights)),
        "num_edges": int(len(src)),
        "dropped_rate": dropped,
    }
    return fleet, rate, timings


def measure_scale(
    runs: ClassRuns,
    *,
    slots: int = 256,
    workers: int = 1,
    min_tree_weight_frac: float = 0.0,
) -> ScaleReport:
    """Run the full array pipeline once and report timings + goodput.

    ``min_goodput`` is the worst per-receiver delivery rate over the
    whole run, in bandwidth units — it approaches the simulated rate
    (``rate - dropped_rate``, see :func:`build_fleet`) from below as
    ``slots`` outgrows the pipeline fill depth.
    """
    fleet, rate, timings = build_fleet(
        runs,
        workers=workers,
        min_tree_weight_frac=min_tree_weight_frac,
    )
    t0 = time.perf_counter()
    fleet.run(slots)
    simulate = time.perf_counter() - t0
    delivered = fleet.delivered()
    ppu = PACKETS_PER_SLOT / (rate * RATE_BACKOFF)
    min_goodput = (
        float(delivered[1:].min()) / slots / ppu if fleet.num > 1 else 0.0
    )
    return ScaleReport(
        num_nodes=runs.num_nodes,
        num_classes=len(runs.open_runs) + len(runs.guarded_runs),
        rate=rate,
        cyclic_bound=runs.cyclic_optimum(),
        num_trees=timings["num_trees"],
        num_edges=timings["num_edges"],
        slots=slots,
        packets_per_slot=PACKETS_PER_SLOT,
        plan_seconds=timings["plan"],
        decompose_seconds=timings["decompose"],
        build_seconds=timings["build"],
        simulate_seconds=simulate,
        min_goodput=min_goodput,
        dropped_rate=timings["dropped_rate"],
        peak_rss_kb=peak_rss_kb(),
    )
