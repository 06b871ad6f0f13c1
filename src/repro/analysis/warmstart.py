"""Warm-snapshot A/B forks: compare policies from one mid-stream state.

Comparing two repair policies (or two broker decisions) from *cold*
transport runs conflates the policies' merits with ramp-up noise: each
candidate warms its own buffers, so short measurement windows measure
the warm-up as much as the policy.  The resumable
:class:`~repro.simulation.core.PacketSimEngine` already carries the fix
— ``snapshot()`` / ``restore()`` replay bit-for-bit — and this module
packages it as an experiment harness: warm **one** run, snapshot it,
then fork every candidate from the *identical* mid-stream state and
measure only what happens after the fork.

The helper verifies the fork invariant itself: every restored engine
must report the same slot and per-node delivery counters as the warmed
original before its variant mutator runs, or :func:`warm_snapshot_ab`
raises — an A/B comparison from diverging pre-fork states is a bug, not
a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from ..core.instance import Instance
from ..core.scheme import BroadcastScheme
from ..simulation.core import PacketSimEngine

__all__ = ["WarmForkReport", "warm_snapshot_ab"]

#: Transport granularity of every fork: packets per bandwidth unit.
PACKETS_PER_UNIT = 2.0

#: A variant receives the restored engine and may mutate it (fail nodes,
#: schedule more failures, …) before the measurement window opens.
VariantFn = Callable[[PacketSimEngine], None]


@dataclass
class WarmForkReport:
    """Outcome of one warm-fork A/B comparison."""

    fork_slot: int  #: slot at which every variant was forked
    measure_slots: int  #: length of the per-variant measurement window
    #: Per-variant goodput (bandwidth units) per node over the window.
    goodputs: dict[str, list[float]]
    #: The shared pre-fork fingerprint every variant was verified against:
    #: ``(slot, delivered counters, received counters)``.
    pre_fork: tuple

    def min_goodput(self, variant: str) -> float:
        receivers = self.goodputs[variant][1:]
        return min(receivers) if receivers else float("inf")


def _fingerprint(sim: PacketSimEngine) -> tuple:
    return (sim.slot, tuple(sim.delivered()), tuple(sim.received()))


def warm_snapshot_ab(
    instance: Instance,
    scheme: BroadcastScheme,
    rate: float,
    *,
    warm_slots: int,
    measure_slots: int,
    variants: Mapping[str, Optional[VariantFn]],
    seed: Optional[int] = 0,
) -> WarmForkReport:
    """Warm one transport run, then fork and measure every variant.

    One engine runs ``warm_slots`` and is snapshotted; for each variant
    (in sorted-name order, so results never depend on mapping order) a
    fresh engine is restored from that snapshot, checked bit-identical
    to the original, mutated by the variant callable (``None`` = control
    arm), and measured for ``measure_slots``.  Restores replay exactly,
    so every variant sees the same buffers, credits *and* RNG stream —
    the measured differences are the variants', nothing else's.  The
    forks run the ``reference`` transport at :data:`PACKETS_PER_UNIT`.
    """
    if warm_slots < 0:
        raise ValueError(f"warm_slots must be >= 0, got {warm_slots}")
    if measure_slots < 1:
        raise ValueError(f"measure_slots must be >= 1, got {measure_slots}")
    if not variants:
        raise ValueError("need at least one variant")

    def build() -> PacketSimEngine:
        return PacketSimEngine(
            instance,
            scheme,
            rate,
            packets_per_unit=PACKETS_PER_UNIT,
            seed=seed,
            backend="reference",
        )

    base = build().step(warm_slots)
    snap = base.snapshot()
    pre_fork = _fingerprint(base)

    goodputs: dict[str, list[float]] = {}
    for name in sorted(variants):
        sim = build().restore(snap)
        forked = _fingerprint(sim)
        if forked != pre_fork:
            raise RuntimeError(
                f"variant {name!r} forked from a diverged state: "
                f"{forked[:1]} != {pre_fork[:1]}"
            )
        mutate = variants[name]
        if mutate is not None:
            mutate(sim)
        sim.begin_window()
        sim.step(measure_slots)
        goodputs[name] = sim.window_goodput()
    return WarmForkReport(
        fork_slot=snap.slot,
        measure_slots=measure_slots,
        goodputs=goodputs,
        pre_fork=pre_fork,
    )
