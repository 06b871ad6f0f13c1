"""Randomized packet-level broadcast simulator (Massoulié-style layer).

The paper's practical story (Section II-C): the optimization layer (this
library) builds an overlay with per-edge rates and no node contention;
the *transport* layer then runs Massoulié et al.'s randomized
decentralized broadcast [4], which provably achieves the overlay's
min-max-flow rate.  This module keeps the historical one-shot entry
point for that transport layer; the stateful machinery behind it lives
in :mod:`repro.simulation.core` (resumable engine) and
:mod:`repro.simulation.backends` (reference / sharded
implementations).

:func:`simulate_packet_broadcast` is a thin wrapper over
:class:`~repro.simulation.core.PacketSimEngine`: it warms up for the
first half of the run, opens the measurement window for the second and
condenses it into a :class:`~repro.simulation.core.PacketSimResult`;
every edge banks the transport's fixed
:data:`~repro.simulation.backends.BURST_CAP`.  With the default
``backend="reference"`` it executes the historical monolithic loop —
same RNG stream, drawn from ``random.Random(seed)``, same transfer
policy (see
:mod:`~repro.simulation.backends.reference` for the one snapshot-related
caveat) — which is how the existing test suite pins behavior.  The
measured per-node goodput over the steady-state window
converges to the scheme's throughput (up to slotting noise), including
on *cyclic* schemes where the tree decomposition of
:mod:`repro.flows.arborescence` does not apply.
"""

from __future__ import annotations

from typing import Optional

from ..core.instance import Instance
from ..core.scheme import BroadcastScheme
from .core import PacketSimEngine, PacketSimResult

__all__ = ["PacketSimResult", "simulate_packet_broadcast"]


def simulate_packet_broadcast(
    instance: Instance,
    scheme: BroadcastScheme,
    rate: float,
    *,
    slots: int = 400,
    packets_per_unit: float = 1.0,
    seed: Optional[int] = 0,
    failures: Optional[dict[int, int]] = None,
    backend: str = "reference",
    workers: Optional[int] = None,
) -> PacketSimResult:
    """Run the randomized useful-packet broadcast on an overlay.

    ``rate`` is the stream rate in bandwidth units; ``packets_per_unit``
    converts bandwidth units to packets per slot (increase it to reduce
    quantization noise at the cost of CPU).  The goodput window is the
    second half of the run; the first half warms the buffers up.

    Randomness is reproducible end to end: the default ``seed=0`` pins
    the run, any other int gives an independent pinned stream, and
    ``seed=None`` draws entropy from the OS.  Callers composing larger
    experiments derive one sub-seed per run, as the runtime engine does
    per epoch.

    ``failures`` maps node ids to the slot at which the node departs
    (churn injection): from that slot on, all of its incident edges go
    dark.  Departed nodes keep their goodput counters, so the result
    exposes both the departed node's stall and the collateral damage on
    downstream nodes — the paper's conclusion ("probably not resilient
    to churn") quantified.

    ``backend`` selects the simulation implementation (``"reference"``,
    ``"sharded"``, or ``"auto"``) and ``workers`` the
    shard thread pool — see :mod:`repro.simulation.backends` for which
    backend applies where.  For pause/resume, snapshots, or warm-state
    reuse across epochs, use :class:`~repro.simulation.core.
    PacketSimEngine` directly.
    """
    engine = PacketSimEngine(
        instance,
        scheme,
        rate,
        packets_per_unit=packets_per_unit,
        seed=seed,
        failures=failures,
        backend=backend,
        workers=workers,
    )
    warmup = slots // 2
    engine.step(warmup)
    engine.begin_window()
    engine.step(slots - warmup)
    return engine.result()
