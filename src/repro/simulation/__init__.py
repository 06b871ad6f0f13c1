"""Transport-layer simulators validating constructed overlays.

The packet layer is a small subsystem: a resumable engine
(:class:`PacketSimEngine` — pause/resume, snapshots, failure injection,
warm state across epochs) over pluggable backends
(:mod:`repro.simulation.backends` — ``reference`` and ``sharded``,
plus the ``auto`` choice between them; the runtime engine runs ``auto``
or the ``reference`` oracle, and ``workers`` sizes the ``sharded``
thread pool).
:func:`simulate_packet_broadcast` remains the one-shot
entry point, and :mod:`repro.simulation.fluid` the deterministic
fluid-schedule view.
"""

from .backends import backend_names
from .core import (
    PacketSimEngine,
    PacketSimResult,
    SimConfig,
    SimSnapshot,
    available_backends,
)
from .fluid import FluidSchedule, fluid_schedule
from .packet_sim import simulate_packet_broadcast

__all__ = [
    "simulate_packet_broadcast",
    "PacketSimResult",
    "PacketSimEngine",
    "SimConfig",
    "SimSnapshot",
    "available_backends",
    "backend_names",
    "fluid_schedule",
    "FluidSchedule",
]
