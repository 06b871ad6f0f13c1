"""Pluggable packet-simulation backends.

A backend owns the *mutable transport state* of one broadcast run and
advances it slot by slot; the engine (:class:`repro.simulation.core.
PacketSimEngine`) owns the clock, the failure schedule and the
measurement windows.  The contract every backend implements:

``run(start_slot, num_slots)``
    Advance the state by ``num_slots`` slots.  The engine guarantees no
    failure fires inside the chunk (it splits stepping at failure
    boundaries), so backends never look at wall-clock slots except for
    bookkeeping.
``kill(node)``
    Mark a node as departed: all of its incident edges go dark from the
    next slot on.  Counters are kept so the caller can read the stall.
``delivered() / received()``
    Cumulative per-node arrival counts (used for goodput windows) and
    distinct packets currently held (``received[0]`` is 0 by convention:
    the source *originates* packets, it does not receive them).
``state() / load(payload)``
    A deep-copyable payload capturing *all* mutable state — including
    RNG state — so ``snapshot()``/``restore()`` and ``step(a); step(b)``
    ≡ ``step(a + b)`` hold exactly.  ``state()`` may hand out live
    references and ``load()`` may adopt the payload it is given: the
    engine owns the (single) deep copy on both sides.

Which backend applies where:

* ``reference`` — the per-edge dict loop of the historical
  ``simulate_packet_broadcast`` (bit-for-bit except the documented
  sample-fallback ordering, see :mod:`.reference`); handles *any*
  scheme, cyclic included.
* ``sharded`` — decomposes an acyclic equal-in-rate scheme into weighted
  arborescences (:mod:`repro.flows.arborescence`) and pipelines each
  substream deterministically with numpy, optionally across a
  ``workers``-sized thread pool (bit-identical results either way).
  Raises
  :class:`~repro.core.exceptions.DecompositionError` on cyclic schemes —
  ``backend="auto"`` falls back to the reference there.
* ``auto`` (resolved per run by :class:`~repro.simulation.core.
  PacketSimEngine`) — ``sharded`` when the run's scheme decomposes, else
  ``reference`` with the worker request dropped.  Every runtime scheme
  decomposes: the engine levels its truth-clipped ones (online
  estimation) to equal in-rates.  Clipped schemes that are not leveled
  (:mod:`repro.analysis.robustness`) mostly do not; ``sharded`` refuses
  unequal in-rates with the decomposition's own exact check, O(E),
  before the memo lookup and the cycle check, so the fallback stays
  cheap.

Every backend is built from the run's ``seed`` and draws, if at all,
from its own stock ``random.Random(seed)``.  The transport constants
live here: :data:`BURST_CAP`, the credit an edge may bank, and
:data:`RATE_BACKOFF`, the hair below the planned rate at which callers
inject so integer packet quantization never outruns edge capacity.

``auto`` is the default of :class:`~repro.runtime.engine.RuntimeEngine`
(and so of ``repro runtime``, ``repro sessions`` and batch sweeps),
which offers only ``auto`` and the ``reference`` oracle: wherever
``sharded`` would run, ``auto`` builds the same backend.
:class:`~repro.simulation.core.PacketSimEngine` and
``simulate_packet_broadcast`` keep ``backend="reference"`` as their
default (the historical oracle API) and accept ``sharded`` by name, for
tests and the scale path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Type

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core import SimConfig

__all__ = [
    "BURST_CAP",
    "RATE_BACKOFF",
    "SimBackend",
    "BACKENDS",
    "register_backend",
    "make_backend",
    "backend_names",
]

#: Credit an edge may bank beyond one slot's gain, in packets.
BURST_CAP = 4.0
#: Planned rates are simulated at this fraction so integer packet
#: quantization never asks an edge for more than it provisions.
RATE_BACKOFF = 1.0 - 1e-9


class SimBackend:
    """Base class (and duck-typed protocol) for simulation backends."""

    #: Registry key; also surfaced as ``PacketSimEngine.backend_name``.
    name: str = "?"
    #: Whether ``workers > 1`` is meaningful for this backend.
    supports_workers: bool = False

    def __init__(self, config: "SimConfig", seed: Optional[int]) -> None:
        raise NotImplementedError

    def run(self, start_slot: int, num_slots: int) -> None:
        raise NotImplementedError

    def kill(self, node: int) -> None:
        raise NotImplementedError

    def delivered(self) -> list[int]:
        raise NotImplementedError

    def received(self) -> list[int]:
        raise NotImplementedError

    def state(self) -> dict:
        raise NotImplementedError

    def load(self, payload: dict) -> None:
        raise NotImplementedError


BACKENDS: Dict[str, Type[SimBackend]] = {}


def register_backend(cls: Type[SimBackend]) -> Type[SimBackend]:
    """Class decorator adding a backend to the registry."""
    BACKENDS[cls.name] = cls
    return cls


def backend_names() -> list[str]:
    """Registered backend names (stable order: registration order)."""
    return list(BACKENDS)


def make_backend(
    name: str, config: "SimConfig", seed: Optional[int]
) -> SimBackend:
    """Instantiate a registered backend on ``config`` for run ``seed``."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown simulation backend {name!r} "
            f"(known: {', '.join(BACKENDS)})"
        ) from None
    workers = config.workers
    if workers is not None and workers > 1 and not cls.supports_workers:
        raise ValueError(
            f"backend {name!r} is single-threaded; workers={workers} "
            f"requires a backend with worker support ('sharded', or "
            f"'auto' on decomposable schemes)"
        )
    return cls(config, seed)


# Populate the registry (imports must come after the decorator exists).
from . import reference as _reference  # noqa: E402,F401
from . import sharded as _sharded  # noqa: E402,F401
