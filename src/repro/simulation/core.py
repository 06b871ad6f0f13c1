"""Stateful, resumable packet-simulation engine.

Historically the transport layer was one monolithic function that ran a
fixed number of slots from empty buffers and returned.  That shape made
two ROADMAP items impossible: *warm-state epochs* (the runtime engine
re-validating an overlay every epoch was measuring ramp-up artifacts,
not steady state) and *many-thousand-node swarms* (one Python loop over
every edge).  :class:`PacketSimEngine` splits the two concerns:

* the **engine** (this module) owns the clock, a precomputed failure
  schedule (a heap — the old code rescanned the whole ``failures`` dict
  every slot), and measurement windows over cumulative arrival counts;
* a pluggable **backend** (:mod:`repro.simulation.backends`) owns the
  buffers/credits/RNG and advances them slot by slot; it is built from
  the run's ``seed`` and banks at most
  :data:`~repro.simulation.backends.BURST_CAP` credit per edge.

Everything is resumable: ``step(a); step(b)`` is state-identical to
``step(a + b)``, and :meth:`snapshot`/:meth:`restore` capture and replay
the complete transport state (RNG included), so callers can pause a run,
inject failures mid-stream, fork what-if continuations, or carry warm
buffers across controller epochs.

>>> from repro.core.instance import Instance
>>> from repro.core.scheme import BroadcastScheme
>>> inst = Instance.open_only(1.0, (0.0,))
>>> scheme = BroadcastScheme.from_edges(2, [(0, 1, 1.0)])
>>> sim = PacketSimEngine(inst, scheme, 1.0, seed=0)
>>> sim.step(100).begin_window()
>>> round(sim.step(100).window_goodput()[1], 2)
1.0
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass, field, replace
from typing import Optional

from ..core.exceptions import DecompositionError
from ..core.instance import Instance
from ..core.scheme import BroadcastScheme
from .backends import backend_names, make_backend

__all__ = [
    "SimConfig",
    "SimSnapshot",
    "PacketSimResult",
    "PacketSimEngine",
]


@dataclass(frozen=True)
class SimConfig:
    """Immutable knobs shared by the engine and its backend."""

    scheme: BroadcastScheme
    rate: float  #: stream rate in bandwidth units
    packets_per_unit: float = 1.0
    #: Thread-pool size for worker-capable backends (``sharded``).
    workers: Optional[int] = None

    @property
    def num(self) -> int:
        return self.scheme.num_nodes

    @property
    def pkt_rate(self) -> float:
        """Packets injected by the source per slot."""
        return self.rate * self.packets_per_unit

    def edge_list(self) -> list[tuple[int, int, float]]:
        """Scheme edges with capacities converted to packets per slot."""
        return [
            (i, j, c * self.packets_per_unit) for i, j, c in self.scheme.edges()
        ]


@dataclass
class SimSnapshot:
    """A frozen copy of a run's complete transport state."""

    backend: str
    slot: int
    failures: list  #: pending (slot, node) failure heap entries
    window_slot: int
    window_base: list[int]
    payload: dict  #: backend state (buffers, credits, RNG, ...)


@dataclass
class PacketSimResult:
    """Outcome of a packet simulation run."""

    slots: int
    rate: float  #: source injection rate (bandwidth units)
    received: list[int]  #: packets held per node at the end
    goodput: list[float]  #: per-node rate (bandwidth units) in the window
    window: tuple[int, int]  #: (start, end) slots of the measurement window
    min_goodput: float = field(init=False)

    def __post_init__(self) -> None:
        receivers = self.goodput[1:]
        self.min_goodput = min(receivers) if receivers else float("inf")

    def efficiency(self) -> float:
        """Worst receiver goodput as a fraction of the injection rate."""
        return self.min_goodput / self.rate if self.rate > 0 else 1.0


class PacketSimEngine:
    """A pausable randomized-broadcast run over one overlay.

    Parameters mirror :func:`~repro.simulation.packet_sim.
    simulate_packet_broadcast` (which is now a thin wrapper over this
    class); the additions are ``backend`` — ``"reference"``,
    ``"sharded"``, or ``"auto"`` (sharded when the
    scheme decomposes into arborescences, reference otherwise) — and
    ``workers``, the thread-pool size of backends that shard their work.

    ``failures`` maps node ids to the **absolute** slot at which the
    node departs; more failures can be scheduled later with
    :meth:`fail_node` (e.g. churn discovered mid-run).
    """

    def __init__(
        self,
        instance: Instance,
        scheme: BroadcastScheme,
        rate: float,
        *,
        packets_per_unit: float = 1.0,
        seed: Optional[int] = 0,
        failures: Optional[dict[int, int]] = None,
        backend: str = "reference",
        workers: Optional[int] = None,
    ) -> None:
        if scheme.num_nodes != instance.num_nodes:
            raise ValueError("scheme/instance node count mismatch")
        if rate < 0:
            raise ValueError("rate must be non-negative")
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.instance = instance
        self.config = SimConfig(
            scheme=scheme,
            rate=rate,
            packets_per_unit=packets_per_unit,
            workers=workers,
        )
        if backend == "auto":
            try:
                self._backend = make_backend("sharded", self.config, seed)
            except DecompositionError:
                # "auto" means best *applicable*: the fallback runs the
                # serial reference loop, so drop the worker request
                # instead of rejecting it.
                self._backend = make_backend(
                    "reference",
                    replace(self.config, workers=None),
                    seed,
                )
        else:
            self._backend = make_backend(backend, self.config, seed)
        self.backend_name = self._backend.name
        self.slot = 0
        self._failures: list[tuple[int, int]] = []  # (slot, node) heap
        for node, when in (failures or {}).items():
            self.fail_node(node, when)
        self._win_slot = 0
        self._win_base = [0] * self.config.num

    # ------------------------------------------------------------------
    # Failure schedule
    # ------------------------------------------------------------------
    def fail_node(self, node: int, slot: Optional[int] = None) -> None:
        """Schedule ``node`` to depart at absolute ``slot`` (default: now).

        From that slot on all of the node's incident edges go dark; its
        counters are kept so results expose both its stall and the
        collateral starvation downstream.
        """
        if not 0 < node < self.config.num:
            raise ValueError(f"cannot fail node {node} (source or oob)")
        when = self.slot if slot is None else slot
        if when < 0:
            raise ValueError("failure slots must be >= 0")
        if when < self.slot:
            raise ValueError(
                f"cannot schedule a failure at slot {when}: the run is "
                f"already at slot {self.slot}"
            )
        heapq.heappush(self._failures, (when, node))

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, slots: int) -> "PacketSimEngine":
        """Advance the run by ``slots`` slots (chainable).

        The slot range is split at scheduled failure boundaries so each
        departure takes effect exactly at the top of its slot — the same
        semantics the monolithic simulator had, without rescanning the
        failure map every slot.
        """
        if slots < 0:
            raise ValueError(f"slots must be >= 0, got {slots}")
        target = self.slot + slots
        while self.slot < target:
            while self._failures and self._failures[0][0] <= self.slot:
                self._backend.kill(heapq.heappop(self._failures)[1])
            nxt = target
            if self._failures and self._failures[0][0] < target:
                nxt = max(self._failures[0][0], self.slot + 1)
            self._backend.run(self.slot, nxt - self.slot)
            self.slot = nxt
        return self

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def begin_window(self) -> "PacketSimEngine":
        """Start a fresh goodput measurement window at the current slot."""
        self._win_slot = self.slot
        self._win_base = list(self._backend.delivered())
        return self

    def window_goodput(self) -> list[float]:
        """Per-node goodput (bandwidth units) over the current window."""
        counts = self._backend.delivered()
        span = max(self.slot - self._win_slot, 1)
        ppu = self.config.packets_per_unit
        goodput = [
            (counts[v] - self._win_base[v]) / span / ppu
            for v in range(self.config.num)
        ]
        goodput[0] = float("inf")
        return goodput

    def delivered(self) -> list[int]:
        """Cumulative packet arrivals per node since slot 0."""
        return list(self._backend.delivered())

    def received(self) -> list[int]:
        """Distinct packets currently held per node."""
        return list(self._backend.received())

    def result(self) -> PacketSimResult:
        """Condense the current window into a :class:`PacketSimResult`."""
        return PacketSimResult(
            slots=self.slot,
            rate=self.config.rate,
            received=self.received(),
            goodput=self.window_goodput(),
            window=(self._win_slot, self.slot),
        )

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> SimSnapshot:
        """Freeze the complete transport state (reusable, immutable)."""
        return SimSnapshot(
            backend=self.backend_name,
            slot=self.slot,
            failures=list(self._failures),
            window_slot=self._win_slot,
            window_base=list(self._win_base),
            payload=copy.deepcopy(self._backend.state()),
        )

    def restore(self, snap: SimSnapshot) -> "PacketSimEngine":
        """Rewind (or fast-forward) to a snapshot taken from this run."""
        if snap.backend != self.backend_name:
            raise ValueError(
                f"snapshot was taken with backend {snap.backend!r}, "
                f"this engine runs {self.backend_name!r}"
            )
        self.slot = snap.slot
        self._failures = list(snap.failures)
        self._win_slot = snap.window_slot
        self._win_base = list(snap.window_base)
        self._backend.load(copy.deepcopy(snap.payload))
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PacketSimEngine(backend={self.backend_name!r}, "
            f"slot={self.slot}, nodes={self.config.num}, "
            f"rate={self.config.rate:g})"
        )


def available_backends() -> list[str]:
    """Names accepted by ``backend=`` (registry order, plus ``auto``)."""
    return backend_names() + ["auto"]
