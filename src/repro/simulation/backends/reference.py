"""The historical per-edge dict loop, with its exact RNG stream.

This backend reproduces the monolithic ``simulate_packet_broadcast``
loop exactly: the same RNG call sequence (one shuffle of the persistent
edge order per slot, then rejection-sampled useful-packet draws per
transfer), the same credit/burst arithmetic, the same missing-set
bookkeeping.  The one deliberate deviation is the rare exact-scan
fallback, which draws from a *sorted* pool instead of raw set iteration
order — set order depends on the set's allocation history, which no
snapshot can reproduce, and ``restore()`` must replay bit for bit.  The
historical test suite pins behavior through the wrapper, which makes
this backend the equivalence baseline the sharded backend is tested
against.

Exact-stream contract.  The backend draws from its own stock
``random.Random(seed)``.  The useful-packet draw is inlined into the
edge loop: up to 16 rejection tries ``pool[randrange(len(pool))]``, then
a uniform draw from the sorted useful packets.  Each try draws with ``k =
n.bit_length(); r = getrandbits(k); while r >= n: r = getrandbits(k)`` —
the body of the stdlib's ``Random._randbelow_with_getrandbits``, which
is what ``randrange(n)`` runs — so it consumes the very same bits
without the per-draw call frames.

Two more shortcuts skip work whose result is already known:

* *Empty useful set.*  When the relay holds no packet the receiver
  lacks (``items.isdisjoint(holder)``), all 16 tries must miss and the
  exact scan must find nothing, so the loop only consumes the tries'
  draws and stops: 16 accepted ``getrandbits(k)`` words below ``n``
  (rejected words are drawn again, exactly as each try would).  No draw
  is skipped, so the stream is unchanged; skipped are the pool lookups,
  the membership tests, the intersection and the sort.  The check comes
  after the pool compaction, which still runs because ``state()``
  exposes the pool.
* *Inlined shuffle.*  The slot's ``rng.shuffle(order)`` runs as the
  stdlib's Fisher–Yates body (``for i in reversed(range(1, len(x))):
  j = randbelow(i + 1)``) with the same getrandbits loop inlined for
  ``randbelow``, so the order and the bits consumed are the stdlib's.

Golden-state digests in ``tests/test_simulation_backends.py`` pin the
stream, the buffers, the credits and the RNG state against the original
implementation, and a property test there checks ``state()`` after
every step against a frozen copy of the loop from before the two
shortcuts.

It handles *any* scheme — cyclic ones included — which is why
``backend="auto"`` falls back to it whenever the arborescence
decomposition does not apply.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import TYPE_CHECKING, Optional

from . import BURST_CAP, SimBackend, register_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core import SimConfig

__all__ = ["ReferenceBackend"]

#: Rejection tries per draw before the exact-scan fallback.
_TRIES = 16


class _MissingSet:
    """Packets injected but not yet held by a node.

    Backed by a set plus a lazily-compacted list for O(1) random choice:
    ``pool`` keeps stale entries for packets that have since arrived
    until it grows past four times the live set.
    """

    __slots__ = ("items", "pool")

    def __init__(self) -> None:
        self.items: set[int] = set()
        self.pool: list[int] = []


@register_backend
class ReferenceBackend(SimBackend):
    """Per-edge Python loop with random useful-packet transfers."""

    name = "reference"
    supports_workers = False

    def __init__(self, config: "SimConfig", seed: Optional[int]) -> None:
        self.config = config
        self.rng = random.Random(seed)
        num = config.num
        self.edges = config.edge_list()
        self.credit = [0.0] * len(self.edges)
        self.have: list[set[int]] = [set() for _ in range(num)]
        self.missing = [_MissingSet() for _ in range(num)]
        self.injected = 0.0
        self.horizon = 0  # packets 0..horizon-1 exist
        self.arrivals = [0] * num
        self.order = list(range(len(self.edges)))
        self.dead: set[int] = set()

    def run(self, start_slot: int, num_slots: int) -> None:
        # Local bindings: this is the hot loop.
        rng = self.rng
        getrandbits = rng.getrandbits
        draw = rng._randbelow  # rng.randrange(n) minus its argument checks
        pkt_rate = self.config.pkt_rate
        credit, have, missing = self.credit, self.have, self.missing
        arrivals, order, dead = self.arrivals, self.order, self.dead
        receivers = missing[1:]
        # Per-edge constants for this run (kills only land between runs);
        # None marks an edge with a dead endpoint.
        plan = [
            None
            if u in dead or v in dead
            else (v, cap, BURST_CAP + cap, missing[v], have[v],
                  None if u == 0 else have[u])
            for u, v, cap in self.edges
        ]
        # rng.shuffle(order), inlined: position i swaps with
        # randbelow(i + 1), which draws (i + 1).bit_length() bits.
        swaps = [
            (i, (i + 1).bit_length()) for i in range(len(order) - 1, 0, -1)
        ]

        for _ in range(num_slots):
            self.injected += pkt_rate
            new_horizon = int(self.injected)
            if new_horizon > self.horizon:
                fresh = range(self.horizon, new_horizon)
                for m in receivers:
                    m.items.update(fresh)
                    m.pool.extend(fresh)
                self.horizon = new_horizon
            for i, k in swaps:
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                order[i], order[j] = order[j], order[i]
            for e in order:
                edge = plan[e]
                if edge is None:
                    continue
                v, cap, limit, m, got, holder = edge
                c = credit[e] + cap
                if c > limit:
                    c = limit
                if c < 1.0:
                    credit[e] = c
                    continue
                items = m.items
                sent = 0
                while items:
                    pool = m.pool
                    n = len(pool)
                    if n > 4 * len(items):
                        pool = m.pool = [p for p in pool if p in items]
                        n = len(pool)
                    k = n.bit_length()
                    if holder is not None and items.isdisjoint(holder):
                        # The relay holds nothing the receiver lacks: every
                        # try misses and the exact scan comes up empty, so
                        # spend the tries' draws and nothing else.
                        for _ in repeat(None, _TRIES):
                            while getrandbits(k) >= n:
                                pass
                        break
                    pkt = None
                    for _ in repeat(None, _TRIES):
                        r = getrandbits(k)
                        while r >= n:
                            r = getrandbits(k)
                        p = pool[r]
                        if p in items and (holder is None or p in holder):
                            pkt = p
                            break
                    if pkt is None:
                        # Exact scan (bounded by the node's lag), in
                        # sorted order so restores replay identically.
                        useful = sorted(
                            items if holder is None else items & holder
                        )
                        if not useful:
                            break
                        pkt = useful[draw(len(useful))]
                    got.add(pkt)
                    items.remove(pkt)
                    sent += 1
                    c -= 1.0
                    if c < 1.0:
                        break
                arrivals[v] += sent
                credit[e] = c

    def kill(self, node: int) -> None:
        self.dead.add(node)

    def delivered(self) -> list[int]:
        return self.arrivals

    def received(self) -> list[int]:
        return [len(h) for h in self.have]

    def state(self) -> dict:
        return {
            "credit": self.credit,
            "have": self.have,
            "missing": [(m.items, m.pool) for m in self.missing],
            "injected": self.injected,
            "horizon": self.horizon,
            "arrivals": self.arrivals,
            "order": self.order,
            "dead": self.dead,
            "rng": self.rng.getstate(),
        }

    def load(self, payload: dict) -> None:
        if (
            len(payload["have"]) != self.config.num
            or len(payload["credit"]) != len(self.edges)
        ):
            raise ValueError(
                "snapshot does not match this engine's overlay "
                f"({len(payload['have'])} node(s) / "
                f"{len(payload['credit'])} edge(s) saved vs "
                f"{self.config.num} / {len(self.edges)} here)"
            )
        self.credit = payload["credit"]
        self.have = payload["have"]
        self.missing = []
        for items, pool in payload["missing"]:
            m = _MissingSet()
            m.items, m.pool = items, pool
            self.missing.append(m)
        self.injected = payload["injected"]
        self.horizon = payload["horizon"]
        self.arrivals = payload["arrivals"]
        self.order = payload["order"]
        self.dead = payload["dead"]
        self.rng.setstate(payload["rng"])
