"""Planning-owned memo for Theorem 4.1 searches — a real LRU.

Churn revisits populations constantly (a peer leaves and an identical
one joins; a batch sweep re-runs the same scenario under every
controller), and :class:`~repro.core.instance.Instance` is
frozen/hashable, so search results are memoized by value: what the
dichotomic search found, the immutable ``(T*_ac, word)`` pair.  Each
planner runs the Lemma 4.6 packing itself, once per build, into the
form it keeps, so no entry holds mutable packing state.  Keys are
*delta-aware for free*: an incremental repair that lands back on a
previously seen population (same canonical instance) hits the same
entry, whichever event sequence produced it.  Arbitrary hashable keys
are accepted too via :meth:`PlanCache.get` / :meth:`PlanCache.put`, so
planners can memoize derived solves (run-length ``("collapsed", runs)``
solutions).  Incremental repairs are not memoized: they resume live
packing state, and replaying the same repair twice in one process is
too rare to pay for a snapshot.

The cache replaced the runtime engine's ``OverlayCache``, whose
"eviction" cleared the *entire* memo once ``max_entries`` was reached —
discarding every hot entry on the next insert.  Here eviction is
least-recently-used (``OrderedDict.move_to_end`` on hit,
``popitem(last=False)`` on overflow) and hit/miss/eviction counters are
surfaced so sweeps can report how much recomputation the cache absorbed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional

from ..algorithms.acyclic_guarded import optimal_acyclic_throughput
from ..core.instance import Instance

__all__ = ["CacheStats", "PlanCache"]

#: Distinguishes "key absent" from a stored ``None`` (e.g. a memoized
#: negative result) in :meth:`PlanCache.get`.
_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of one :class:`PlanCache`."""

    hits: int
    misses: int
    evictions: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class PlanCache:
    """LRU memo from hashable keys to planning artifacts.

    The primary entry point is :meth:`solve` — the memoized Theorem 4.1
    search keyed on the canonical instance.  :meth:`stats` keeps the
    historical ``(hits, misses)`` tuple shape; :meth:`counters` adds
    evictions.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._store: OrderedDict[Hashable, Any] = OrderedDict()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store

    # ------------------------------------------------------------------
    # Generic keyed access
    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Optional[Any]:
        """Fetch (and touch) ``key``; ``default`` on miss.  Counts hit/miss.

        A stored ``None`` is a legitimate entry (e.g. a memoized negative
        result) and counts as a hit.
        """
        value = self._store.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        self._store.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key`` as most-recently-used, evicting the LRU entry
        when full."""
        if key in self._store:
            self._store.move_to_end(key)
            self._store[key] = value
            return
        if len(self._store) >= self.max_entries:
            self._store.popitem(last=False)
            self.evictions += 1
        self._store[key] = value

    # ------------------------------------------------------------------
    # Theorem 4.1 memo
    # ------------------------------------------------------------------
    def solve(self, instance: Instance) -> tuple[float, str]:
        """Memoized dichotomic search: ``(T*_ac, greedy word at T*_ac)``."""
        found = self.get(instance)
        if found is None:
            found = optimal_acyclic_throughput(instance)
            self.put(instance, found)
        return found

    def optimal_rate(self, instance: Instance) -> float:
        """``T*_ac`` of ``instance`` (through the same memo)."""
        return self.solve(instance)[0]

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def stats(self) -> tuple[int, int]:
        """Historical ``(hits, misses)`` shape (see :meth:`counters`)."""
        return self.hits, self.misses

    def counters(self) -> CacheStats:
        return CacheStats(self.hits, self.misses, self.evictions)
