"""Run-length (class, multiplicity) instances and collapsed schemes.

The paper's constructions never distinguish identical nodes: the Lemma 4.6
two-pool packing, the Algorithm 2 greedy oracle and the Lemma 5.1 rate
bounds all depend only on the *multiset* of bandwidths.  This module
exploits that for scale: a :class:`ClassRuns` stores an instance as sorted
``(bandwidth, multiplicity)`` runs, and a :class:`RunScheme` stores a
packed broadcast scheme as per-segment *feed records* (who supplied which
contiguous span of the demand line) instead of per-node edge dicts.

Both expand lazily:

* ``ClassRuns.to_instance()`` materializes the per-node
  :class:`~repro.core.instance.Instance` (cached);
* ``RunScheme.edge_arrays()`` expands feed records to ``(src, dst, rate)``
  numpy arrays in O(edges) vectorized work, and
  :class:`LazyExpandedScheme` wraps that as a real
  :class:`~repro.core.scheme.BroadcastScheme` whose adjacency dicts are
  only built on first structural access.

Aggregates (``open_sum`` …) are computed with ``math.fsum`` over the
expanded values: ``fsum`` is correctly rounded, so the result is
bit-identical to the per-node path no matter how the nodes are grouped —
the keystone of the collapsed-vs-full rate equivalence guarantee.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .bounds import cyclic_bound
from .instance import Instance
from .numerics import ABS_TOL
from .scheme import BroadcastScheme

__all__ = [
    "ClassRuns",
    "SupplyBlock",
    "FeedPortion",
    "SegmentFeed",
    "RunScheme",
    "LazyExpandedScheme",
]

Run = Tuple[float, int]


def _normalize_runs(values: Iterable[Run]) -> tuple[Run, ...]:
    """Sort non-increasingly by bandwidth and merge equal-bandwidth runs."""
    cleaned: list[list[float | int]] = []
    for bw, count in values:
        bw = float(bw)
        count = int(count)
        if count < 0:
            raise ValueError(f"negative multiplicity {count}")
        if count == 0:
            continue
        if not math.isfinite(bw) or bw < 0.0:
            raise ValueError(f"bandwidths must be finite and >= 0, got {bw}")
        cleaned.append([bw, count])
    cleaned.sort(key=lambda r: -r[0])
    merged: list[list[float | int]] = []
    for bw, count in cleaned:
        if merged and merged[-1][0] == bw:
            merged[-1][1] += count
        else:
            merged.append([bw, count])
    return tuple((float(bw), int(count)) for bw, count in merged)


def _expand_values(runs: Sequence[Run]) -> Iterator[float]:
    # ``repeat``/``chain`` iterate at C speed; ``fsum`` sees the same
    # value sequence as a per-node loop would feed it.
    return itertools.chain.from_iterable(
        itertools.repeat(bw, count) for bw, count in runs
    )


def _runs_to_array(runs: Sequence[Run]) -> np.ndarray:
    if not runs:
        return np.empty(0, dtype=float)
    bws = np.array([r[0] for r in runs], dtype=float)
    counts = np.array([r[1] for r in runs], dtype=np.int64)
    return np.repeat(bws, counts)


@dataclass(frozen=True)
class ClassRuns:
    """A broadcast instance in run-length form.

    ``open_runs`` / ``guarded_runs`` are ``(bandwidth, multiplicity)``
    pairs, normalized to non-increasing bandwidth order with equal
    bandwidths merged — the canonical order of
    :class:`~repro.core.instance.Instance`, so run ``k`` covers a
    contiguous span of canonical node ids.  Hashable (usable as a
    :class:`~repro.planning.PlanCache` key).
    """

    source_bw: float
    open_runs: tuple[Run, ...] = ()
    guarded_runs: tuple[Run, ...] = ()

    def __post_init__(self) -> None:
        b0 = float(self.source_bw)
        if not math.isfinite(b0) or b0 < 0.0:
            raise ValueError(f"source bandwidth must be finite >= 0, got {b0}")
        object.__setattr__(self, "source_bw", b0)
        object.__setattr__(self, "open_runs", _normalize_runs(self.open_runs))
        object.__setattr__(
            self, "guarded_runs", _normalize_runs(self.guarded_runs)
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_classes(
        cls,
        source_bw: float,
        classes: Iterable[tuple[str, float, int]],
    ) -> "ClassRuns":
        """Build from ``(kind, bandwidth, multiplicity)`` class specs.

        ``kind`` is ``"open"`` or ``"guarded"``.
        """
        opens: list[Run] = []
        guardeds: list[Run] = []
        for kind, bw, count in classes:
            if kind == "open":
                opens.append((bw, count))
            elif kind == "guarded":
                guardeds.append((bw, count))
            else:
                raise ValueError(f"unknown node kind {kind!r}")
        return cls(source_bw, tuple(opens), tuple(guardeds))

    @classmethod
    def from_instance(cls, instance: Instance) -> "ClassRuns":
        """Collapse an (already sorted) instance into runs."""
        return cls(
            instance.source_bw,
            tuple(
                (bw, len(list(g)))
                for bw, g in itertools.groupby(instance.open_bws)
            ),
            tuple(
                (bw, len(list(g)))
                for bw, g in itertools.groupby(instance.guarded_bws)
            ),
        )

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return sum(c for _, c in self.open_runs)

    @property
    def m(self) -> int:
        return sum(c for _, c in self.guarded_runs)

    @property
    def num_receivers(self) -> int:
        return self.n + self.m

    @property
    def num_nodes(self) -> int:
        return 1 + self.num_receivers

    @property
    def num_classes(self) -> int:
        return len(self.open_runs) + len(self.guarded_runs)

    @property
    def open_sum(self) -> float:
        """``fsum`` of the expanded open bandwidths (bit-identical to
        :attr:`Instance.open_sum` — fsum is correctly rounded)."""
        return math.fsum(_expand_values(self.open_runs))

    @property
    def guarded_sum(self) -> float:
        return math.fsum(_expand_values(self.guarded_runs))

    def cyclic_optimum(self) -> float:
        """Lemma 5.1 closed form, bit-identical to
        :func:`repro.core.bounds.cyclic_optimum` on the expanded instance."""
        return cyclic_bound(
            self.source_bw, self.n, self.m, self.open_sum, self.guarded_sum
        )

    # ------------------------------------------------------------------
    def open_array(self) -> np.ndarray:
        return _runs_to_array(self.open_runs)

    def guarded_array(self) -> np.ndarray:
        return _runs_to_array(self.guarded_runs)

    def to_instance(self) -> Instance:
        """Materialize the per-node instance (O(n + m); not cached —
        callers that need it repeatedly should keep a reference)."""
        return Instance(
            self.source_bw,
            tuple(float(v) for v in self.open_array()),
            tuple(float(v) for v in self.guarded_array()),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClassRuns(b0={self.source_bw:g}, n={self.n} in "
            f"{len(self.open_runs)} runs, m={self.m} in "
            f"{len(self.guarded_runs)} runs)"
        )


# ----------------------------------------------------------------------
# Collapsed schemes: run-length feed records with lazy edge expansion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SupplyBlock:
    """``count`` consecutive nodes starting at ``start`` supplying
    ``each`` rate apiece (in FIFO order along the demand line)."""

    start: int
    count: int
    each: float


@dataclass(frozen=True)
class FeedPortion:
    """A contiguous span of a segment's demand line served by ``blocks``.

    ``offset`` is where the span begins on the demand line (0 = start of
    the segment's first receiver).  Supply block boundaries beyond the
    segment's total demand are clamped at expansion time.
    """

    offset: float
    blocks: tuple[SupplyBlock, ...]


@dataclass(frozen=True)
class SegmentFeed:
    """Feed record for ``count`` consecutive receivers starting at node
    ``first``, each demanding ``rate``."""

    first: int
    count: int
    rate: float
    portions: tuple[FeedPortion, ...]


class RunScheme:
    """A packed broadcast scheme in run-length (feed record) form.

    Stores O(classes + word alternations) records instead of O(edges)
    dicts; :meth:`edge_arrays` expands to flat numpy edge arrays and
    :meth:`expand` to a full :class:`BroadcastScheme`.
    """

    __slots__ = ("num_nodes", "rate", "feeds")

    def __init__(
        self, num_nodes: int, rate: float, feeds: Sequence[SegmentFeed]
    ):
        self.num_nodes = int(num_nodes)
        self.rate = float(rate)
        self.feeds = tuple(feeds)

    # ------------------------------------------------------------------
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand to ``(src, dst, rate)`` arrays.

        Per feed record, the demand line ``[0, count * rate)`` is cut at
        receiver boundaries ``k * rate`` and at cumulative supply
        boundaries; each resulting interval is one edge.  Fully
        vectorized: O(edges) with a handful of numpy calls per record.
        """
        srcs: list[np.ndarray] = []
        dsts: list[np.ndarray] = []
        rates: list[np.ndarray] = []
        for feed in self.feeds:
            if feed.rate <= 0.0 or feed.count <= 0:
                continue
            demand_end = feed.count * feed.rate
            cuts = feed.rate * np.arange(feed.count + 1, dtype=float)
            for portion in feed.portions:
                if not portion.blocks:
                    continue
                node_ids = np.concatenate(
                    [
                        np.arange(b.start, b.start + b.count, dtype=np.int64)
                        for b in portion.blocks
                    ]
                )
                amounts = np.concatenate(
                    [np.full(b.count, b.each, dtype=float) for b in portion.blocks]
                )
                bounds = np.empty(node_ids.size + 1, dtype=float)
                bounds[0] = portion.offset
                np.add.accumulate(amounts, out=bounds[1:])
                bounds[1:] += portion.offset
                np.minimum(bounds, demand_end, out=bounds)
                lo_k = int(np.searchsorted(cuts, bounds[0], side="right"))
                hi_k = int(np.searchsorted(cuts, bounds[-1], side="left"))
                inner = cuts[lo_k:hi_k]
                events = np.concatenate([bounds, inner])
                events.sort(kind="mergesort")
                widths = np.diff(events)
                starts = events[:-1]
                keep = widths > ABS_TOL
                if not np.any(keep):
                    continue
                starts = starts[keep]
                widths = widths[keep]
                src_idx = np.searchsorted(bounds, starts, side="right") - 1
                np.clip(src_idx, 0, node_ids.size - 1, out=src_idx)
                dst_idx = np.searchsorted(cuts, starts, side="right") - 1
                np.clip(dst_idx, 0, feed.count - 1, out=dst_idx)
                edge_src = node_ids[src_idx]
                edge_dst = feed.first + dst_idx
                ok = edge_src != edge_dst
                if not np.all(ok):
                    # Self-overlaps can only be float dust at a shared
                    # boundary; anything wider means an infeasible pack.
                    bad = widths[~ok]
                    if np.any(bad > 1e-6 * max(1.0, feed.rate)):
                        raise ValueError(
                            "collapsed pack produced a self-feeding edge"
                        )
                    edge_src = edge_src[ok]
                    edge_dst = edge_dst[ok]
                    widths = widths[ok]
                srcs.append(edge_src)
                dsts.append(edge_dst)
                rates.append(widths)
        if not srcs:
            empty_i = np.empty(0, dtype=np.int64)
            return empty_i, empty_i.copy(), np.empty(0, dtype=float)
        return (
            np.concatenate(srcs),
            np.concatenate(dsts),
            np.concatenate(rates),
        )

    def expand(self) -> BroadcastScheme:
        """Materialize the full per-node :class:`BroadcastScheme`."""
        scheme = BroadcastScheme(self.num_nodes)
        out = scheme._out
        src, dst, rate = self.edge_arrays()
        for i, j, r in zip(src.tolist(), dst.tolist(), rate.tolist()):
            row = out[i]
            row[j] = row.get(j, 0.0) + r
        return scheme

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunScheme(nodes={self.num_nodes}, rate={self.rate:g}, "
            f"feeds={len(self.feeds)})"
        )


class LazyExpandedScheme(BroadcastScheme):
    """A :class:`BroadcastScheme` whose adjacency dicts are expanded from
    a :class:`RunScheme` on first structural access.

    ``num_nodes`` (and therefore engine plumbing that only sizes things)
    never triggers expansion; any per-edge query does.  Passes
    ``isinstance(..., BroadcastScheme)`` checks and supports the full
    scheme API after expansion.
    """

    __slots__ = ("_collapsed", "_expanded_out")

    def __init__(self, collapsed: RunScheme):
        # Deliberately skip BroadcastScheme.__init__: _out is shadowed by
        # the lazy property below.
        if collapsed.num_nodes <= 0:
            raise ValueError("a scheme needs at least the source node")
        self.num_nodes = collapsed.num_nodes
        self._collapsed = collapsed
        self._expanded_out = None

    @property
    def collapsed(self) -> RunScheme:
        return self._collapsed

    @property
    def is_expanded(self) -> bool:
        return self._expanded_out is not None

    @property
    def _out(self):
        if self._expanded_out is None:
            self._expanded_out = self._collapsed.expand()._out
        return self._expanded_out

    @_out.setter
    def _out(self, value):  # pragma: no cover - copy/deepcopy protocols
        self._expanded_out = value
