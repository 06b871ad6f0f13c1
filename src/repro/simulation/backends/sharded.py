"""Arborescence-sharded backend for acyclic equal-in-rate schemes.

Section II-C of the paper: an acyclic scheme whose receivers all ingest
at the scheme rate ``T`` decomposes into weighted spanning arborescences
(:func:`repro.flows.arborescence.decompose_broadcast_arrays`) — tree
``k`` carries an independent substream at rate ``w_k`` with
``sum_k w_k = T``.  This backend simulates each substream separately and
recombines per-node goodput, which buys two things:

* **determinism + speed** — inside a tree every receiver has exactly one
  parent, so packets arrive *in order* and the whole transfer step
  reduces to integer counters: per slot, per tree-depth level, one
  vectorized ``min(whole credit, parent backlog)`` over all (tree, node)
  pairs at that depth.  No per-packet sets, no RNG.  At ``n = 1000``
  this is about 6x faster than the (inlined) reference loop;
* **sharding** — trees are independent, so they split into groups that
  can advance on a thread pool (``workers=N``); results are
  bit-identical regardless of worker count or scheduling.

:class:`ShardFleet` is the one runner, used by both paths: the scale
pipeline (:func:`repro.analysis.scale.build_fleet`) builds one straight
from edge arrays, and :class:`ShardedBackend` is a thin adapter that
decomposes its config's scheme the same way — the scheme's ``(src, dst,
rate)`` edge arrays straight into
:func:`~repro.flows.arborescence.decompose_broadcast_arrays`, memoized on
their bytes — holds a fleet and forwards ``run`` / ``kill`` /
``delivered`` to it.

A shard stores its (tree, receiver) pairs **level-contiguous**: the K
sources first, then every pair in BFS order (depth, then parent
position, then receiver id), with the edge state (capacity, credit,
liveness) indexed like the receivers.  Depth level ``d`` is then one
slice ``[a_d, b_d)`` of the counters and of the floors, updated in place
with a single gather of the parents' counts (whose positions never
decrease inside a level).  This is exact, not an approximation: the
update of level ``d`` reads only level ``d - 1`` (already final for the
slot) and its own pairs, so any storage order that keeps parents ahead
of children applies the same integer operations to the same values —
only the memory walk changes.  The order comes from one stable argsort
of the flat parent ids (CSR children) and a frontier expansion, O(K·n)
for K trees over n nodes; a receiver the frontier never reaches (a
cycle, a ``-1`` parent) is rejected.

Node failures dark every tree edge incident to the dead node, so its
subtrees stall in every substream — the same collateral-damage model the
reference implements.  Cyclic or unequal-in-rate schemes raise
:class:`~repro.core.exceptions.DecompositionError`; ``backend="auto"``
(the runtime engine's default) falls back to the reference backend for
those.  Unequal in-rates — most capacity-clipped schemes that are not
leveled, such as :mod:`repro.analysis.robustness`'s (the runtime levels
its own, see :func:`~repro.flows.arborescence.level_in_rates`) — are
refused by the decomposition's own exact check
(:func:`~repro.flows.arborescence.common_in_rate`) on the backend's
per-receiver sums, before the memo lookup and the cycle check, so a
refusal costs about as much as building the edge arrays and summing the
in-rates.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Optional

import numpy as np

from ...core.exceptions import DecompositionError
from ...flows.arborescence import common_in_rate, decompose_broadcast_arrays
from . import BURST_CAP, SimBackend, register_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core import SimConfig

__all__ = ["ShardFleet", "ShardedBackend"]

#: Value-keyed memo of recent decompositions.  The runtime engine's
#: cold mode builds a fresh backend on an unchanged scheme every epoch
#: of a plan; the key is the bytes of the scheme's ``(src, dst, rate)``
#: edge arrays, which the backend builds anyway, so a lookup costs one
#: O(E) hash against the greedy extraction's many passes.  Keying by
#: value (not identity) stays correct if a caller mutates a scheme
#: between runs.  Two schemes with the same edges inserted in another
#: order get separate entries but equal decompositions: the greedy sorts
#: each receiver's in-edges by sender.  The lock keeps eviction safe for
#: library callers that construct backends from several threads at once.
_DECOMPOSITION_MEMO: dict = {}  # edge-array bytes -> (weights, parents)
_MEMO_SIZE = 8
_MEMO_LOCK = threading.Lock()


def _decompose_cached(
    scheme, src: np.ndarray, dst: np.ndarray, rate: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(weights, parents)`` of ``scheme``, whose edge arrays are
    ``src``/``dst``/``rate``; raises DecompositionError for a cyclic
    scheme, as :func:`decompose_broadcast_trees` does."""
    num = scheme.num_nodes
    key = (num, src.tobytes(), dst.tobytes(), rate.tobytes())
    with _MEMO_LOCK:
        arrays = _DECOMPOSITION_MEMO.get(key)
    if arrays is None:
        if not scheme.is_acyclic():
            raise DecompositionError(
                "greedy tree decomposition requires an acyclic scheme"
            )
        if src.size:
            arrays = decompose_broadcast_arrays(num, src, dst, rate)
        else:
            arrays = (np.zeros(0), np.zeros((0, num), dtype=np.int64))
        with _MEMO_LOCK:
            if len(_DECOMPOSITION_MEMO) >= _MEMO_SIZE:
                _DECOMPOSITION_MEMO.pop(
                    next(iter(_DECOMPOSITION_MEMO)), None
                )
            _DECOMPOSITION_MEMO[key] = arrays
    return arrays


class _TreeShard:
    """A group of arborescences advanced together with numpy counters.

    State per tree ``k``: the source's injected substream (a float
    accumulator whose floor is the substream horizon) and, per receiver
    ``v``, the count of substream packets received plus the credit of
    the unique in-edge ``(parent_k(v), v)``.  Packets arrive in order,
    so counts are the entire transport state.

    The layout is private: ``recv`` holds tree ``k``'s source at
    position ``k < K``, then every (tree, receiver) pair in BFS order —
    depth, then parent position, then receiver id.  ``cap``, ``credit``
    and ``alive`` are indexed like that receiver block (position minus
    ``K`` is the pair's in-edge), so each depth level is one contiguous
    slice of both.  ``_perm`` maps the flat pair id ``k * num + v`` to
    its position; :meth:`delivered` and :meth:`kill` translate through it.
    """

    def __init__(
        self,
        weights: np.ndarray,
        parents: np.ndarray,
        num: int,
        rate_fraction: float,
        packets_per_unit: float,
        burst_cap: float,
    ) -> None:
        weights = np.asarray(weights, dtype=float)
        K = len(weights)
        parents = np.asarray(parents, dtype=np.int64).reshape(K, num)
        self.num = num
        self.K = K
        #: Substream injection rate (packets/slot): the tree's share of
        #: the requested stream rate.
        self.inj = weights * rate_fraction * packets_per_unit
        self._perm, self._par, self._levels = self._build_levels(parents, num)
        #: Per-edge credit gained per slot: the tree's *capacity* share,
        #: scattered from tree-major pair order into the layout.
        self.cap = np.empty(K * (num - 1))
        self.cap[self._edges()] = np.repeat(weights * packets_per_unit, num - 1)
        self.burst_cap = burst_cap
        self.injected = np.zeros(K)
        self.recv = np.zeros(K * num, dtype=np.int64)  # by position
        self.credit = np.zeros(K * (num - 1))
        self.alive = np.ones(K * (num - 1), dtype=bool)

    def _edges(self) -> np.ndarray:
        """Edge-state index of every pair, in tree-major ``(k, v >= 1)``
        order: entry ``k * (num - 1) + v - 1`` is where the in-edge of
        ``v`` in tree ``k`` lives in ``cap`` / ``credit`` / ``alive``."""
        return (self._perm.reshape(self.K, self.num)[:, 1:] - self.K).ravel()

    @staticmethod
    def _build_levels(
        parents: np.ndarray, num: int
    ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, np.ndarray]]]:
        """BFS over all trees at once in O(K·n).

        Returns ``(perm, par, levels)``: ``perm`` maps the flat pair id
        ``k * num + v`` to its position, ``par`` holds every receiver
        position's parent position, and ``levels`` lists one
        ``(a, b, par[a:b])`` per depth — receiver block ``[a, b)``, whose
        parents all sit at positions before ``K + a``.
        """
        K = len(parents)
        total = K * num
        idx = np.int32 if total < np.iinfo(np.int32).max else np.int64
        # Flat parent id of every (tree, receiver) pair.  A -1 (or out
        # of range) parent goes to a sentinel bucket no frontier reads.
        kid = parents[:, 1:]
        flat_parent = np.where(
            (kid >= 0) & (kid < num),
            kid + np.arange(0, total, num, dtype=idx)[:, None],
            total,
        ).astype(idx).ravel()
        # CSR children: the stable sort keeps siblings in receiver order;
        # pair e = k * (num - 1) + v - 1 has flat id e + k + 1.
        order = np.argsort(flat_parent, kind="stable")
        child = (order + order // max(num - 1, 1) + 1).astype(idx)
        del order
        start = np.zeros(total + 2, dtype=idx)
        np.cumsum(np.bincount(flat_parent, minlength=total + 1), out=start[1:])
        del flat_parent
        perm = np.empty(total, dtype=np.intp)
        frontier = np.arange(0, total, num, dtype=idx)  # the sources
        frontier_pos = np.arange(K, dtype=np.intp)
        perm[frontier] = frontier_pos
        bounds, pars = [], []
        filled = K
        while True:
            lo = start[frontier]
            counts = start[frontier + 1] - lo
            size = int(counts.sum())
            if size == 0:
                break
            # The frontier's child ranges [lo, lo + count), concatenated.
            offsets = np.repeat(lo - (np.cumsum(counts) - counts), counts)
            frontier = child[offsets + np.arange(size, dtype=idx)]
            pars.append(np.repeat(frontier_pos, counts))
            frontier_pos = np.arange(filled, filled + size, dtype=np.intp)
            perm[frontier] = frontier_pos
            bounds.append((filled - K, filled - K + size))
            filled += size
        if filled != total:
            raise ValueError(
                "arborescence contains a node unreachable from the source"
            )
        par = np.concatenate(pars) if pars else np.empty(0, dtype=np.intp)
        return perm, par, [(a, b, par[a:b]) for a, b in bounds]

    def run(self, num_slots: int) -> None:
        recv, credit, alive = self.recv, self.credit, self.alive
        cap, K = self.cap, self.K
        # Whole-slot flat passes + a tiny per-level propagation step.
        # ``recv[v] <= recv[parent(v)]`` is invariant inside a tree (both
        # start at 0, a child only ever catches up to its parent, and the
        # source only grows), so the per-edge transfer
        #     moved = min(floor(gained), recv'[parent] - recv[v])
        # is exactly ``recv'[v] = min(recv[v] + floor(gained),
        # recv'[parent])`` — which needs only the *floors* inside the
        # depth loop.  Credit arithmetic moves to one vectorized pass per
        # slot over all edges, bit-identical to the per-level original.
        capb = cap + self.burst_cap
        sources, block = recv[:K], recv[K:]  # block aligns with edges
        gained = np.empty_like(credit)
        floor = np.empty(credit.shape, dtype=np.int64)
        moved = np.empty_like(block)  # holds the old counts until swept
        # Level d is one contiguous slice of the counters and the floors.
        levels = [(block[a:b], floor[a:b], par) for a, b, par in self._levels]
        any_dead = not alive.all()  # kills only land between run() calls
        for _ in range(num_slots):
            self.injected += self.inj
            # C-cast truncation == floor: the injection is always >= 0.
            np.copyto(sources, self.injected, casting="unsafe")
            np.add(credit, cap, out=gained)
            np.minimum(gained, capb, out=gained)
            np.copyto(floor, gained, casting="unsafe")
            if any_dead:
                floor[~alive] = 0
            np.copyto(moved, block)
            # Levels run parents-first, so a packet can traverse the
            # whole tree in one slot if credit allows (the reference's
            # random edge order achieves the same pipeline rate in
            # expectation).
            for seg, fl, par in levels:
                np.add(seg, fl, out=seg)
                np.minimum(seg, recv[par], out=seg)
            np.subtract(block, moved, out=moved)
            if any_dead:
                np.copyto(credit, gained - moved, where=alive)
            else:
                np.subtract(gained, moved, out=credit, casting="unsafe")

    def kill(self, node: int) -> None:
        if not 0 < node < self.num:
            raise ValueError(f"cannot kill node {node} (source or oob)")
        K = self.K
        # The dead node's position in every tree: its in-edges...
        mine = self._perm[np.arange(K) * self.num + node]
        # ... and every edge it parents (a parent position is always in
        # the child's own tree, so membership is exact).
        dark = np.isin(self._par, mine)
        dark[mine - K] = True
        self.alive &= ~dark

    def delivered(self) -> np.ndarray:
        """Per-node arrival counts, substreams recombined (source = 0)."""
        counts = self.recv[self._perm].reshape(self.K, self.num).sum(axis=0)
        counts[0] = 0
        return counts

    def state(self) -> dict:
        # Live references: the engine owns the (single) deep copy.
        return {
            "injected": self.injected,
            "recv": self.recv,
            "credit": self.credit,
            "alive": self.alive,
        }

    def load(self, payload: dict) -> None:
        np.copyto(self.injected, payload["injected"])
        np.copyto(self.recv, payload["recv"])
        np.copyto(self.credit, payload["credit"])
        np.copyto(self.alive, payload["alive"])


class ShardFleet:
    """The sharded transport's one runner: K weighted arborescences
    (``decompose_broadcast_arrays`` output) split into ``g::groups``
    shards, advanced serially or, with ``workers > 1``, on a thread pool
    scoped to each :meth:`run`.  Results are bit-identical either way.
    ``num`` is explicit so an empty fleet (a zero-rate scheme) still
    reports one count per node.  Every edge banks at most
    :data:`~repro.simulation.backends.BURST_CAP` credit.
    """

    def __init__(
        self,
        weights: np.ndarray,
        parents: np.ndarray,
        num: int,
        rate_fraction: float,
        packets_per_unit: float,
        *,
        workers: int = 1,
    ) -> None:
        self.num = num
        self.workers = max(1, workers)
        groups = max(1, min(self.workers, len(weights)))
        shared = (num, rate_fraction, packets_per_unit, BURST_CAP)
        self.shards = [
            _TreeShard(weights[g::groups], parents[g::groups], *shared)
            for g in range(groups)
            if len(weights[g::groups])
        ]

    def run(self, num_slots: int) -> None:
        if self.workers > 1 and len(self.shards) > 1:
            # A scoped pool per run(): spawn cost is negligible next to
            # a chunk of slots, and nothing leaks across engine
            # lifetimes (rebuild-heavy sweeps create many backends).
            with ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="packet-sim"
            ) as pool:
                # Shards are independent: completion order never matters.
                list(pool.map(lambda s: s.run(num_slots), self.shards))
        else:
            for shard in self.shards:
                shard.run(num_slots)

    def kill(self, node: int) -> None:
        for shard in self.shards:
            shard.kill(node)

    def delivered(self) -> np.ndarray:
        """Per-node distinct packets held (index 0 = source, always 0)."""
        total = np.zeros(self.num, dtype=np.int64)
        for shard in self.shards:
            total += shard.delivered()
        return total


@register_backend
class ShardedBackend(SimBackend):
    """Weighted-tree decomposition simulated by a :class:`ShardFleet`."""

    name = "sharded"
    supports_workers = True

    def __init__(self, config: "SimConfig", seed: Optional[int]) -> None:
        # The trees draw no random numbers: ``seed`` goes unused.
        self.config = config
        scheme = config.scheme
        # Raises DecompositionError for cyclic / unequal-in-rate schemes;
        # unequal in-rates are refused in O(E), before the memo lookup
        # and the cycle check.  ``bincount`` sums each receiver's
        # in-edges in edge order, as ``decompose_broadcast_arrays`` does.
        src, dst, rate = scheme.edge_arrays()
        scheme_rate = common_in_rate(
            np.bincount(dst, weights=rate, minlength=config.num)[1:]
        )
        weights, parents = _decompose_cached(scheme, src, dst, rate)
        fraction = config.rate / scheme_rate if scheme_rate > 0 else 0.0
        self.fleet = ShardFleet(
            weights,
            parents,
            config.num,
            fraction,
            config.packets_per_unit,
            workers=config.workers or 1,
        )

    def run(self, start_slot: int, num_slots: int) -> None:
        self.fleet.run(num_slots)

    def kill(self, node: int) -> None:
        self.fleet.kill(node)

    def delivered(self) -> list[int]:
        return self.fleet.delivered().tolist()

    def received(self) -> list[int]:
        # Substreams are disjoint slices of the stream, so distinct
        # packets held == packets arrived.
        return self.delivered()

    def state(self) -> dict:
        # Kills live in each shard's ``alive`` mask: the counters are
        # the whole state.
        return {"shards": [s.state() for s in self.fleet.shards]}

    def load(self, payload: dict) -> None:
        shards = self.fleet.shards
        shard_states = payload["shards"]
        if len(shard_states) != len(shards) or any(
            shard.recv.shape != state["recv"].shape
            for shard, state in zip(shards, shard_states)
        ):
            raise ValueError(
                "snapshot shard layout does not match this engine "
                f"({len(shard_states)} shard(s) saved vs "
                f"{len(shards)} here): sharded snapshots only "
                "restore into an engine built with the same scheme and "
                "workers setting"
            )
        for shard, state in zip(shards, shard_states):
            shard.load(state)
