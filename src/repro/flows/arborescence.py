"""Weighted broadcast-tree decomposition of acyclic schemes.

Section II-C of the paper: a rate matrix supporting broadcast rate ``T``
"can be decomposed into a set of weighted broadcast trees" (Schrijver,
Combinatorial Optimization, vol. B, ch. 53) — the decomposition *is* the
explicit communication schedule: tree ``k`` carries a substream of rate
``w_k``, and ``sum_k w_k = T``.

General arborescence packing (Edmonds) is involved; this library's
schemes however are all of a restricted, easy class — **acyclic** with
**every receiver's in-rate equal to the scheme rate** ``T`` (Algorithm 1
and the word-packing of Lemma 4.6 construct exactly that).  For this
class a greedy extraction is provably correct:

* every round picks one positive in-edge per receiver; in a DAG any such
  choice is a spanning arborescence rooted at the source (parent chains
  strictly decrease in topological position and can only stop at the
  source, the unique in-degree-0 node);
* subtracting the round's weight (the minimum chosen-edge residual) from
  one in-edge of every receiver keeps all in-rates *equal*, so while any
  residual remains every receiver still has a positive in-edge;
* each round zeroes at least one edge, so at most ``E`` rounds happen and
  the extracted weights sum exactly to ``T``.

The greedy exists once, over flat edge arrays
(:func:`decompose_broadcast_arrays`, which the scale path feeds straight
from a packed scheme and the runtime's sharded transport from
:meth:`~repro.core.scheme.BroadcastScheme.edge_arrays`);
:func:`decompose_broadcast_trees` is its wrapper returning
:class:`BroadcastTree` objects for dict-based schemes.

Cyclic schemes (Theorem 5.2's output) are out of scope here and raise
:class:`~repro.core.exceptions.DecompositionError`; the randomized
simulator (:mod:`repro.simulation.packet_sim`) covers those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.exceptions import DecompositionError
from ..core.scheme import BroadcastScheme

__all__ = [
    "BroadcastTree",
    "decompose_broadcast_trees",
    "decompose_broadcast_arrays",
    "common_in_rate",
    "level_in_rates",
    "clip_to_capacities",
    "verify_decomposition",
]

#: Residuals below this fraction of the total rate are treated as zero.
_REL_EPS = 1e-9


def _stranded_slack(total: float, units: int) -> float:
    """Upper bound on the rate the greedy may strand as numerical dust.

    Every edge the extractor zeroes (or filters as ``<= tol``) can
    strand up to ``_REL_EPS`` of relative rate; ``units`` counts how
    many such events the caller must budget for.  Both the extractor's
    clean-termination test and :func:`verify_decomposition`'s weight-sum
    check derive their slack from this one bound so the two can never
    drift apart (the verifier passes a unit count at least as large as
    any the extractor uses).
    """
    return _REL_EPS * max(1.0, total) * max(4, units)


def _equal_in_rate_tol(num: int, total: float) -> float:
    """How far a receiver's in-rate may sit from ``total`` and still
    count as equal.

    Packed-scheme edge rates come from differences of cumulative cut
    coordinates as large as ``num * rate``, so their absolute noise
    floor grows with ``num`` — budget eps per receiver on top of the
    rate-relative slack before declaring the in-rates unequal.
    """
    return max(
        _REL_EPS * max(1.0, total),
        4096.0 * np.finfo(np.float64).eps * num * max(1.0, total),
    )


def common_in_rate(in_rates: np.ndarray) -> float:
    """The scheme rate ``T`` every receiver ingests at.

    ``in_rates[v - 1]`` is receiver ``v``'s in-edges summed in edge
    order.  Raises :class:`~repro.core.exceptions.DecompositionError`
    when some receiver's in-rate sits further than
    :func:`_equal_in_rate_tol` from receiver 1's: the decomposition's one
    equality rule, run by :func:`decompose_broadcast_arrays` and, before
    its memo lookup, by the sharded transport.  A NaN in-rate never
    refuses; a scheme without receivers has rate 0.
    """
    if not len(in_rates):
        return 0.0
    total = float(in_rates[0])
    off = np.abs(in_rates - total) > _equal_in_rate_tol(len(in_rates) + 1, total)
    if off.any():
        v = int(np.argmax(off)) + 1
        raise DecompositionError(
            f"receiver {v} has in-rate {in_rates[v - 1]:g} != scheme rate "
            f"{total:g}; the greedy decomposition only handles "
            f"equal-in-rate schemes"
        )
    return total


def level_in_rates(
    num: int, dst: np.ndarray, rate: np.ndarray
) -> tuple[np.ndarray, float]:
    """Scale every receiver's in-edges down to the smallest in-rate.

    ``dst``/``rate`` are a scheme's edge arrays over nodes ``0..num-1``
    (source 0).  Returns ``(leveled, r)``: ``r`` is the smallest
    receiver in-rate (the ``bincount`` sums :func:`common_in_rate`
    reads) and ``leveled`` scales each edge by ``r / in_rate[dst]``, so
    every receiver ingests ``r`` and no edge grows.  In an acyclic
    scheme ``r`` is also the worst receiver's max-flow (the first
    sink-side node of any cut, in topological order, has all its
    in-edges crossing it), so the leveled scheme passes
    :func:`common_in_rate`, decomposes into trees, and those trees carry
    the max-flow bound of the scheme it came from.  A receiver without
    in-rate gives ``r == 0`` and all-zero rates; a scheme without
    receivers has ``r == 0`` too.
    """
    dst = np.asarray(dst, dtype=np.int64)
    rate = np.asarray(rate, dtype=np.float64)
    in_rates = np.bincount(dst, weights=rate, minlength=num)[1:]
    r = float(in_rates.min()) if in_rates.size else 0.0
    if r <= 0.0:
        return np.zeros_like(rate), 0.0
    return rate * (r / in_rates[dst - 1]), r


def clip_to_capacities(
    scheme: BroadcastScheme, capacities: list[float]
) -> BroadcastScheme:
    """Proportionally rescale each sender's edges into its true capacity.

    Models per-node QoS enforcement after a bandwidth drop: the node keeps
    all connections but shares its (reduced) capacity in the same
    proportions.
    """
    clipped = scheme.copy()
    for i in range(scheme.num_nodes):
        out = clipped.out_rate(i)
        cap = capacities[i]
        if out > cap > 0:
            factor = cap / out
            for j, r in clipped.successors(i).items():
                clipped.set_rate(i, j, r * factor)
        elif out > cap:  # cap == 0
            for j in list(clipped.successors(i)):
                clipped.remove_edge(i, j)
    return clipped


@dataclass(frozen=True)
class BroadcastTree:
    """One spanning arborescence with its substream rate.

    ``parent[v]`` is the node feeding ``v`` in this tree (``parent[0]``
    is ``-1`` for the source).
    """

    weight: float
    parent: tuple[int, ...]

    def depth(self, v: int) -> int:
        d = 0
        while self.parent[v] >= 0:
            v = self.parent[v]
            d += 1
        return d

    def max_depth(self) -> int:
        return max(self.depth(v) for v in range(len(self.parent)))

    def edges(self) -> list[tuple[int, int]]:
        return [
            (p, v) for v, p in enumerate(self.parent) if p >= 0
        ]


def decompose_broadcast_trees(scheme: BroadcastScheme) -> list[BroadcastTree]:
    """Decompose an acyclic equal-in-rate scheme into weighted trees.

    Preconditions (checked): the scheme is a DAG and every non-source node
    has the same in-rate ``T`` up to :func:`decompose_broadcast_arrays`'s
    ``eq_tol`` (the rate-relative ``1e-9`` for ``num <= ~1,100``, widened
    by an eps per receiver beyond that).  Returns trees whose weights sum
    to ``T`` (up to stranded sub-tolerance residuals on large schemes — a
    vanishing fraction of the rate) and whose per-edge usage never
    exceeds the scheme's rates; a scheme with no edges yields ``[]``.

    This is :func:`decompose_broadcast_arrays` on the scheme's edge list
    (in :meth:`~repro.core.scheme.BroadcastScheme.edges` order, which
    fixes the greedy's tie-breaking), rewrapped as
    :class:`BroadcastTree` objects.
    """
    if not scheme.is_acyclic():
        raise DecompositionError(
            "greedy tree decomposition requires an acyclic scheme"
        )
    src, dst, rate = scheme.edge_arrays()
    if not src.size:
        return []
    weights, parents = decompose_broadcast_arrays(
        scheme.num_nodes, src, dst, rate
    )
    return [
        BroadcastTree(w, tuple(p))
        for w, p in zip(weights.tolist(), parents.tolist())
    ]


def decompose_broadcast_arrays(
    num: int,
    src: np.ndarray,
    dst: np.ndarray,
    rate: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Array-native greedy extraction: ``(weights, parents)`` matrices.

    The scale path (:mod:`repro.analysis.scale`) produces edge arrays
    straight from a packed :class:`~repro.core.runs.RunScheme`;
    materializing a :class:`BroadcastScheme` (one dict per node) just to
    tear it back into arrays dominates end-to-end time at n >= 10^5.
    The runtime path calls it too: the sharded transport
    (:class:`~repro.simulation.backends.sharded.ShardedBackend`, behind
    the engine's default ``auto``) passes the plan's
    :meth:`~repro.core.scheme.BroadcastScheme.edge_arrays` after its own
    cycle check, once per new plan.  This is the library's one greedy
    extraction loop (:func:`decompose_broadcast_trees` wraps it for
    dict-based schemes): per round, each receiver picks its *first
    largest* live in-edge residual and the round weight is the minimum
    pick, each round vectorized over all edges via ``reduceat``.  The
    edge order matters only as the order of each receiver's in-edges (a
    stable sort by receiver keeps it); a dict scheme's row-major order
    lists them by sender, whatever order the edges were inserted in.
    Returns ``weights``
    (shape ``[K]``) plus ``parents`` (shape ``[K, num]``, ``parents[k, 0]
    == -1``), ready for
    :class:`~repro.simulation.backends.sharded.ShardFleet`.

    Preconditions: the source is node 0, every ``dst`` lies in
    ``1..num-1``, every receiver has at least one in-edge, in-rates are
    equal across receivers, and the edge set is acyclic (unchecked here:
    packed schemes are DAGs by construction; a cycle surfaces as an
    unreachable node when the shard builds its level schedule).
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    res = np.asarray(rate, dtype=np.float64)
    E = res.size
    empty = (np.zeros(0, dtype=np.float64), np.zeros((0, num), dtype=np.int64))
    if num <= 1:
        return empty
    if E == 0 or dst.min() < 1 or dst.max() >= num:
        raise DecompositionError(
            "edge arrays must target receivers 1..num-1"
        )
    order = np.argsort(dst, kind="stable")
    src, dst, res = src[order], dst[order], res[order]
    starts = np.searchsorted(dst, np.arange(1, num))
    seg_counts = np.diff(np.append(starts, E))
    if (seg_counts <= 0).any():
        missing = int(np.argmax(seg_counts <= 0)) + 1
        raise DecompositionError(
            f"receiver {missing} has no in-edge; the greedy decomposition "
            f"requires every receiver fed at the scheme rate"
        )
    # Sequential per-receiver sums in edge order (``bincount``), as
    # ``BroadcastScheme.in_rates`` adds them: ``add.reduceat`` sums a
    # segment of 8+ edges pairwise, and ``total`` (the first round's
    # ``remaining``) would then drift from the scheme's rate by ulps.
    total = common_in_rate(
        np.bincount(dst - 1, weights=res, minlength=num - 1)
    )
    tol = _REL_EPS * max(1.0, total)
    eq_tol = _equal_in_rate_tol(num, total)
    if total <= tol:
        return empty

    idx = np.arange(E, dtype=np.int64)
    seg_id = np.repeat(np.arange(num - 1), seg_counts)  # receiver - 1 per edge
    weights: list[float] = []
    picked_src: list[np.ndarray] = []  # per round, the parent of 1..num-1
    remaining = total
    max_indeg = int(seg_counts.max())
    # Residuals, with dust masked to -inf: a masked edge is never picked
    # again, and a round changes only its picks' residuals.
    masked = np.where(res > tol, res, -np.inf)
    for _ in range(E + 1):
        if remaining <= tol:
            break
        seg_max = np.maximum.reduceat(masked, starts)
        low = float(seg_max.min())
        if not math.isfinite(low):
            # A receiver's in-edges all carry only numerical dust.  The
            # ``> tol`` filter strands up to ``tol`` per zeroed edge and
            # every round keeps per-receiver in-capacity equal to
            # ``remaining``, so a receiver only runs dry while
            # ``remaining`` is itself dust-sized — widened by ``eq_tol``:
            # a receiver whose in-rate legitimately sat ``eq_tol`` below
            # the scheme rate strands exactly that much on top.  That is
            # a clean termination, not a degenerate scheme.
            if remaining <= eq_tol + _stranded_slack(
                total, max_indeg + len(weights)
            ):
                break
            v = int(np.argmax(~np.isfinite(seg_max))) + 1
            raise DecompositionError(
                f"receiver {v} ran out of in-capacity with {remaining:g} "
                f"of rate left (numerically degenerate scheme?)"
            )
        w = min(remaining, low)
        # First index achieving each segment's max — matches the scalar
        # greedy's strict-> comparison (first encountered max wins).
        is_max = masked == seg_max[seg_id]
        pick = np.minimum.reduceat(np.where(is_max, idx, E), starts)
        left = masked[pick] - w
        masked[pick] = np.where(left > tol, left, -np.inf)
        picked_src.append(src[pick])
        weights.append(w)
        remaining -= w
    else:
        raise DecompositionError("round cap exceeded without converging")
    if not weights:
        return empty
    parents = np.empty((len(weights), num), dtype=np.int64)
    parents[:, 0] = -1
    np.stack(picked_src, out=parents[:, 1:])
    return np.array(weights, dtype=np.float64), parents


def verify_decomposition(
    scheme: BroadcastScheme,
    trees: list[BroadcastTree],
    throughput: float,
    *,
    rel_tol: float = 1e-6,
) -> None:
    """Assert the decomposition is a valid schedule (used by tests).

    Checks: weights sum to ``throughput``; every tree is a spanning
    arborescence rooted at the source (node 0); aggregated per-edge usage
    stays within the scheme's rates.
    """
    tol = rel_tol * max(1.0, throughput)
    # The greedy extractor may legitimately strand numerical dust (see
    # decompose_broadcast_arrays); ``num_edges`` bounds any receiver's
    # in-degree and ``len(trees)`` the extractor's round count, so this
    # slack dominates every clean-termination bound the extractor uses.
    sum_tol = max(
        tol, _stranded_slack(throughput, len(trees) + scheme.num_edges)
    )
    total = sum(t.weight for t in trees)
    if abs(total - throughput) > sum_tol:
        raise DecompositionError(
            f"tree weights sum to {total:g}, expected {throughput:g}"
        )
    usage: dict[tuple[int, int], float] = {}
    for tree in trees:
        if tree.weight <= 0:
            raise DecompositionError("non-positive tree weight")
        if tree.parent[0] != -1:
            raise DecompositionError("source must be the root")
        for v in range(1, scheme.num_nodes):
            # Walk to the root; a cycle would loop more than num_nodes times.
            node, hops = v, 0
            while node != 0:
                node = tree.parent[node]
                hops += 1
                if node < 0 or hops > scheme.num_nodes:
                    raise DecompositionError(
                        f"node {v} is not connected to the source in a tree"
                    )
        for p, v in tree.edges():
            usage[(p, v)] = usage.get((p, v), 0.0) + tree.weight
    for (i, j), used in usage.items():
        if used > scheme.rate(i, j) + tol:
            raise DecompositionError(
                f"edge ({i},{j}) used at {used:g} > scheme rate "
                f"{scheme.rate(i, j):g}"
            )
