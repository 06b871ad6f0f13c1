"""Theorem 4.1 — optimal acyclic broadcast with guarded nodes, low degree.

Three pieces (matching the paper's proof structure):

1. :func:`optimal_acyclic_throughput` — there is no closed form for
   ``T*_ac`` with guarded nodes; a dichotomic search over the linear-time
   oracle of Algorithm 2 (:mod:`repro.algorithms.greedy`) computes it to
   relative precision ``1e-13``.  The search is bracketed above by the
   cyclic optimum (Lemma 5.1): any acyclic scheme is a scheme.  It runs
   the plain bisection's arithmetic but probes only midpoints whose
   verdict monotonicity does not already settle, after pinning the
   bracket around a parametric estimate of the threshold.

2. :func:`pack_word` — Lemma 4.6's packing: given a valid word, feed
   every node *by the earliest possible nodes with unused upload
   bandwidth*, drawing guarded bandwidth first for open receivers
   (conservativeness, Lemma 4.3) and open bandwidth only for guarded
   receivers (firewall).  Implemented with two FIFO pools, so every
   sender's clients form a consecutive interval per pool, which is what
   yields the degree bounds.  The packer draws into a caller's edge
   sink: :func:`scheme_from_word` packs into a fresh
   :class:`~repro.core.scheme.BroadcastScheme`, and the incremental
   repair planner packs straight into its overlay model, keeping the
   returned pools to resume from.

3. :func:`acyclic_guarded_scheme` — the full pipeline.  On the word
   produced by Algorithm 2 the scheme satisfies Theorem 4.1's bounds:

   * every guarded node:       ``o_j <= ceil(b_j / T) + 1``,
   * at most one open node:    ``o_i <= ceil(b_i / T) + 3``,
   * every other open node:    ``o_i <= ceil(b_i / T) + 2``.

   (:func:`scheme_from_word` also accepts arbitrary valid words — e.g. the
   ``omega1``/``omega2`` words of Section VI — for which only validity and
   throughput are guaranteed, not the degree bounds.)
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence, TypeVar

from ..core.bounds import cyclic_optimum
from ..core.exceptions import InfeasibleThroughputError
from ..core.instance import Instance
from ..core.runs import (
    ClassRuns,
    FeedPortion,
    RunScheme,
    SegmentFeed,
    SupplyBlock,
)
from ..core.scheme import BroadcastScheme
from ..core.words import GUARDED, OPEN, check_word_shape, is_valid_word
from .greedy import (
    _greedy_threshold,
    _greedy_word_fast,
    greedy_segments,
    greedy_test,
    segments_to_word,
)

__all__ = [
    "optimal_acyclic_throughput",
    "optimal_acyclic_throughput_runs",
    "PackingState",
    "pack_word",
    "pack_segments",
    "scheme_from_word",
    "acyclic_guarded_scheme",
    "collapsed_scheme",
    "AcyclicSolution",
    "CollapsedSolution",
]

#: Relative precision of the dichotomic search on T.
SEARCH_REL_TOL = 1e-13
SEARCH_MAX_ITER = 200
W = TypeVar("W")  #: a search witness: greedy word or run-length segments

#: Bisection midpoints probed before the threshold estimate is consulted.
#: The parametric pass starts from ``feas``; the closer that is to the
#: threshold, the fewer decision flips it meets.  7 or 8 cost the least
#: time on the serve-tcp session instances (5 made the passes dominate).
_PLAIN_PREFIX = 8

#: Relative offset of the two probes around the threshold estimate: the
#: search's own precision, so a good estimate leaves the last few
#: midpoints, not the last few dozen, to probe.
_PIN_REL = 1e-13


@dataclass
class AcyclicSolution:
    """Bundle returned by :func:`acyclic_guarded_scheme`."""

    scheme: BroadcastScheme
    throughput: float
    word: str


def optimal_acyclic_throughput(
    instance: Instance, *, rel_tol: float = SEARCH_REL_TOL
) -> tuple[float, str]:
    """``(T*_ac, greedy word at T*_ac)`` by dichotomic search (Thm 4.1).

    Feasibility is monotone in ``T`` (a word valid at ``T`` is valid at any
    smaller rate), so bisection brackets the optimum; the returned rate is
    the feasible lower bracket, hence always achievable by the returned
    word.  For open-only instances this converges to the closed form
    ``min(b0, S_{n-1}/n)`` (cross-checked in tests).

    The bisection only *probes* a midpoint whose verdict it does not
    know yet.  ``feas`` is the largest rate a probe found feasible and
    ``infeas`` the smallest it found infeasible; by monotonicity every
    midpoint at or below ``feas`` is feasible and every one at or above
    ``infeas`` is not.  After :data:`_PLAIN_PREFIX` midpoints, two probes
    at ``tau (1 -+ _PIN_REL)`` around the parametric threshold estimate
    ``tau`` of :func:`~repro.algorithms.greedy._greedy_threshold` pin
    the bracket, and the remaining midpoints are mostly inferred.  Those
    probes only ever tighten ``feas``/``infeas``, so the midpoints, the
    stop and the returned ``(T, word)`` are the plain bisection's bit for
    bit whatever the estimate is; it only decides how many probes run.
    """
    if instance.num_receivers == 0:
        return float("inf"), ""
    oracle = (instance.source_bw, instance.open_bws, instance.guarded_bws)
    rate, word = _bisect_throughput(
        cyclic_optimum(instance),
        partial(_greedy_word_fast, *oracle),
        partial(_greedy_threshold, *oracle),
        rel_tol=rel_tol,
    )
    if word is None:
        return 0.0, greedy_test(instance, 0.0).word
    return rate, word


def _bisect_throughput(
    hi: float,
    probe: Callable[[float], Optional[W]],
    threshold: Optional[Callable[[float], Optional[float]]] = None,
    *,
    rel_tol: float,
) -> tuple[float, Optional[W]]:
    """The ``T*_ac`` bisection both searches share: probe the cyclic
    upper bracket ``hi`` first, then bisect.  ``probe(rate)`` returns the
    greedy witness (word or segments), or ``None`` when ``rate`` is
    infeasible; a ``None`` witness means rate 0 and the caller supplies
    its zero word.  Without a ``threshold`` estimate no verdict is
    inferred, so every midpoint is probed, like the plain bisection."""
    if hi <= 0.0:
        return 0.0, None
    top = probe(hi)
    if top is not None:
        return hi, top
    lo = feas = 0.0
    infeas = hi
    feas_witness = None
    for step in range(SEARCH_MAX_ITER):
        if hi - lo <= rel_tol * hi:
            break
        if step == _PLAIN_PREFIX and threshold is not None:
            tau = threshold(feas)
            if tau is not None:
                for rate in (tau * (1.0 - _PIN_REL), tau * (1.0 + _PIN_REL)):
                    if feas < rate < infeas:
                        cand = probe(rate)
                        if cand is not None:
                            feas, feas_witness = rate, cand
                        else:
                            infeas = rate
        mid = 0.5 * (lo + hi)
        if mid <= feas:
            lo = mid
        elif mid >= infeas:
            hi = mid
        else:
            cand = probe(mid)
            if cand is not None:
                lo = feas = mid
                feas_witness = cand
            else:
                hi = infeas = mid
    if lo == 0.0:
        return 0.0, None
    if lo == feas:
        return lo, feas_witness
    # ``lo`` was inferred: one probe for its witness.
    witness = probe(lo)
    if witness is None:
        # Rounding broke monotonicity below a probed-feasible rate (never
        # observed): that rate and its witness are still a valid answer.
        return feas, feas_witness
    return lo, witness


#: Edge sink: ``(sender, receiver, rate)`` — where drawn transfers land.
EdgeSink = Callable[[int, int, float], None]


class PackingState:
    """Resumable two-pool FIFO packing state (the Lemma 4.6 pools).

    The packing keeps one FIFO pool of ``[node, spare upload]`` entries per
    node class, both in *introduction order* (the word order).  Exposing
    the pools after a complete packing is what makes the packing
    *resumable*: an incremental repair can return the credit a departed
    peer's feeders were spending on it, then re-feed the orphaned
    receivers from the pool front — the same earliest-feeder discipline
    that yields the Theorem 4.1 degree bounds.

    Invariants maintained for repair:

    * entries in each pool are sorted by introduction ``position`` (the
      initial packing appends in order; :meth:`credit` re-inserts by
      position), so a draw bounded by ``before`` stops at the first
      too-late entry — every drawn edge goes from an earlier position to a
      later one, keeping repaired schemes acyclic;
    * a guarded receiver draws from the open pool only (firewall), an open
      receiver drains the guarded pool first (conservativeness, Lemma 4.3).
    """

    __slots__ = (
        "open_entries", "guarded_entries", "position", "next_position",
        "_node_open", "tol",
    )

    def __init__(self, tol: float = 1e-9) -> None:
        self.open_entries: deque[list] = deque()
        self.guarded_entries: deque[list] = deque()
        self.position: dict[int, int] = {}  #: node -> introduction position
        self.next_position = 0
        self._node_open: dict[int, bool] = {}
        self.tol = tol

    # ------------------------------------------------------------------
    # Introduction / bookkeeping
    # ------------------------------------------------------------------
    def push(self, node: int, amount: float, *, open_: bool) -> None:
        """Introduce ``node`` (next position) with ``amount`` spare upload."""
        self.position[node] = self.next_position
        self.next_position += 1
        self._node_open[node] = open_
        if amount > 0.0:
            self._pool_of(node).append([node, amount])

    def _pool_of(self, node: int) -> deque:
        return self.open_entries if self._node_open[node] else self.guarded_entries

    def _find(self, node: int) -> Optional[list]:
        for entry in self._pool_of(node):
            if entry[0] == node:
                return entry
        return None

    def spare(self, node: int) -> float:
        """Remaining upload credit of ``node`` (0.0 when drained)."""
        entry = self._find(node)
        return entry[1] if entry is not None else 0.0

    def credit(self, node: int, amount: float) -> None:
        """Return ``amount`` of upload credit to ``node``'s pool entry.

        Freed bandwidth (a client departed) re-enters the pool at the
        node's original position, preserving the earliest-feeder order.
        """
        if amount <= 0.0 or node not in self.position:
            return
        entry = self._find(node)
        if entry is not None:
            entry[1] += amount
            return
        pool = self._pool_of(node)
        pos = self.position[node]
        for idx, other in enumerate(pool):
            if self.position[other[0]] > pos:
                pool.insert(idx, [node, amount])
                return
        pool.append([node, amount])

    def set_spare(self, node: int, amount: float) -> None:
        """Overwrite ``node``'s spare credit (bandwidth drift)."""
        entry = self._find(node)
        if entry is not None:
            if amount > self.tol:
                entry[1] = amount
            else:
                self._pool_of(node).remove(entry)
        elif amount > self.tol:
            self.credit(node, amount)

    def remove(self, node: int) -> None:
        """Forget ``node`` entirely (departure): entry, position, class."""
        if node not in self.position:
            return
        entry = self._find(node)
        if entry is not None:
            self._pool_of(node).remove(entry)
        del self.position[node]
        del self._node_open[node]

    def rename(self, old: int, new: int) -> None:
        """Relabel ``old`` as ``new`` in place: same position, class and
        spare credit (a class-preserving swap repair)."""
        if old not in self.position:
            raise KeyError(f"rename of unknown node {old}")
        if new in self.position:
            raise KeyError(f"rename target {new} already present")
        entry = self._find(old)
        if entry is not None:
            entry[0] = new
        self.position[new] = self.position.pop(old)
        self._node_open[new] = self._node_open.pop(old)

    # ------------------------------------------------------------------
    # Draws
    # ------------------------------------------------------------------
    def _draw(
        self,
        entries: deque,
        need: float,
        receiver: int,
        sink: EdgeSink,
        before: Optional[int],
    ) -> float:
        """Transfer up to ``need`` from the pool front into ``receiver``.

        Returns the unmet remainder.  Entries drained to within ``tol``
        are dropped so numerical dust never creates an extra connection.
        With ``before`` set, only entries introduced strictly earlier are
        touched (entries are position-sorted, so the scan stops at the
        first too-late one).
        """
        tol = self.tol
        while need > tol and entries:
            node, rem = entries[0]
            if before is not None and self.position[node] >= before:
                break
            take = min(rem, need)
            sink(node, receiver, take)
            need -= take
            rem -= take
            if rem <= tol:
                entries.popleft()
            else:
                entries[0][1] = rem
        return max(need, 0.0)

    def feed_guarded(
        self,
        receiver: int,
        need: float,
        sink: EdgeSink,
        *,
        before: Optional[int] = None,
    ) -> float:
        """Feed a guarded receiver: open bandwidth only (firewall)."""
        return self._draw(self.open_entries, need, receiver, sink, before)

    def feed_open(
        self,
        receiver: int,
        need: float,
        sink: EdgeSink,
        *,
        before: Optional[int] = None,
    ) -> float:
        """Feed an open receiver: guarded pool first, open pool top-up."""
        unmet = self._draw(self.guarded_entries, need, receiver, sink, before)
        return self._draw(self.open_entries, unmet, receiver, sink, before)

    def feed(
        self,
        receiver: int,
        need: float,
        sink: EdgeSink,
        *,
        guarded: bool,
        before: Optional[int] = None,
    ) -> float:
        if guarded:
            return self.feed_guarded(receiver, need, sink, before=before)
        return self.feed_open(receiver, need, sink, before=before)


def pack_word(
    instance: Instance,
    word: str,
    throughput: float,
    sink: EdgeSink,
    ids: Optional[Sequence[int]] = None,
) -> PackingState:
    """Lemma 4.6 packing: draw every transfer into ``sink``, return the
    residual pools.

    Nodes are introduced in word order; each must receive exactly
    ``throughput``:

    * a guarded node draws from the *open* pool only (firewall constraint);
    * an open node draws from the *guarded* pool first (conservativeness)
      and tops up from the open pool.

    Canonical node ``k`` is labelled ``ids[k]`` (default ``k``) in both the
    sink calls and the returned :class:`PackingState` — the pools an
    incremental repair resumes from, already in its id space.  Each
    ``(sender, receiver)`` pair is drawn at most once, in draw order per
    sender.  For a non-positive ``throughput`` nothing is drawn and every
    node keeps its full bandwidth as spare credit.

    Raises :class:`InfeasibleThroughputError` when the word is not valid
    for ``throughput`` (some node cannot be fully fed).
    """
    check_word_shape(instance, word, complete=True)
    if ids is None:
        ids = range(instance.num_nodes)
    bws = instance.bandwidths()
    state = PackingState(tol=1e-9 * max(1.0, throughput))
    state.push(ids[0], bws[0], open_=True)
    # A non-positive throughput needs no special case: every draw below
    # is a no-op, leaving no edges and full-bandwidth pools.
    next_open, next_guarded = 1, instance.n + 1
    for pos, letter in enumerate(word):
        if letter == GUARDED:
            node = next_guarded
            next_guarded += 1
            unmet = state.feed_guarded(ids[node], throughput, sink)
            if unmet > state.tol:
                raise InfeasibleThroughputError(
                    f"word invalid at rate {throughput:g}: guarded node "
                    f"{node} (position {pos}) short of {unmet:g} open "
                    f"bandwidth"
                )
            state.push(ids[node], bws[node], open_=False)
        else:
            node = next_open
            next_open += 1
            unmet = state.feed_open(ids[node], throughput, sink)
            if unmet > state.tol:
                raise InfeasibleThroughputError(
                    f"word invalid at rate {throughput:g}: open node {node} "
                    f"(position {pos}) short of {unmet:g} bandwidth"
                )
            state.push(ids[node], bws[node], open_=True)
    return state


def scheme_from_word(
    instance: Instance, word: str, throughput: float
) -> BroadcastScheme:
    """Lemma 4.6 packing into a fresh scheme: the earliest-feeder
    conservative scheme for ``word`` (see :func:`pack_word`).

    The packing draws each in-range ``(sender, receiver)`` pair at most
    once, so every draw lands through
    :meth:`~repro.core.scheme.BroadcastScheme.fresh_pair_sink` — the
    store :meth:`~repro.core.scheme.BroadcastScheme.add_rate` would make
    on an absent pair, dust ``<= ABS_TOL`` dropped alike — without its
    range checks and lookups.
    """
    scheme = BroadcastScheme.for_instance(instance)
    pack_word(instance, word, float(throughput), scheme.fresh_pair_sink())
    return scheme


def acyclic_guarded_scheme(
    instance: Instance,
    throughput: Optional[float] = None,
    *,
    word: Optional[str] = None,
) -> AcyclicSolution:
    """Full Theorem 4.1 pipeline: rate -> word -> low-degree scheme.

    ``throughput`` defaults to ``T*_ac`` (dichotomic search).  A caller
    supplying ``word`` skips Algorithm 2 (the word is validity-checked
    first); degree bounds are then only guaranteed for greedy words.  A
    NaN ``throughput`` raises :class:`InfeasibleThroughputError`.
    """
    if throughput is None:
        target, greedy = optimal_acyclic_throughput(instance)
        chosen = word if word is not None else greedy
    else:
        target = float(throughput)
        if math.isnan(target):
            raise InfeasibleThroughputError("rate nan is not feasible")
        if word is not None:
            chosen = word
        else:
            res = greedy_test(instance, target)
            if not res.feasible:
                raise InfeasibleThroughputError(
                    f"rate {target:g} is not acyclically feasible: "
                    f"{res.failure}"
                )
            chosen = res.word
    if word is not None and target > 0.0:
        if not is_valid_word(instance, chosen, target, slack=1e-9 * target):
            raise InfeasibleThroughputError(
                f"supplied word {chosen!r} is not valid at rate {target:g}"
            )
    return AcyclicSolution(
        scheme_from_word(instance, chosen, target), target, chosen
    )


# ======================================================================
# Run-length (class-collapsed) pipeline
# ======================================================================
def optimal_acyclic_throughput_runs(
    runs: ClassRuns, *, rel_tol: float = SEARCH_REL_TOL
) -> tuple[float, list[tuple[str, int]]]:
    """``(T*_ac, greedy segments)`` on a run-length instance.

    Same dichotomic search as :func:`optimal_acyclic_throughput` with the
    run-length Algorithm 2 oracle, in O(runs + word alternations) per
    probe.  The upper bracket (``ClassRuns.cyclic_optimum`` uses ``fsum``,
    which is correctly rounded) and every probe verdict are bit-identical
    to the per-node path, so the returned rate is too.
    """
    n, m = runs.n, runs.m
    if n + m == 0:
        return float("inf"), []
    rate, segments = _bisect_throughput(
        runs.cyclic_optimum(),
        partial(
            greedy_segments, runs.source_bw, runs.open_runs,
            runs.guarded_runs,
        ),
        rel_tol=rel_tol,
    )
    if segments is None:
        return 0.0, [(c, k) for c, k in ((GUARDED, m), (OPEN, n)) if k]
    return rate, segments


@dataclass
class CollapsedSolution:
    """Run-length counterpart of :class:`AcyclicSolution`.

    ``scheme`` is the packed :class:`~repro.core.runs.RunScheme`.
    """

    scheme: RunScheme
    throughput: float
    segments: list[tuple[str, int]]

    @property
    def word(self) -> str:
        return segments_to_word(self.segments)


def _split_units(
    runs: ClassRuns, segments: Sequence[tuple[str, int]]
) -> list[tuple[str, int, int, float]]:
    """Intersect word segments with class runs.

    Returns ``(letter, first_node_id, count, class_bw)`` units: maximal
    stretches of consecutive same-letter, same-bandwidth receivers.
    Canonical node ids are contiguous per unit because the word consumes
    each class in canonical (sorted) order.
    """
    units: list[tuple[str, int, int, float]] = []
    n = runs.n
    o_iter = list(runs.open_runs)
    g_iter = list(runs.guarded_runs)
    ri = rj = 0  # run index per class
    iu = ju = 0  # consumed inside the current run
    next_open, next_guarded = 1, n + 1
    for letter, count in segments:
        remaining = count
        while remaining > 0:
            if letter == GUARDED:
                if rj >= len(g_iter):
                    raise ValueError("segments exceed guarded node count")
                bw, run_len = g_iter[rj]
                take = min(remaining, run_len - ju)
                units.append((letter, next_guarded, take, bw))
                next_guarded += take
                ju += take
                if ju == run_len:
                    rj += 1
                    ju = 0
            else:
                if ri >= len(o_iter):
                    raise ValueError("segments exceed open node count")
                bw, run_len = o_iter[ri]
                take = min(remaining, run_len - iu)
                units.append((letter, next_open, take, bw))
                next_open += take
                iu += take
                if iu == run_len:
                    ri += 1
                    iu = 0
            remaining -= take
    if next_open != n + 1 or next_guarded != runs.num_nodes:
        raise ValueError("segments do not cover the instance")
    return units


class _RunPools:
    """Block-level FIFO pools: the Lemma 4.6 pools over node *intervals*.

    Each entry is ``[start, count, spare_each]`` — ``count`` consecutive
    nodes each holding ``spare_each`` upload credit.  Draws consume from
    the front exactly like the per-node pools (a partially drained node
    stays at the front), so the collapsed packing is the per-node packing
    with identical FIFO discipline, just bookkept per interval.
    """

    __slots__ = ("open_entries", "guarded_entries", "tol")

    def __init__(self, tol: float) -> None:
        self.open_entries: deque[list] = deque()
        self.guarded_entries: deque[list] = deque()
        self.tol = tol

    def push(self, start: int, count: int, each: float, *, open_: bool) -> None:
        if count <= 0 or each <= self.tol:
            return
        pool = self.open_entries if open_ else self.guarded_entries
        pool.append([start, count, each])

    def _draw(self, pool: deque, need: float) -> tuple[list[SupplyBlock], float]:
        """Consume up to ``need`` from the pool front; return the supply
        blocks (in consumption order) and the unmet remainder."""
        tol = self.tol
        blocks: list[SupplyBlock] = []
        while need > tol and pool:
            entry = pool[0]
            start, cnt, each = entry
            if each <= tol:
                pool.popleft()
                continue
            whole = int(need / each)
            if whole >= cnt:
                blocks.append(SupplyBlock(start, cnt, each))
                need -= cnt * each
                pool.popleft()
                continue
            if whole > 0:
                blocks.append(SupplyBlock(start, whole, each))
                need -= whole * each
                entry[0] = start + whole
                entry[1] = cnt - whole
                start, cnt = entry[0], entry[1]
            if need > tol:
                take = need if need < each else each
                blocks.append(SupplyBlock(start, 1, take))
                spare = each - take
                need = 0.0
                if cnt == 1:
                    if spare > tol:
                        entry[2] = spare
                    else:
                        pool.popleft()
                else:
                    entry[0] = start + 1
                    entry[1] = cnt - 1
                    if spare > tol:
                        pool.appendleft([start, 1, spare])
        return blocks, max(need, 0.0)

    def draw_open(self, need: float) -> tuple[list[SupplyBlock], float]:
        return self._draw(self.open_entries, need)

    def draw_guarded(self, need: float) -> tuple[list[SupplyBlock], float]:
        return self._draw(self.guarded_entries, need)


def pack_segments(
    runs: ClassRuns,
    segments: Sequence[tuple[str, int]],
    throughput: float,
) -> CollapsedSolution:
    """Lemma 4.6 packing on a run-length word, in O(units) bookkeeping.

    Semantically the per-node :func:`pack_word` with the same FIFO
    earliest-feeder discipline, executed per *unit* (maximal same-letter,
    same-class stretch):

    * a guarded unit draws its aggregate demand from the open pool
      (firewall) and pushes its nodes' upload as one block;
    * an open unit drains the guarded pool first (Lemma 4.3), tops up
      from the open pool, and serves any remaining demand by *self
      supply*: node ``q`` of the unit feeds later receivers of the same
      unit — a uniform grid-vs-grid interval join, the collapsed image of
      earlier same-class letters feeding later ones.

    Feasibility inside a unit is the closed form of the greedy invariant
    (``pre + q*b >= (q+1)*T``, linear in ``q``), checked at both ends.
    """
    total = runs.num_receivers
    covered = sum(c for _, c in segments)
    if covered != total:
        raise ValueError(
            f"segments cover {covered} receivers, instance has {total}"
        )
    t = float(throughput)
    tol = 1e-9 * max(1.0, t)
    pools = _RunPools(tol)
    pools.push(0, 1, runs.source_bw, open_=True)
    units = _split_units(runs, segments)
    feeds: list[SegmentFeed] = []
    if t > 0.0:
        for letter, first, count, bw in units:
            demand = count * t
            unit_tol = tol * count
            portions: list[FeedPortion] = []
            if letter == GUARDED:
                blocks, unmet = pools.draw_open(demand)
                if blocks:
                    portions.append(FeedPortion(0.0, tuple(blocks)))
                if unmet > unit_tol:
                    raise InfeasibleThroughputError(
                        f"word invalid at rate {t:g}: guarded unit at node "
                        f"{first} short of {unmet:g} open bandwidth"
                    )
                pools.push(first, count, bw, open_=False)
            else:
                g_blocks, unmet = pools.draw_guarded(demand)
                g_used = demand - unmet
                if g_blocks:
                    portions.append(FeedPortion(0.0, tuple(g_blocks)))
                o_blocks, unmet2 = pools.draw_open(unmet)
                if o_blocks:
                    portions.append(FeedPortion(g_used, tuple(o_blocks)))
                rem = unmet2
                if rem > unit_tol:
                    pre = demand - rem
                    # Greedy invariant, closed form: receiver q needs
                    # pre + q*b >= (q+1)*t; linear in q, so check ends.
                    worst = max(t - pre, t - pre + (count - 1) * (t - bw))
                    if worst > unit_tol:
                        raise InfeasibleThroughputError(
                            f"word invalid at rate {t:g}: open unit at node "
                            f"{first} short of {worst:g} bandwidth"
                        )
                    if count < 2 or bw <= tol:
                        raise InfeasibleThroughputError(
                            f"open unit at node {first} cannot self-supply"
                        )
                    suppliers = min(count - 1, int(rem / bw) + 2)
                    portions.append(
                        FeedPortion(
                            pre, (SupplyBlock(first, suppliers, bw),)
                        )
                    )
                    # Residual spare: the first int(rem/b) unit nodes are
                    # fully drained, one node keeps a partial remainder,
                    # the rest keep full bandwidth.
                    full = min(int(rem / bw), count - 1)
                    part = rem - full * bw
                    idx = full
                    if part > tol:
                        spare0 = bw - part
                        if spare0 > tol:
                            pools.push(first + full, 1, spare0, open_=True)
                        idx = full + 1
                    if idx < count:
                        pools.push(first + idx, count - idx, bw, open_=True)
                else:
                    pools.push(first, count, bw, open_=True)
            feeds.append(
                SegmentFeed(first=first, count=count, rate=t, portions=tuple(portions))
            )
    scheme = RunScheme(runs.num_nodes, t, feeds)
    return CollapsedSolution(scheme, t, [tuple(s) for s in segments])


def collapsed_scheme(runs: ClassRuns) -> CollapsedSolution:
    """Full collapsed Theorem 4.1 pipeline: rate -> segments -> RunScheme.

    The rate is ``T*_ac`` via the run-length dichotomic search
    (bit-identical in rate to the per-node pipeline).
    """
    target, segments = optimal_acyclic_throughput_runs(runs)
    if target == float("inf"):
        return CollapsedSolution(RunScheme(runs.num_nodes, 0.0, ()), target, [])
    return pack_segments(runs, segments, target)
