"""Algorithm 2 ("GreedyTest") — feasibility oracle with guarded nodes.

Section IV-B of the paper.  Given a target rate ``T``, the algorithm
builds a coding word letter by letter, preferring guarded letters (the
scarce resource is *open* bandwidth: burning guarded upload early is never
wasteful).  An open letter is forced when

* no guarded node remains (``j = m``),
* the open pool cannot feed a guarded node now (``O(pi) < T``), or
* taking the guarded node would strand the next step
  (``O(pi) + G(pi) - T + b_next_guarded < T``),

with a special last-guarded rule (``j = m - 1``): when exactly one guarded
node remains, minimizing open->open waste no longer matters and the
algorithm simply takes the larger of the two candidate bandwidths.

Lemma 4.5: the algorithm returns a valid word iff ``T <= T*_ac``, so a
dichotomic search on ``T`` (see :mod:`repro.algorithms.acyclic_guarded`)
computes the optimal acyclic throughput; each call costs ``O(n + m)``.

The run can be traced step by step; Table I of the paper is exactly such
a trace on the Figure 1 instance (see :mod:`repro.experiments.table1`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core.instance import Instance
from ..core.words import (
    GUARDED,
    OPEN,
    WordState,
    initial_state,
    step_state,
)

__all__ = [
    "GreedyStep",
    "GreedyResult",
    "greedy_test",
    "greedy_word",
    "greedy_segments",
    "segments_to_word",
]


@dataclass(frozen=True)
class GreedyStep:
    """One appended letter with the resulting pools and the decision cause."""

    letter: str
    state: WordState  #: Lemma 4.4 state *after* appending ``letter``
    reason: str  #: human-readable cause ("preferred guarded", "forced open: O < T", ...)


@dataclass
class GreedyResult:
    """Outcome of a GreedyTest run."""

    feasible: bool
    throughput: float
    word: str = ""
    steps: list[GreedyStep] = field(default_factory=list)
    failure: Optional[str] = None  #: reason when infeasible
    initial: Optional[WordState] = None  #: empty-prefix state (trace mode)

    def states(self) -> list[WordState]:
        """All Lemma 4.4 states, starting with the empty prefix (trace mode)."""
        if self.initial is None:
            raise ValueError("run greedy_test(..., trace=True) to keep states")
        return [self.initial, *(s.state for s in self.steps)]


def _greedy_word_fast(
    b0: float,
    opens: tuple[float, ...],
    guardeds: tuple[float, ...],
    throughput: float,
) -> Optional[str]:
    """Allocation-free Algorithm 2 (hot path of the parameter sweeps).

    Semantically identical to the traced version in :func:`greedy_test`
    (property-tested against it); returns the word or None on failure.
    """
    n, m = len(opens), len(guardeds)
    open_avail = b0
    guarded_avail = 0.0
    i = j = 0
    letters: list[str] = []
    append = letters.append
    t = throughput
    while i + j < n + m:
        if open_avail + guarded_avail < t:
            return None
        take_guarded = True
        if i != n:
            if j == m:
                take_guarded = False
            elif j == m - 1:
                if open_avail < t or guardeds[j] < opens[i]:
                    take_guarded = False
            else:
                if (
                    open_avail < t
                    or open_avail + guarded_avail - t + guardeds[j] < t
                ):
                    take_guarded = False
        if take_guarded:
            open_avail -= t
            if open_avail < 0.0:
                return None
            guarded_avail += guardeds[j]
            j += 1
            append(GUARDED)
        else:
            open_avail += opens[i]
            need = t - guarded_avail
            if need > 0.0:
                open_avail -= need
                guarded_avail = 0.0
            else:
                guarded_avail -= t
            i += 1
            append(OPEN)
    return "".join(letters)


#: Parametric passes :func:`_greedy_threshold` makes before it gives up
#: (each further pass starts just past a decision flip).  A pass that
#: does not settle costs the search its whole bisection tail, so this is
#: the budget at which churn-sized snapshots settle, with margin:
#: ``SteadyChurn(size=150)`` populations need up to 24 passes (8 left 71
#: of the 83 estimates of one 256-solve churn run unsettled, and those
#: solves 3526 Algorithm 2 probes against 1156 at 32), while the
#: serve-tcp session instances settle within 5 (164 probes either way).
#: Unused passes cost nothing: the loop returns as soon as one settles.
_THRESHOLD_PASSES = 32

#: Relative step past a decision flip where the next pass starts: wide
#: enough that the flipped decision evaluates as flipped despite
#: rounding, narrow enough (~9e-13) that the flip is still a close
#: estimate of a threshold inside the step.
_FLIP_STEP = 2.0**-40


def _greedy_threshold(
    b0: float,
    opens: tuple[float, ...],
    guardeds: tuple[float, ...],
    start: float,
) -> Optional[float]:
    """Estimate of the rate at which :func:`_greedy_word_fast` turns
    infeasible, from a rate ``start`` at which it is feasible.

    Algorithm 2 run parametrically in ``T`` — the one-segment case of
    :mod:`repro.core.exact_words`: the decisions are the ones taken at
    ``start`` and the pools stay affine, ``O(T) = xa + xb T`` and
    ``G(T) = ya + yb T``.  Every constraint is affine with a negative
    slope, so each holds up to one root:

    * a decision or pool branch taken at ``start`` holds up to its
      *flip* (a guarded letter's ``O >= T`` and look-ahead tests, an
      open letter's ``G >= T`` branch; the other outcomes stay put as
      ``T`` grows);
    * a feasibility constraint (``O + G >= T`` before a letter,
      ``O >= T`` before a forced guarded one) holds up to its *root*.

    When the smallest root comes before the smallest flip, it is where
    the oracle fails, up to rounding.  Otherwise the next pass starts
    just past the flip, resuming at the letter that flipped (the letters
    before it keep their decisions), at most :data:`_THRESHOLD_PASSES`
    passes in all; if the rate just past a flip is already infeasible,
    the flip is the estimate.  Returns ``None`` when no pass settles, or
    when ``start`` already looks infeasible on the first pass.

    Only an estimate: the search in
    :func:`~repro.algorithms.acyclic_guarded.optimal_acyclic_throughput`
    spends two real probes on it, so a poor estimate costs probes,
    never bits.
    """
    n, m = len(opens), len(guardeds)
    t = start
    settled: Optional[float] = None
    # Every time the smallest flip drops, the state before that letter
    # is pushed: a pass past a flip resumes at the flipped letter, and
    # the letters before it keep their decisions, flips and roots.
    resume = [(0, 0, b0, 0.0, 0.0, 0.0, math.inf, math.inf)]
    push = resume.append
    for _ in range(_THRESHOLD_PASSES):
        i, j, xa, xb, ya, yb, flip, root = resume.pop()
        while i + j < n + m:
            a = xa + ya
            s = 1.0 - xb - yb  # O + G - T = a - s T, s >= 1
            take_guarded = True
            if i != n:
                if j == m:
                    take_guarded = False
                else:
                    sx = 1.0 - xb  # O - T = xa - sx T
                    if xa < sx * t:
                        take_guarded = False
                    elif j == m - 1:
                        if guardeds[j] < opens[i]:
                            take_guarded = False
                        elif xa < flip * sx:
                            push((i, j, xa, xb, ya, yb, flip, root))
                            flip = xa / sx
                    else:
                        ahead = a + guardeds[j]  # O + G - T + g - T
                        if ahead < (s + 1.0) * t:
                            take_guarded = False
                        elif xa < flip * sx or ahead < flip * (s + 1.0):
                            push((i, j, xa, xb, ya, yb, flip, root))
                            flip = min(xa / sx, ahead / (s + 1.0))
            elif xa < root * (1.0 - xb):
                root = xa / (1.0 - xb)  # forced guarded: O - T >= 0
            if a < root * s:
                root = a / s
            if take_guarded:
                xb -= 1.0
                ya += guardeds[j]
                j += 1
            else:
                sy = 1.0 - yb  # G - T = ya - sy T
                if ya < sy * t:
                    # G < T: the open pool pays T - G, G drains.
                    xa += opens[i] + ya
                    xb += yb - 1.0
                    ya = yb = 0.0
                else:
                    if ya < flip * sy:
                        push((i, j, xa, xb, ya, yb, flip, root))
                        flip = ya / sy
                    xa += opens[i]
                    yb -= 1.0
                i += 1
        if root < t:
            return settled
        if root <= flip:
            return root
        settled = flip
        t = flip * (1.0 + _FLIP_STEP)
    return None


#: Minimum remaining same-decision letters before the run-length oracle
#: switches from the scalar loop to vectorized galloping (numpy per-call
#: overhead makes galloping counterproductive below this).
_GALLOP_MIN = 16

#: First gallop chunk size (doubled after every fully-consumed chunk, so
#: wasted vector work stays proportional to letters actually taken).
_GALLOP_CHUNK = 32


def _greedy_word_runs(
    b0: float,
    open_runs: Sequence[tuple[float, int]],
    guarded_runs: Sequence[tuple[float, int]],
    throughput: float,
) -> Optional[list[tuple[str, int]]]:
    """Run-length Algorithm 2: the letters of :func:`_greedy_word_fast`
    as ``(letter, count)`` segments, in O(runs + alternations) work.

    Bit-identical by construction: every pool update is either executed
    by the exact scalar transcription of the per-node loop, or by
    ``np.add.accumulate`` — a strict sequential IEEE-754 left fold, so
    vectorized streaks reproduce the scalar ``x -= t`` / ``y += g``
    sequences float-for-float.  Gallop continuation predicates are the
    scalar decision/feasibility expressions verbatim (same operation
    order), and a streak is only consumed while the scalar loop would
    provably emit the same letter; any boundary case falls back to the
    scalar step.  Property-tested letter-for-letter against
    :func:`_greedy_word_fast` across the instance families.
    """
    ob = [float(bw) for bw, _ in open_runs]
    ocnt = [int(c) for _, c in open_runs]
    gb = [float(bw) for bw, _ in guarded_runs]
    gcnt = [int(c) for _, c in guarded_runs]
    n = sum(ocnt)
    m = sum(gcnt)
    t = throughput
    x = b0
    y = 0.0
    i = j = 0  # letters taken per class
    ri = rj = 0  # current run index per class
    iu = ju = 0  # letters taken inside the current run
    chunk = _GALLOP_CHUNK
    segments: list[list] = []

    def emit(letter: str, count: int) -> None:
        if segments and segments[-1][0] == letter:
            segments[-1][1] += count
        else:
            segments.append([letter, count])

    while i + j < n + m:
        # ---- one exact scalar letter (transcribed from the fast path) --
        if x + y < t:
            return None
        take_guarded = True
        if i != n:
            if j == m:
                take_guarded = False
            elif j == m - 1:
                if x < t or gb[rj] < ob[ri]:
                    take_guarded = False
            else:
                if x < t or x + y - t + gb[rj] < t:
                    take_guarded = False
        if take_guarded:
            g = gb[rj]
            x -= t
            if x < 0.0:
                return None
            y += g
            j += 1
            ju += 1
            if ju == gcnt[rj]:
                rj += 1
                ju = 0
            emit(GUARDED, 1)
        else:
            b = ob[ri]
            x += b
            need = t - y
            if need > 0.0:
                x -= need
                y = 0.0
            else:
                y -= t
            i += 1
            iu += 1
            if iu == ocnt[ri]:
                ri += 1
                iu = 0
            emit(OPEN, 1)

        # ---- gallop: vectorize the rest of the current streak ----------
        if take_guarded:
            while j < m:
                rem = gcnt[rj] - ju
                if i == n:
                    cap = min(rem, m - j)
                elif j >= m - 1:
                    break  # last-guarded rule: scalar territory
                else:
                    cap = min(rem, (m - 1) - j)
                if cap < _GALLOP_MIN:
                    break
                g = gb[rj]
                length = min(cap, chunk)
                xs = np.empty(length + 1)
                xs[0] = x
                xs[1:] = -t
                np.add.accumulate(xs, out=xs)
                ys = np.empty(length + 1)
                ys[0] = y
                ys[1:] = g
                np.add.accumulate(ys, out=ys)
                if i == n:
                    # Forced guarded: consume while neither failure check
                    # (O + G < T before, O < 0 after) would fire.
                    ok = (xs[:-1] + ys[:-1] >= t) & (xs[1:] >= 0.0)
                else:
                    # Generic branch: scalar keeps choosing guarded iff
                    # x >= t and ((x + y) - t) + g >= t (which also
                    # implies both failure checks pass).
                    ok = (xs[:-1] >= t) & (((xs[:-1] + ys[:-1]) - t) + g >= t)
                take = length if bool(ok.all()) else int(np.argmin(ok))
                if take:
                    x = float(xs[take])
                    y = float(ys[take])
                    j += take
                    ju += take
                    if ju == gcnt[rj]:
                        rj += 1
                        ju = 0
                    emit(GUARDED, take)
                if take < length:
                    break  # scalar re-derives the boundary letter
                chunk = min(chunk * 2, 1 << 16)
        else:
            while i < n:
                cap = ocnt[ri] - iu
                if cap < _GALLOP_MIN:
                    break
                b = ob[ri]
                g = gb[rj] if j < m else 0.0
                length = min(cap, chunk)
                if y == 0.0:
                    # With an empty guarded pool each open letter costs
                    # x += b; x -= t (need == t > 0) and leaves y at 0.0.
                    arr = np.empty(2 * length + 1)
                    arr[0] = x
                    arr[1::2] = b
                    arr[2::2] = -t
                    np.add.accumulate(arr, out=arr)
                    xpre = arr[0 : 2 * length : 2]
                    feasible = (xpre + y) >= t
                    if j == m:
                        ok = feasible
                    elif j == m - 1:
                        if g < b:
                            ok = feasible
                        else:
                            break  # scalar may prefer the last guarded
                    else:
                        ok = (xpre >= t) & ((((xpre + y) - t) + g) < t)
                    take = length if bool(ok.all()) else int(np.argmin(ok))
                    if take:
                        x = float(arr[2 * take])
                else:
                    # Drain mode: while y >= t the open letter costs
                    # x += b; y -= t.
                    xs = np.empty(length + 1)
                    xs[0] = x
                    xs[1:] = b
                    np.add.accumulate(xs, out=xs)
                    ys = np.empty(length + 1)
                    ys[0] = y
                    ys[1:] = -t
                    np.add.accumulate(ys, out=ys)
                    xv = xs[:-1]
                    yv = ys[:-1]
                    ok = ((xv + yv) >= t) & (yv >= t)
                    if j == m:
                        pass  # forced open
                    elif j == m - 1:
                        if not g < b:
                            ok &= xv < t
                    else:
                        ok &= (xv < t) | ((((xv + yv) - t) + g) < t)
                    take = length if bool(ok.all()) else int(np.argmin(ok))
                    if take:
                        x = float(xs[take])
                        y = float(ys[take])
                if take:
                    i += take
                    iu += take
                    if iu == ocnt[ri]:
                        ri += 1
                        iu = 0
                    emit(OPEN, take)
                if take < length:
                    break
                chunk = min(chunk * 2, 1 << 16)
    return [(letter, count) for letter, count in segments]


def greedy_segments(
    b0: float,
    open_runs: Sequence[tuple[float, int]],
    guarded_runs: Sequence[tuple[float, int]],
    throughput: float,
) -> Optional[list[tuple[str, int]]]:
    """Run-length greedy word as ``(letter, count)`` segments.

    Returns ``None`` when ``throughput`` is infeasible; at rates <= 0 the
    guarded-first zero word of :func:`greedy_test` is returned.
    """
    n = sum(c for _, c in open_runs)
    m = sum(c for _, c in guarded_runs)
    if throughput <= 0.0:
        segments = []
        if m:
            segments.append((GUARDED, m))
        if n:
            segments.append((OPEN, n))
        return segments
    return _greedy_word_runs(b0, open_runs, guarded_runs, throughput)


def segments_to_word(segments: Sequence[tuple[str, int]]) -> str:
    """Expand ``(letter, count)`` segments to a plain word string."""
    return "".join(letter * count for letter, count in segments)


def greedy_test(
    instance: Instance, throughput: float, *, trace: bool = False
) -> GreedyResult:
    """Decide whether rate ``throughput`` is acyclically feasible.

    Implements Algorithm 2 verbatim.  With ``trace=True`` every decision is
    recorded (used to regenerate Table I); otherwise an allocation-free
    fast path is used and only the word is kept.

    Comparisons are exact (no tolerance): the dichotomic search calling
    this oracle relies on monotone exact feasibility, and the returned
    optimum is always the *feasible* bracket endpoint.  A NaN rate is
    infeasible (Algorithm 2's comparisons would all pass it).
    """
    n, m = instance.n, instance.m
    result = GreedyResult(feasible=True, throughput=throughput)
    if math.isnan(throughput):
        result.feasible = False
        result.failure = "rate is NaN"
        return result
    if throughput <= 0.0:
        # Any order works at rate 0; emit the guarded-first greedy word.
        result.word = GUARDED * m + OPEN * n
        return result
    if not trace:
        word = _greedy_word_fast(
            instance.source_bw,
            instance.open_bws,
            instance.guarded_bws,
            throughput,
        )
        if word is None:
            result.feasible = False
            result.failure = "infeasible (fast path; re-run with trace=True)"
        else:
            result.word = word
        return result
    state = initial_state(instance)
    if trace:
        result.initial = state
    letters: list[str] = []
    steps: list[GreedyStep] = []
    while len(letters) < n + m:
        if state.total_avail < throughput:
            result.feasible = False
            result.failure = (
                f"after '{''.join(letters)}': O + G = {state.total_avail:g} "
                f"< T = {throughput:g}"
            )
            break
        i, j = state.opens_used, state.guardeds_used
        letter = GUARDED
        reason = "preferred guarded"
        if i != n:
            if j == m:
                letter, reason = OPEN, "forced open: no guarded node left"
            elif j == m - 1:
                # Last guarded node: take the larger bandwidth next (waste
                # minimization no longer matters, Lemma 9.3).
                if state.open_avail < throughput:
                    letter, reason = OPEN, "forced open: O < T (last guarded)"
                elif instance.guarded_bws[j] < instance.open_bws[i]:
                    letter, reason = (
                        OPEN,
                        "forced open: next open bandwidth larger "
                        "(last guarded delayed)",
                    )
            else:
                if state.open_avail < throughput:
                    letter, reason = OPEN, "forced open: O < T"
                elif (
                    state.total_avail - throughput + instance.guarded_bws[j]
                    < throughput
                ):
                    letter, reason = (
                        OPEN,
                        "forced open: guarded choice would strand next step "
                        "(O + G - T + b_next_guarded < T)",
                    )
        else:
            reason = "forced guarded: no open node left"
        state = step_state(state, letter, instance, throughput)
        letters.append(letter)
        if trace:
            steps.append(GreedyStep(letter, state, reason))
        if state.open_avail < 0.0:
            result.feasible = False
            result.failure = (
                f"after '{''.join(letters)}': O = {state.open_avail:g} < 0"
            )
            break
    result.word = "".join(letters)
    result.steps = steps
    if not result.feasible:
        result.word = ""
        return result
    return result


def greedy_word(instance: Instance, throughput: float) -> Optional[str]:
    """The greedy word for ``throughput``, or None when infeasible."""
    res = greedy_test(instance, throughput)
    return res.word if res.feasible else None
