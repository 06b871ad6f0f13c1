"""Synthetic point-to-point bandwidth measurements (LastMile ground truth).

Section II-C: the paper's pipeline instantiates the LastMile model from
"a reasonable size of point-to-point measurements" using the Bedibe tool
[14].  Bedibe itself consumes measured pairwise available bandwidths; to
exercise the same code path offline we generate those measurements from a
known ground truth:

* every node has an outgoing limit ``b_out`` and an incoming limit
  ``b_in`` (the LastMile / bounded multi-port model);
* the measured bandwidth of a pair ``(i, j)`` is
  ``min(b_out_i, b_in_j)`` times a multiplicative log-normal noise term
  (TCP measurement jitter);
* only a sparse random subset of pairs is measured (``pairs_per_node``),
  as in real deployments where full N^2 probing is too expensive.

The noise of a seeded probe is a pure function of (domain, seed, round,
source, target): :func:`pair_noise` is its definition, one counter-based
``default_rng`` stream per probe and one normal draw from it.
:func:`pair_noises` serves a whole round (or a whole node's targets) in
one call and returns the same floats bit for bit, with no generator per
probe: it replays, on arrays, each step numpy takes for that draw.

* **SeedSequence's hash** of the stream key, as 2-D uint32 operations
  over the round; its multiplier sequence depends only on the key's
  word count, so it is tabulated once per count.
* **PCG64's seeding and first output**: seeding plus the first step
  collapse to ``state1 = (initstate + inc)·M² + inc·(M + 1) mod 2**128``,
  computed on uint64 limbs from 32-bit partial products, then PCG's
  XSL-RR output function.
* **The ziggurat's first try**: numpy's ``standard_normal`` returns
  ``±rabs·wi[idx]`` when ``rabs < ki[idx]`` (``idx`` is the word's low
  8 bits, ``rabs`` the 52 bits above the sign bit).

The layer widths ``wi`` and verified lower bounds of ``ki`` are not
copied from numpy's source: :func:`_ziggurat` derives them from numpy
itself, lazily, once per process, by drawing from generators crafted to
emit chosen words, and it keeps a bound only after a draw at it
consumed exactly one output.  Every stream outside that certified
region (layers 1 and 2, or ``rabs`` at or above its layer's bound:
about 2% of probes) is re-seeded into one reused ``Generator`` and
drawn by numpy itself, so the result is exact whichever path a probe
takes.  The replay follows the numpy version installed; the
equivalence tests against :func:`pair_noise` pin that version's stream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "LastMileGroundTruth",
    "Measurement",
    "pair_noise",
    "pair_noises",
    "sample_measurements",
]


@dataclass(frozen=True)
class Measurement:
    """One directed bandwidth probe ``source -> target``."""

    source: int
    target: int
    value: float


@dataclass(frozen=True)
class LastMileGroundTruth:
    """True per-node LastMile parameters."""

    b_out: tuple[float, ...]
    b_in: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.b_out) != len(self.b_in):
            raise ValueError("b_out and b_in must have the same length")
        if any(v < 0 for v in self.b_out) or any(v < 0 for v in self.b_in):
            raise ValueError("bandwidth limits must be non-negative")

    @property
    def num_nodes(self) -> int:
        return len(self.b_out)

    def pair_bandwidth(self, i: int, j: int) -> float:
        """Noise-free achievable bandwidth of the pair (LastMile model)."""
        return min(self.b_out[i], self.b_in[j])

    @classmethod
    def symmetric(cls, b_out: Sequence[float], headroom: float = 4.0):
        """Ground truth where ``b_in = headroom * b_out``.

        Models the common asymmetric-access case (DSL/cable): download
        capacity comfortably above upload, so that pair bandwidths are
        mostly sender-limited — the regime in which the paper's
        "outgoing bandwidth only" instance model is accurate.
        """
        return cls(
            tuple(float(b) for b in b_out),
            tuple(float(b) * headroom for b in b_out),
        )


#: Stream-domain tags keeping the per-pair noise streams disjoint from
#: the per-node target-selection streams when both derive from one seed.
_PAIR_DOMAIN = 0x9E37
_TARGET_DOMAIN = 0x79B9


def pair_noise(
    seed: int, source: int, target: int, noise_sigma: float, round_: int = 0
) -> float:
    """The multiplicative log-normal noise of one seeded probe.

    Every ``(seed, round, source, target)`` tuple owns an independent
    counter-based stream, so the noise applied to a pair never depends on
    *which other pairs* the caller happened to sample — the property that
    keeps sparse probing deterministic across batch shards and
    process-pool dispatch (the same mode-independence guarantee the
    runtime engine makes for its simulation seeds).  A negative key
    component raises :class:`ValueError`, as numpy's seeding would.
    """
    lowest = min(seed, round_, source, target)
    if lowest < 0:
        raise ValueError(
            f"probe stream keys must be non-negative, got {lowest}"
        )
    if noise_sigma == 0.0:
        return 1.0
    stream = np.random.default_rng(
        (_PAIR_DOMAIN, seed, round_, source, target)
    )
    return float(np.exp(stream.normal(0.0, noise_sigma)))


# numpy's SeedSequence hash (``numpy/random/bit_generator.pyx``) with its
# default 4-word pool, and PCG64's 128-bit LCG multiplier: the pieces
# :func:`pair_noises` replays to seed a stream without constructing it.
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK_64 = (1 << 64) - 1
_MASK_128 = (1 << 128) - 1
#: Seeding leaves PCG64 at ``state0 = (initstate + inc)·M + inc``
#: (``pcg_setseq_128_srandom_r``), and its first output is drawn from
#: ``state1 = state0·M + inc = initstate·M² + inc·K``, ``K = M² + M + 1``.
_PCG_MULT_SQ = _PCG_MULT * _PCG_MULT & _MASK_128
_PCG_STEP = (_PCG_MULT_SQ + _PCG_MULT + 1) & _MASK_128
_PCG_STEP_LIMBS = (np.uint64(_PCG_STEP >> 64), np.uint64(_PCG_STEP & _MASK_64))
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
_LOW_32 = np.uint64(0xFFFFFFFF)
_SHIFT_32 = np.uint64(32)
#: Entropy words are 32 bits: keys below this hash as one word each.
_WORD = 1 << 32


def _words(value: int) -> list[int]:
    """A non-negative ``value`` as SeedSequence entropy: its
    little-endian 32-bit words (``[0]`` for zero)."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


@functools.lru_cache(maxsize=None)
def _hash_constants(length: int) -> tuple[list, tuple[np.ndarray, ...]]:
    """The multiplier sequence of SeedSequence's hash for entropy of
    ``length`` words: it depends on the call count, never on the data.

    Returns the pool hash's steps, each a ``(xor, multiply)`` pair of
    ``(4, 1)`` uint32 columns (one ``hashmix`` constant per pool word
    it mixes into, in call order), and ``generate_state``'s ``(8, 1)``
    pair.
    """
    mult = _INIT_A

    def step(targets):
        nonlocal mult
        xors, mults = [0] * _POOL_SIZE, [0] * _POOL_SIZE
        for dst in targets:
            xors[dst] = mult
            mult = (mult * _MULT_A) & 0xFFFFFFFF
            mults[dst] = mult
        return tuple(
            np.array(column, dtype=np.uint32).reshape(-1, 1)
            for column in (xors, mults)
        )

    pool = range(_POOL_SIZE)
    steps = [step(pool)]
    steps += [step([d for d in pool if d != src]) for src in pool]
    steps += [step(pool) for _ in range(length - _POOL_SIZE)]
    mult, xors, mults = _INIT_B, [], []
    for _ in range(2 * _POOL_SIZE):
        xors.append(mult)
        mult = (mult * _MULT_B) & 0xFFFFFFFF
        mults.append(mult)
    out = tuple(
        np.array(column, dtype=np.uint32).reshape(-1, 1)
        for column in (xors, mults)
    )
    return steps, out


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, uint64)`` for every row.

    ``entropy`` is an ``(m, L)`` uint32 matrix, one assembled entropy
    word list per row; the result is the ``(4, m)`` uint64 matrix of
    state words.  The pool is a ``(4, m)`` matrix, so each group of
    ``hashmix`` calls that SeedSequence applies to one value runs as
    one 2-D operation.
    """
    count, length = entropy.shape
    steps, (out_xor, out_mult) = _hash_constants(length)
    steps = iter(steps)

    def hashmix(value: np.ndarray) -> np.ndarray:
        xor, mult = next(steps)
        value = (value ^ xor) * mult
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    columns = entropy.T
    pool = np.zeros((_POOL_SIZE, count), dtype=np.uint32)
    pool[: min(length, _POOL_SIZE)] = columns[:_POOL_SIZE]
    pool = hashmix(pool)
    for src in range(_POOL_SIZE):
        # Every word but pool[src] mixes in hashmix(pool[src]); mixing
        # all four and putting pool[src] back is the same.
        kept = pool[src]
        pool = mix(pool, hashmix(kept))
        pool[src] = kept
    for word in columns[_POOL_SIZE:]:
        pool = mix(pool, hashmix(word))

    # generate_state(4, uint64): 8 uint32 words, paired (lo, hi).
    halves = (np.tile(pool, (2, 1)) ^ out_xor) * out_mult
    halves = (halves ^ (halves >> _XSHIFT)).astype(np.uint64)
    return (halves[1::2] << np.uint64(32)) | halves[0::2]


def _stream_states(
    seed: int, round_: int, sources: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """The ``(4, m)`` SeedSequence state words of every probe stream
    ``(domain, seed, round, source, target)``.

    Keys below 2**32 are one entropy word each, so the whole round is
    one ``(m, 5)`` matrix.  Otherwise rows group by their word count,
    since the count shapes the hash.
    """
    count = len(sources)
    if max(seed, round_, int(sources.max()), int(targets.max())) < _WORD:
        entropy = np.empty((count, 5), dtype=np.uint32)
        entropy[:, :3] = (_PAIR_DOMAIN, seed, round_)
        entropy[:, 3] = sources
        entropy[:, 4] = targets
        return _seed_states(entropy)
    head = [_PAIR_DOMAIN, *_words(seed), *_words(round_)]
    groups: dict[int, tuple[list[int], list[list[int]]]] = {}
    for k, (src, dst) in enumerate(zip(sources.tolist(), targets.tolist())):
        key = head + _words(src) + _words(dst)
        rows, keys = groups.setdefault(len(key), ([], []))
        rows.append(k)
        keys.append(key)
    states = np.empty((4, count), dtype=np.uint64)
    for rows, keys in groups.values():
        states[:, rows] = _seed_states(np.array(keys, dtype=np.uint32))
    return states


def _mul_128(hi, lo, const: int):
    """``(hi, lo) * const mod 2**128`` on uint64 limbs, the low limbs'
    full 128-bit product assembled from 32-bit partial products."""
    const &= _MASK_128
    c_hi, c_lo = np.uint64(const >> 64), np.uint64(const & _MASK_64)
    b_lo, b_hi = c_lo & _LOW_32, c_lo >> _SHIFT_32
    a_lo, a_hi = lo & _LOW_32, lo >> _SHIFT_32
    cross_a, cross_b = a_lo * b_hi, a_hi * b_lo
    low = a_lo * b_lo
    mid = (low >> _SHIFT_32) + (cross_a & _LOW_32) + (cross_b & _LOW_32)
    carry = (
        a_hi * b_hi + (cross_a >> _SHIFT_32) + (cross_b >> _SHIFT_32)
        + (mid >> _SHIFT_32)
    )
    return carry + lo * c_hi + hi * c_lo, lo * c_lo


def _add_128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _first_outputs(states: np.ndarray) -> np.ndarray:
    """The first 64-bit output of ``PCG64`` seeded by each column of the
    ``(4, m)`` SeedSequence state words.

    numpy seeds PCG64 with ``initstate = w0·2**64 + w1`` and
    ``inc = 2·initseq + 1`` for ``initseq = w2·2**64 + w3``, so the
    state the first output is drawn from is ``initstate·M² +
    initseq·2K + K`` with ``K = M² + M + 1``; the output is PCG's XSL-RR
    of that state.
    """
    w0, w1, w2, w3 = states
    hi, lo = _add_128(
        *_mul_128(w0, w1, _PCG_MULT_SQ), *_mul_128(w2, w3, 2 * _PCG_STEP)
    )
    hi, lo = _add_128(hi, lo, *_PCG_STEP_LIMBS)
    mixed = hi ^ lo
    rot = hi >> np.uint64(58)
    return (mixed >> rot) | (mixed << ((np.uint64(64) - rot) & np.uint64(63)))


#: numpy's ziggurat (``random_standard_normal``) splits one 64-bit word
#: into a layer index (bits 0-7), a sign (bit 8) and a 52-bit magnitude
#: ``rabs`` (bits 9-60), and returns ``±rabs·wi[idx]`` on the first try
#: when ``rabs < ki[idx]``.
_LAYERS = 256
_RABS_MASK = np.uint64((1 << 52) - 1)


def _settable_generator():
    """A PCG64, its ``Generator``'s ``standard_normal`` and a state dict
    to rewrite and assign (``bitgen.state = state``) before each draw."""
    bitgen = np.random.PCG64(0)
    state = bitgen.state
    state["has_uint32"] = 0
    return bitgen, np.random.Generator(bitgen).standard_normal, state


@functools.lru_cache(maxsize=None)
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """Per-layer ``(wi, bound)`` of numpy's ziggurat, derived from numpy
    itself: ``rabs < bound[idx]`` certifies that a word returns
    ``±rabs·wi[idx]`` after consuming only itself.

    A PCG64 with ``inc = 1`` and ``state = (r - 1)·M⁻¹`` steps to ``r``,
    whose output is ``r`` itself when ``r < 2**64``, so each derivation
    draw replays one chosen word.  A draw counts only if the generator
    advanced exactly that one output: a word the rectangle test rejects
    but the wedge test accepts returns the same value after consuming a
    second word.  ``wi`` comes from ``rabs = 1``; each candidate bound is
    ``2**52·wi[idx-1]/wi[idx]`` (numpy's ``ki`` up to rounding; layer 0
    pairs with the last layer), kept only if its largest ``rabs`` is
    verified on the first try.  Layers without both widths (layer 1
    never takes the first try, so neither it nor layer 2 has a
    candidate) keep bound 0: every draw of theirs is replayed in full.
    About 510 draws, once per process.
    """
    bitgen, draw, state = _settable_generator()
    lcg = state["state"]
    lcg["inc"] = 1

    def first_try(idx: int, rabs: int) -> Optional[float]:
        word = idx | rabs << 9
        lcg["state"] = (word - 1) * _PCG_MULT_INV & _MASK_128
        bitgen.state = state
        value = draw()
        if bitgen.state["state"]["state"] != word:
            return None
        return value

    widths = [first_try(idx, 1) for idx in range(_LAYERS)]
    wi = np.array([0.0 if w is None else w for w in widths])
    bound = np.zeros(_LAYERS, dtype=np.uint64)
    for idx, width in enumerate(widths):
        below = widths[idx - 1]
        if below is None or width is None:
            continue
        # Two units of margin absorb the ratio's rounding.
        top = min(int(2.0**52 * below / width), 1 << 52) - 2
        if top > 0 and first_try(idx, top) == float(top) * width:
            bound[idx] = top + 1
    wi.flags.writeable = bound.flags.writeable = False  # shared by callers
    return wi, bound


def _replay_normals(states: np.ndarray) -> np.ndarray:
    """Each stream's first ``standard_normal``, drawn by numpy itself:
    one reused generator re-seeded per stream to its post-seeding
    state (``state0 = (initstate + inc)·M + inc``)."""
    bitgen, draw, state = _settable_generator()
    lcg = state["state"]
    normals = np.empty(states.shape[1])
    for k, (w0, w1, w2, w3) in enumerate(states.T.tolist()):
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK_128
        start = (w0 << 64 | w1) + inc
        lcg["state"] = (start * _PCG_MULT + inc) & _MASK_128
        lcg["inc"] = inc
        bitgen.state = state
        normals[k] = draw()
    return normals


def _first_normals(states: np.ndarray) -> np.ndarray:
    """Each stream's first ``standard_normal``: the ziggurat's
    first-try branch on arrays where :func:`_ziggurat` certified it,
    numpy's own draw for the rest (about 2% of streams)."""
    wi, bound = _ziggurat()
    word = _first_outputs(states)
    idx = (word & np.uint64(_LAYERS - 1)).astype(np.intp)
    rabs = (word >> np.uint64(9)) & _RABS_MASK
    x = rabs.astype(np.float64) * wi[idx]
    normals = np.where((word >> np.uint64(8)) & np.uint64(1) != 0, -x, x)
    slow = (rabs >= bound[idx]).nonzero()[0]
    if slow.size:
        normals[slow] = _replay_normals(states[:, slow])
    return normals


def _key_array(keys: Sequence[int]) -> np.ndarray:
    """``keys`` as an integer array, exact at any size (an integer
    ndarray passes through; anything else becomes Python ints)."""
    if isinstance(keys, np.ndarray) and keys.dtype.kind in "iu":
        return keys
    return np.array([int(k) for k in keys], dtype=object)


def pair_noises(
    seed: int,
    round_: int,
    sources: Sequence[int],
    targets: Sequence[int],
    noise_sigma: float,
) -> np.ndarray:
    """``[pair_noise(seed, s, t, noise_sigma, round_) for s, t in ...]``,
    bit for bit, in one call, as a float64 array.

    Each probe's stream is still its own ``default_rng`` stream, but no
    generator is built per probe: the SeedSequence hash of ``(domain,
    seed, round, source, target)``, PCG64's seeding and first output and
    the ziggurat's first-try branch all run over the round as arrays
    (see the module docstring).  Rows whose keys need more 32-bit words
    hash as their own group, since the word count shapes the hash.
    Streams outside the region :func:`_ziggurat` certified (about 2%)
    are re-seeded into one reused ``Generator`` and drawn by numpy, so
    every value stays exact; the equivalence tests pin the installed
    numpy version's stream.
    """
    sources, targets = _key_array(sources), _key_array(targets)
    count = len(sources)
    if len(targets) != count:
        raise ValueError("sources and targets must have the same length")
    lowest = min(
        seed, round_, *(int(keys.min()) for keys in (sources, targets) if count)
    )
    if lowest < 0:
        raise ValueError(
            f"probe stream keys must be non-negative, got {lowest}"
        )
    if noise_sigma == 0.0 or not count:
        return np.ones(count)
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    normals = _first_normals(_stream_states(seed, round_, sources, targets))
    return np.exp(0.0 + noise_sigma * normals)


def sample_measurements(
    rng: Union[np.random.Generator, int],
    truth: LastMileGroundTruth,
    pairs_per_node: int = 8,
    noise_sigma: float = 0.1,
) -> list[Measurement]:
    """Probe a sparse random subset of ordered pairs.

    Each node probes ``pairs_per_node`` distinct random targets; the
    reported value is the LastMile pair bandwidth with multiplicative
    log-normal noise ``exp(N(0, noise_sigma^2))``.

    ``rng`` may be a shared :class:`numpy.random.Generator` (the
    historical API: one sequential stream, so the value drawn for a pair
    depends on every draw before it) or an ``int`` seed.  With a seed,
    target selection and probe noise derive from *per-node and per-pair*
    counter-based streams (:func:`pair_noise`, drawn one node's targets
    at a time by :func:`pair_noises`): repeated calls with the
    same seed report bit-identical values for every pair they have in
    common, even when ``pairs_per_node`` or the sampled subsets differ —
    which is what lets the batch runner fan measurement sampling across
    worker processes without mode-dependent results.
    """
    num = truth.num_nodes
    if num < 2:
        raise ValueError("need at least two nodes to measure pairs")
    if not pairs_per_node >= 0:
        raise ValueError(
            f"pairs_per_node must be >= 0, got {pairs_per_node}"
        )
    k = min(pairs_per_node, num - 1)
    seeded = not isinstance(rng, np.random.Generator)
    seed = int(rng) if seeded else 0
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    measurements: list[Measurement] = []
    for i in range(num):
        others = np.array([j for j in range(num) if j != i])
        if seeded:
            node_rng = np.random.default_rng((_TARGET_DOMAIN, seed, i))
            targets = sorted(
                int(j) for j in node_rng.choice(others, size=k, replace=False)
            )
            sources = [i] * len(targets)
            noises = pair_noises(
                seed, 0, sources, targets, noise_sigma
            ).tolist()
        else:
            targets = [
                int(j) for j in rng.choice(others, size=k, replace=False)
            ]
            noises = [
                float(np.exp(rng.normal(0.0, noise_sigma))) for _ in targets
            ]
        for j, noise in zip(targets, noises):
            measurements.append(
                Measurement(i, j, truth.pair_bandwidth(i, j) * noise)
            )
    return measurements
