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
stream per probe.  :func:`pair_noises` serves a whole round (or a whole
node's targets) in one call and returns the same floats bit for bit; it
hashes the round's stream keys as arrays and re-seeds one reused bit
generator per probe instead of building three numpy objects per probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

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
_MASK_128 = (1 << 128) - 1


def _words(value: int) -> list[int]:
    """A non-negative ``value`` as SeedSequence entropy: its
    little-endian 32-bit words (``[0]`` for zero)."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _seed_states(entropy: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(row).generate_state(4, uint64)`` for every row.

    ``entropy`` is an ``(m, L)`` uint32 matrix, one assembled entropy
    word list per row; the result is the four state words as uint64
    arrays of length ``m``.
    """
    mult = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal mult
        value = value ^ np.uint32(mult)
        mult = (mult * _MULT_A) & 0xFFFFFFFF
        value = value * np.uint32(mult)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    columns = list(entropy.T)
    zero = np.zeros(len(entropy), dtype=np.uint32)
    pool = [
        hashmix(columns[i] if i < len(columns) else zero)
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in columns[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): 8 uint32 words, paired (lo, hi).
    mult = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(mult)
        mult = (mult * _MULT_B) & 0xFFFFFFFF
        value = value * np.uint32(mult)
        halves.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    return [
        (hi << np.uint64(32)) | lo for lo, hi in zip(halves[::2], halves[1::2])
    ]


def pair_noises(
    seed: int,
    round_: int,
    sources: Sequence[int],
    targets: Sequence[int],
    noise_sigma: float,
) -> list[float]:
    """``[pair_noise(seed, s, t, noise_sigma, round_) for s, t in ...]``,
    bit for bit, in one call.

    Each probe's stream is still its own ``default_rng`` stream: the
    SeedSequence hash of ``(domain, seed, round, source, target)`` runs
    over the whole batch as uint32 arrays, PCG64's seeding step
    (``state = (inc + initstate) * M + inc``) runs per probe on Python
    ints, and one reused ``Generator`` makes each probe's single normal
    draw from that state.  Rows whose keys need more 32-bit words hash
    as their own group, since the word count shapes the hash.
    """
    count = len(sources)
    if len(targets) != count:
        raise ValueError("sources and targets must have the same length")
    lowest = min(seed, round_, *sources, *targets)
    if lowest < 0:
        raise ValueError(
            f"probe stream keys must be non-negative, got {lowest}"
        )
    if noise_sigma == 0.0 or not count:
        return [1.0] * count
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    head = [_PAIR_DOMAIN, *_words(seed), *_words(round_)]
    groups: dict[int, tuple[list[int], list[list[int]]]] = {}
    for k, (src, dst) in enumerate(zip(sources, targets)):
        key = head + _words(src) + _words(dst)
        rows, keys = groups.setdefault(len(key), ([], []))
        rows.append(k)
        keys.append(key)
    bitgen = np.random.PCG64(0)
    draw = np.random.Generator(bitgen).standard_normal
    state = bitgen.state
    state["has_uint32"] = 0
    lcg = state["state"]
    normals = np.empty(count)
    for rows, keys in groups.values():
        words = _seed_states(np.array(keys, dtype=np.uint32))
        for k, w0, w1, w2, w3 in zip(rows, *(w.tolist() for w in words)):
            inc = ((w2 << 64 | w3) << 1 | 1) & _MASK_128
            start = (w0 << 64 | w1) + inc
            lcg["state"] = (start * _PCG_MULT + inc) & _MASK_128
            lcg["inc"] = inc
            bitgen.state = state
            normals[k] = draw()
    return np.exp(0.0 + noise_sigma * normals).tolist()


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
            noises = pair_noises(seed, 0, sources, targets, noise_sigma)
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
