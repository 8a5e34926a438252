"""Deterministic counter-based random numbers.

Every stochastic quantity in this package (phantom noise, sampler noise,
probe sampling) is a pure function of ``(seed, stream tags, counter)``, so
any artifact can be regenerated bit-identically from the seed recorded in
its manifest, independent of call order or process history.

The generator is SplitMix64: the k-th raw word of a stream is
``finalize(key + k * GOLDEN)`` where ``finalize`` is the usual xor-shift /
multiply avalanche and ``GOLDEN = 0x9E3779B97F4A7C15``.  Uniform doubles
take the top 53 bits; Gaussians are produced from uniform pairs by the
Box-Muller transform.  Integer output is bit-stable on every platform;
float output is additionally stable across runs on one platform (it goes
through libm's log/cos/sin).  ``ALGORITHM_ID`` names this construction and
is stamped into every run manifest.
"""

from __future__ import annotations

import numpy as np

from .errors import Rule, require, require_ints

ALGORITHM_ID = "ctr-splitmix64-boxmuller/1"

SEED_BOUND = 1 << 64  # a seed lies in [0, SEED_BOUND); derive_key rejects any other
SEED = Rule(lambda v: 0 <= v < SEED_BOUND, "in [0, 2**64)")
_MASK = SEED_BOUND - 1
_GOLDEN_INT = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB

_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX1 = np.uint64(_MIX1_INT)
_MIX2 = np.uint64(_MIX2_INT)
_TWO_POW_NEG53 = 2.0 ** -53


def _finalize(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 avalanche of every word of ``z``, in place."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _finalize_int(z: int) -> int:
    # Scalar twin of _finalize on Python ints (no numpy overflow warnings).
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK
    return z ^ (z >> 31)


def derive_key(seed: int, *tags: int) -> int:
    """Fold a user seed and a sequence of integer stream tags into a 64-bit key.

    Distinct tag tuples give statistically independent streams for the same
    seed (phantom noise, per-member sampler noise, per-step noise, ...).
    """
    require_ints(seed=seed)
    require(SEED.test(seed), "seed", SEED.text, seed)
    key = _finalize_int(int(seed))
    for tag in tags:
        key = _finalize_int(key ^ _finalize_int((int(tag) + _GOLDEN_INT) & _MASK))
    return key


def raw_words(key: int, count: int, start: int = 0) -> np.ndarray:
    """``count`` raw uint64 words of the stream ``key``, counters ``start..``."""
    z = np.arange(start, start + count, dtype=np.uint64)
    z *= _GOLDEN
    z += np.uint64(key & _MASK)
    return _finalize(z)


def uniforms(key: int, count: int, start: int = 0) -> np.ndarray:
    """Uniform float64 samples in [0, 1)."""
    return (raw_words(key, count, start) >> np.uint64(11)).astype(np.float64) * _TWO_POW_NEG53


def normals(key: int, shape: tuple[int, ...] | int) -> np.ndarray:
    """Standard-normal field of the given shape via Box-Muller."""
    n = int(np.prod(shape))
    pairs = (n + 1) // 2
    # Words 0..pairs-1 give u1, the next pairs give u2; the cosines fill the
    # first half of the output and the sines the second.
    u = uniforms(key, 2 * pairs)
    # u1 = u + 2**-53 lies in (0, 1], so log() is always finite; the sum is
    # exact, the same bits as (word + 1) * 2**-53.
    r = np.sqrt(-2.0 * np.log(u[:pairs] + _TWO_POW_NEG53))
    theta = (2.0 * np.pi) * u[pairs:]
    z = np.empty((2, pairs))
    np.cos(theta, out=z[0])
    np.sin(theta, out=z[1])
    z *= r
    return z.ravel()[:n].reshape(shape)


def integers(key: int, count: int, upper: int, start: int = 0) -> np.ndarray:
    """Integers in [0, upper) by multiply-shift on the uniform stream.

    The tiny modulo bias of floor(u * upper) is irrelevant for probe
    placement and far below any tolerance used in tests.
    """
    require(upper > 0, "upper", "positive", upper)
    u = uniforms(key, count, start)
    return np.minimum((u * upper).astype(np.int64), upper - 1)
