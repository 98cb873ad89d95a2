"""Counter-based random number plumbing.

All randomness in the package flows through Philox (4x64) generators keyed
explicitly by (seed, context) words, so any unit of work can rebuild its own
stream without sharing state.  Training derives one key per (member, stream)
and per (member, candidate), which makes results independent of scheduling
order and therefore of the number of worker threads.

Gaussian variates are produced by inverse-CDF transform of open-interval
uniforms rather than by the generator's native method; the algorithm id is
recorded in serialized models ("philox4x64" / "inverse_cdf").
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

RNG_ALGORITHM = "philox4x64"
NORMAL_METHOD = "inverse_cdf"

# Stream tags for the second key word.  Member streams combine the member
# index (high 32 bits) with one of these tags (low 32 bits).
STREAM_ROTATION = 0
STREAM_SPLIT = 1
STREAM_CANDIDATE0 = 16  # candidate i uses STREAM_CANDIDATE0 + i

# Tag used outside member training, by the data generators.
STREAM_DATA = 101


def mix64(*words: int) -> int:
    """Mix integer words into a single 64-bit value (splitmix64 chain).

    Pure integer arithmetic, so derived seeds are stable across platforms
    and interpreter versions.
    """
    x = 0x9E3779B97F4A7C15
    for w in words:
        x = (x + (w & MASK64) + 0x9E3779B97F4A7C15) & MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        x = z ^ (z >> 31)
    return x


def philox_generator(seed: int, word: int = 0) -> np.random.Generator:
    """Generator keyed by two explicit 64-bit words."""
    key = np.array([seed & MASK64, word & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def member_generator(seed: int, member: int, stream: int) -> np.random.Generator:
    """Generator for one (ensemble member, stream) pair.

    The member index occupies the high 32 bits of the second key word and
    the stream tag the low 32 bits, so distinct members and streams never
    collide for member < 2**32.
    """
    word = ((member & 0xFFFFFFFF) << 32) | (stream & 0xFFFFFFFF)
    return philox_generator(seed, word)


def standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normal variates via inverse CDF of open-interval uniforms.

    Uniforms are centered on the 53-bit lattice, (k + 0.5) * 2**-53, so the
    argument to ndtri is strictly inside (0, 1) and the output is always
    finite.
    """
    from scipy.special import ndtri  # imported on first use: loading SciPy is slow

    u = (rng.integers(0, 1 << 53, size=size, dtype=np.int64) + 0.5) * 2.0**-53
    return ndtri(u)
