"""splitmix64: a tiny, fast, splittable 64-bit PRNG.

Chosen over numpy's generators because the state is a single uint64 and the
k-th state is seed + GOLDEN*k (mod 2^64), so any slice of the stream can be
reconstructed independently. That makes sampled workspaces reproducible
bit for bit from (seed, index) alone, with no stream object to carry around.

Reference vectors (seed 0): 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, ...
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

#: 2**-53, scales a 53-bit integer onto [0, 1)
_UNIT = 2.0 ** -53


class SplitMix64:
    """Sequential generator. state advances by GOLDEN before each output."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform double on [0, 1): the top 53 bits of the next output."""
        return (self.next_u64() >> 11) * _UNIT


def bulk_unit(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Outputs offset+1 .. offset+count of SplitMix64(seed).next_unit(),
    computed vectorized. Bit-identical to the scalar path.

    The seed must lie in 0 .. 2**64 - 1 and the offset be >= 0: the stream
    is defined by the 64-bit state, so any other value would alias another
    seed's stream or a place before this one's start. The mixing runs in
    place on one uint64 array, with the float64 result, viewed as uint64,
    as the shift temporary; one converting multiply then writes the draws.
    """
    import numpy as np
    if count < 0:
        raise ValueError("count must be >= 0")
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be in 0 .. 2**64 - 1, got {seed}")
    if count > np.iinfo(np.intp).max // 8:  # more bytes than an array can index
        raise MemoryError(f"cannot allocate {count} draws")
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(GOLDEN)
    z += np.uint64((seed + offset * GOLDEN) & MASK64)
    out = np.empty(count)
    shifted = out.view(np.uint64)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    z >>= np.uint64(11)
    return np.multiply(z, _UNIT, out=out)
