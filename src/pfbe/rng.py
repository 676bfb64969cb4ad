"""Deterministic random streams: splitmix64-seeded xoshiro256++ with Box-Muller.

The exact bit-level pipeline is pinned so instances regenerate identically
on any platform or language:

* state seeding: four splitmix64 outputs from the 64-bit seed;
* uniform doubles: ``u = (next_u64() >> 11) * 2**-53`` in ``[0, 1)``;
* normals: Box-Muller on the pair ``(u1, u2)`` where
  ``u1 = ((bits >> 11) + 1) * 2**-53`` lies in ``(0, 1]`` (safe log) and
  ``u2`` uses the plain ``[0, 1)`` mapping for the angle. The cosine
  branch is returned first, the sine branch is cached as the spare.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1


def _rotl(v: int, k: int) -> int:
    return ((v << k) | (v >> (64 - k))) & _MASK64


def splitmix64_next(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns ``(new_state, output)``."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


class Xoshiro256pp:
    """xoshiro256++ generator seeded through splitmix64."""

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        state = seed
        s = []
        for _ in range(4):
            state, out = splitmix64_next(state)
            s.append(out)
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s0 + s3) & _MASK64, 23) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def next_f64(self) -> float:
        """Uniform double in ``[0, 1)`` from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53


class NormalStream:
    """Standard normal stream via Box-Muller over a Xoshiro256pp core."""

    def __init__(self, seed: int):
        self.bits = Xoshiro256pp(seed)
        self._spare: float | None = None

    def next(self) -> float:
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        u1 = ((self.bits.next_u64() >> 11) + 1) * 2.0**-53
        u2 = (self.bits.next_u64() >> 11) * 2.0**-53
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        z0 = radius * math.cos(angle)
        self._spare = radius * math.sin(angle)
        return z0

    def array(self, *shape: int):
        """Row-major array of draws with the given shape."""
        import numpy as np

        count = 1
        for s in shape:
            count *= int(s)
        flat = np.array([self.next() for _ in range(count)], dtype=np.float64)
        return flat.reshape(shape) if shape else flat[0]
