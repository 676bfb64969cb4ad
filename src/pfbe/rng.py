"""Deterministic random streams: splitmix64-seeded xoshiro256++ with Box-Muller.

The exact bit-level pipeline is pinned so instances regenerate identically
on any platform or language:

* state seeding: four splitmix64 outputs from the 64-bit seed;
* normals: Box-Muller on the pair ``(u1, u2)`` made from two consecutive
  outputs, where ``u1 = ((bits >> 11) + 1) * 2**-53`` lies in ``(0, 1]``
  (safe log) and ``u2 = (bits >> 11) * 2**-53`` lies in ``[0, 1)`` for
  the angle. The cosine branch is returned first, the sine branch is
  cached as the spare.

:class:`Xoshiro256pp` and :meth:`NormalStream.next` are the scalar
reference. :meth:`NormalStream.array` returns the same bits. From
``LANE_MIN_DRAWS`` draws on it runs the stream as lanes of
``LANE_STEPS`` consecutive outputs, side by side in numpy:

* xoshiro256++'s state transition ``T`` is linear over GF(2), so each
  lane jumps to its start state through the 256x256 bit matrices
  ``T^(2^k)`` (Blackman and Vigna, "Scrambled linear pseudorandom number
  generators", 2018). They are built from the scalar generator on first
  use and multiplied in float64, which is exact: no sum exceeds 256;
* all lanes then step together with wrapping ``uint64`` array operations;
* Box-Muller keeps the scalar reference's ``math.log``, ``math.cos`` and
  ``math.sin``: numpy's own implementations can differ in the last bit
  (``np.log`` differs from ``math.log`` on about 0.3% of inputs in
  ``(0, 1]``) and vary by platform. ``np.sqrt`` and the products are
  correctly rounded, so numpy does them.

Below ``LANE_MIN_DRAWS`` the scalar loop is kept: the lanes cost about
``15 * LANE_STEPS`` numpy calls whatever the count, and the first call in
a process also builds the jump matrices (about 15 ms). On a 2-CPU Xeon
with numpy 2.4 the lanes break even per call near 2000 draws and are
about 25% faster at 3072.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1

LANE_STEPS = 256  # outputs per lane; a power of two, so one jump is one T^(2^k)
LANE_MIN_DRAWS = 3072  # fewer draws than this take the scalar loop
_BOX_MULLER_PAIRS = 8192  # Box-Muller chunk; bounds the temporary lists


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


def _to_bits(states) -> np.ndarray:
    """``(k, 4)`` states as ``(k, 256)`` 0/1 rows; bit ``j`` of word ``w`` at ``64*w + j``."""
    words = np.asarray(states, dtype="<u8").reshape(-1, 4)
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")


def _from_bits(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_to_bits`: ``(k, 4)`` native ``uint64`` states."""
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)


def _parity(sums: np.ndarray) -> np.ndarray:
    """GF(2) reduction of a 0/1 matrix product; its sums are exact integers <= 256."""
    return (sums.astype(np.uint16) & 1).astype(np.uint8)


@functools.cache
def _jump_matrix(k: int) -> np.ndarray:
    """``T^(2^k)`` as a read-only ``uint8`` matrix: ``bits @ M % 2`` steps a state row.

    Row ``i`` of ``T`` is the scalar generator's step applied to the unit
    state with bit ``i`` set; each further power squares the one before.
    """
    if k == 0:
        gen = Xoshiro256pp(0)
        units = _from_bits(np.eye(256, dtype=np.uint8))
        rows = []
        for unit in units:
            gen._s = [int(w) for w in unit]
            gen.next_u64()
            rows.append(gen._s)
        m = _to_bits(rows)
    else:
        half = _jump_matrix(k - 1).astype(np.float64)
        m = _parity(half @ half)
    m.setflags(write=False)
    return m


def _lane_starts(state, lanes: int) -> np.ndarray:
    """``(lanes, 4)`` states ``LANE_STEPS * i`` steps after ``state``, ``i < lanes``."""
    bits = _to_bits(state)
    k = LANE_STEPS.bit_length() - 1  # T^LANE_STEPS = T^(2^k)
    while len(bits) < lanes:  # rows 0..m-1 jumped by m lanes give rows m..2m-1
        jump = _jump_matrix(k).astype(np.float64)
        ahead = bits[: lanes - len(bits)].astype(np.float64) @ jump
        bits = np.concatenate((bits, _parity(ahead)))
        k += 1
    return _from_bits(bits)


def _lane_outputs(state, total: int) -> tuple[np.ndarray, list]:
    """The next ``total`` outputs after ``state``, and the state after them."""
    lanes = -(-total // LANE_STEPS)
    last = total - (lanes - 1) * LANE_STEPS  # outputs the last lane contributes
    s0, s1, s2, s3 = (np.ascontiguousarray(w) for w in _lane_starts(state, lanes).T)
    out = np.empty((LANE_STEPS, lanes), dtype=np.uint64)
    a = np.empty(lanes, dtype=np.uint64)
    t = np.empty(lanes, dtype=np.uint64)
    r17, r23, r41, r45, r19 = (np.uint64(v) for v in (17, 23, 41, 45, 19))
    for j in range(LANE_STEPS):
        if j == last:
            final = [int(w[-1]) for w in (s0, s1, s2, s3)]
        np.add(s0, s3, out=a)  # result = rotl(s0 + s3, 23) + s0
        np.left_shift(a, r23, out=t)
        np.right_shift(a, r41, out=a)
        np.bitwise_or(a, t, out=a)
        np.add(a, s0, out=out[j])
        np.left_shift(s1, r17, out=t)
        np.bitwise_xor(s2, s0, out=s2)
        np.bitwise_xor(s3, s1, out=s3)
        np.bitwise_xor(s1, s2, out=s1)
        np.bitwise_xor(s0, s3, out=s0)
        np.bitwise_xor(s2, t, out=s2)
        np.left_shift(s3, r45, out=t)  # s3 = rotl(s3, 45)
        np.right_shift(s3, r19, out=s3)
        np.bitwise_or(s3, t, out=s3)
    if last == LANE_STEPS:
        final = [int(w[-1]) for w in (s0, s1, s2, s3)]
    return out.T.reshape(-1)[:total], final


def _box_muller(bits: np.ndarray) -> np.ndarray:
    """Normals from consecutive ``(u1, u2)`` output pairs: cosine, then sine branch."""
    z = np.empty(len(bits), dtype=np.float64)
    for lo in range(0, len(bits), 2 * _BOX_MULLER_PAIRS):
        pair = bits[lo : lo + 2 * _BOX_MULLER_PAIRS].reshape(-1, 2)
        u1 = ((pair[:, 0] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
        u2 = (pair[:, 1] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        m = len(pair)
        radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, m))
        angle = ((2.0 * math.pi) * u2).tolist()
        z[lo : lo + 2 * m : 2] = radius * np.fromiter(map(math.cos, angle), np.float64, m)
        z[lo + 1 : lo + 2 * m : 2] = radius * np.fromiter(map(math.sin, angle), np.float64, m)
    return z


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
        """Row-major array of draws with the given shape.

        The draws, the spare left behind and the generator state afterwards
        are those of as many :meth:`next` calls.
        """
        count = 1
        for s in shape:
            count *= int(s)
        if count < LANE_MIN_DRAWS:
            flat = np.array([self.next() for _ in range(count)], dtype=np.float64)
        else:
            flat = self._lane_draws(count)
        return flat.reshape(shape) if shape else flat[0]

    def _lane_draws(self, count: int) -> np.ndarray:
        head = [] if self._spare is None else [self._spare]
        self._spare = None
        pairs = -(-(count - len(head)) // 2)
        bits, self.bits._s = _lane_outputs(self.bits._s, 2 * pairs)
        flat = np.concatenate((head, _box_muller(bits)))
        if len(flat) > count:
            self._spare = float(flat[count])
        return flat[:count]
