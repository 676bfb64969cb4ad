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
  use and cached as ``np.packbits`` rows, 8 KB per power. Every product
  with them, squaring one power into the next or jumping lane starts,
  runs in float32 through :func:`_gf2_product` and is exact: each entry
  counts at most 256 ones, and float32 holds every integer below
  ``2**24`` in any order of summation. The lane starts fill one
  ``(lanes, 256)`` array of bit rows in place, doubling at each power;
* all lanes then step together with wrapping ``uint64`` array operations,
  and every ``BLOCK`` steps Box-Muller writes the block's normals in place
  into the one result, viewed as ``(lanes, LANE_STEPS)`` after any spare.
  The result starts on a 64-byte boundary, so products with a matrix
  drawn here run at full speed whatever address ``malloc`` picks.
  With the matrices built, the traced peak of ``array(400, 400)`` is 1.5x
  its 1.28 MB result on a 2-CPU Xeon, against 3.0x when every raw output
  is kept until one Box-Muller pass at the end. The first such call,
  which builds them, peaks at 1.65x (2.06x with float64 products);
* Box-Muller keeps the scalar reference's ``math.log``, ``math.cos`` and
  ``math.sin``: numpy's own implementations can differ in the last bit
  (``np.log`` differs from ``math.log`` on about 0.3% of inputs in
  ``(0, 1]``) and vary by platform. ``np.sqrt`` and the products are
  correctly rounded, so numpy does them.

Below ``LANE_MIN_DRAWS`` the scalar loop is kept: the lanes cost about
``15 * LANE_STEPS`` numpy calls whatever the count, and the first call in
a process also builds the jump matrices: on a 2-CPU Xeon with numpy 2.4
the first ``array(400, 400)`` takes 51-61 ms, against 39-44 ms once they
are cached. There the lanes break even per call near 2000 draws and are
about 25% faster at 3072.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import check_int

_MASK64 = (1 << 64) - 1

LANE_STEPS = 256  # outputs per lane; a power of two, so one jump is one T^(2^k)
LANE_MIN_DRAWS = 3072  # fewer draws than this take the scalar loop
BLOCK = 16  # lane steps per Box-Muller pass; even, divides LANE_STEPS


def check_seed(seed) -> int:
    """``seed`` as an ``int``; raises ``ValueError`` naming it unless it is an
    integer in ``[0, 2**64)``."""
    seed = check_int("seed", seed, 0)
    if seed > _MASK64:
        raise ValueError(f"seed must be below 2**64, got {seed}")
    return seed


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
        state = check_seed(seed)
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


def _gf2_product(rows: np.ndarray, matrix: np.ndarray, out: np.ndarray) -> None:
    """``rows @ matrix % 2`` for 0/1 float32 arrays, written into ``out``.

    The one GF(2) product of the lane path. It is exact in float32: each
    entry counts at most 256 ones, and float32 holds every integer below
    ``2**24`` whatever the order of summation. ``out`` must not overlap
    ``rows`` or ``matrix``.
    """
    np.matmul(rows, matrix, out=out)
    np.bitwise_and(out.astype(np.uint16), 1, out=out)  # far faster than np.remainder


def _unpacked(k: int) -> np.ndarray:
    """``T^(2^k)`` as a 0/1 float32 ``(256, 256)`` matrix."""
    return np.unpackbits(_jump_matrix(k), axis=1).astype(np.float32)


@functools.cache
def _jump_matrix(k: int) -> np.ndarray:
    """``T^(2^k)``, rows packed by ``np.packbits``: ``bits @ M % 2`` steps a state row.

    Row ``i`` of ``T`` is the scalar generator's step applied to the unit
    state with bit ``i`` set; each further power squares the one before
    through :func:`_gf2_product`, exactly in float32. The first call for
    ``k`` builds every power up to it: the 18 that ``array(400, 400)``
    needs take about 14 ms on a 2-CPU Xeon, against 20-29 ms when the
    products ran in float64.
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
        half = _unpacked(k - 1)
        m = np.empty_like(half)
        _gf2_product(half, half, m)
        m = m.astype(np.uint8)
    m = np.packbits(m, axis=1)
    m.setflags(write=False)
    return m


def _lane_starts(state, lanes: int) -> np.ndarray:
    """``(lanes, 4)`` states ``LANE_STEPS * i`` steps after ``state``, ``i < lanes``."""
    bits = np.empty((lanes, 256), dtype=np.float32)  # one 0/1 row per lane start
    bits[0] = _to_bits(state)[0]
    k = LANE_STEPS.bit_length() - 1  # T^LANE_STEPS = T^(2^k)
    done = 1
    while done < lanes:  # rows 0..m-1 jumped by m lanes give rows m..2m-1
        more = min(done, lanes - done)
        _gf2_product(bits[:more], _unpacked(k), bits[done : done + more])
        done += more
        k += 1
    return _from_bits(bits.astype(np.uint8))


def _lane_normals(state, total: int, head: list) -> tuple[np.ndarray, list]:
    """``head``, then the normals of the next ``total`` (even) outputs after
    ``state``, written a block at a time into one array that may run on past
    them; and the state after those outputs.

    The array starts on a 64-byte boundary, where ``malloc`` promises 16
    bytes: on a 2-CPU Xeon with OpenBLAS a 400x400 matrix-vector product
    takes 17 us from a 32-byte boundary against 25 us from any other, with
    the same bits.
    """
    lanes = -(-total // LANE_STEPS)
    last = total - (lanes - 1) * LANE_STEPS  # outputs the last lane contributes
    s0, s1, s2, s3 = (np.ascontiguousarray(w) for w in _lane_starts(state, lanes).T)
    size = len(head) + lanes * LANE_STEPS
    buf = np.empty(size + 7)
    flat = buf[-buf.ctypes.data % 64 // 8 :][:size]
    flat[: len(head)] = head
    z = flat[len(head) :].reshape(lanes, LANE_STEPS)
    out = np.empty((BLOCK, lanes), dtype=np.uint64)
    a = np.empty(lanes, dtype=np.uint64)
    t = np.empty(lanes, dtype=np.uint64)
    r17, r23, r41, r45, r19, r11, one = (np.uint64(v) for v in (17, 23, 41, 45, 19, 11, 1))
    for j0 in range(0, LANE_STEPS, BLOCK):
        for j in range(j0, j0 + BLOCK):
            if j == last:
                final = [int(w[-1]) for w in (s0, s1, s2, s3)]
            np.add(s0, s3, out=a)  # result = rotl(s0 + s3, 23) + s0
            np.left_shift(a, r23, out=t)
            np.right_shift(a, r41, out=a)
            np.bitwise_or(a, t, out=a)
            np.add(a, s0, out=out[j - j0])
            np.left_shift(s1, r17, out=t)
            np.bitwise_xor(s2, s0, out=s2)
            np.bitwise_xor(s3, s1, out=s3)
            np.bitwise_xor(s1, s2, out=s1)
            np.bitwise_xor(s0, s3, out=s0)
            np.bitwise_xor(s2, t, out=s2)
            np.left_shift(s3, r45, out=t)  # s3 = rotl(s3, 45)
            np.right_shift(s3, r19, out=s3)
            np.bitwise_or(s3, t, out=s3)
        # Box-Muller on the block's (u1, u2) step pairs: cosine, then sine branch
        u1 = ((out[0::2] >> r11) + one).astype(np.float64) * 2.0**-53
        u2 = (out[1::2] >> r11).astype(np.float64) * 2.0**-53
        log_u1 = np.fromiter(map(math.log, u1.ravel().tolist()), np.float64, u1.size)
        radius = np.sqrt(-2.0 * log_u1.reshape(u1.shape))
        angle = ((2.0 * math.pi) * u2).ravel().tolist()
        for col, trig in ((j0, math.cos), (j0 + 1, math.sin)):
            branch = np.fromiter(map(trig, angle), np.float64, u1.size).reshape(u1.shape)
            z[:, col : j0 + BLOCK : 2] = (radius * branch).T
    if last == LANE_STEPS:
        final = [int(w[-1]) for w in (s0, s1, s2, s3)]
    return flat, final


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
        are those of as many :meth:`next` calls. An entry that is not an
        integer ``>= 0`` raises ``ValueError`` before any draw.
        """
        shape = tuple(check_int("array shape entry", s, 0) for s in shape)
        count = math.prod(shape)
        if count < LANE_MIN_DRAWS:
            flat = np.array([self.next() for _ in range(count)], dtype=np.float64)
        else:
            flat = self._lane_draws(count)
        return flat.reshape(shape) if shape else flat[0]

    def _lane_draws(self, count: int) -> np.ndarray:
        head = [] if self._spare is None else [self._spare]
        self._spare = None
        total = 2 * -(-(count - len(head)) // 2)  # whole (u1, u2) pairs
        flat, self.bits._s = _lane_normals(self.bits._s, total, head)
        if len(head) + total > count:
            self._spare = float(flat[count])
        return flat[:count]
