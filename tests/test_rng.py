"""Bit-level tests for the deterministic random stream.

The reference values below were computed with an independent
pure-Python reimplementation of splitmix64 / xoshiro256++ / Box-Muller
and then frozen as literals; the tests also carry that reimplementation
so arbitrary seeds can be cross-checked, not just the frozen ones.
"""

import math
import tracemalloc

import numpy as np
import pytest

from pfbe import rng
from pfbe.rng import NormalStream, Xoshiro256pp, splitmix64_next

M64 = (1 << 64) - 1


def _ref_splitmix(state):
    state = (state + 0x9E3779B97F4A7C15) & M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return state, z ^ (z >> 31)


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & M64


class _RefXoshiro:
    """Independent xoshiro256++ used to cross-check the package stream."""

    def __init__(self, seed):
        st = seed & M64
        self.s = []
        for _ in range(4):
            st, out = _ref_splitmix(st)
            self.s.append(out)

    def u64(self):
        s = self.s
        result = (_rotl((s[0] + s[3]) & M64, 23) + s[0]) & M64
        t = (s[1] << 17) & M64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result


def _u01(gen):
    """Uniform double in [0, 1) from the top 53 bits, as the angle draw ``u2``."""
    return (gen.next_u64() >> 11) * 2.0**-53


def _ref_normal_pair(gen):
    u1 = ((gen.u64() >> 11) + 1) * 2.0**-53
    u2 = (gen.u64() >> 11) * 2.0**-53
    r = math.sqrt(-2.0 * math.log(u1))
    ang = 2.0 * math.pi * u2
    return r * math.cos(ang), r * math.sin(ang)


def test_splitmix_matches_reference():
    state = 42
    ref_state = 42
    for _ in range(10):
        state, out = splitmix64_next(state)
        ref_state, ref_out = _ref_splitmix(ref_state)
        assert state == ref_state
        assert out == ref_out


def test_first_u64_frozen_values():
    assert Xoshiro256pp(42).next_u64() == 15021278609987233951
    assert Xoshiro256pp(0).next_u64() == 5987356902031041503
    assert Xoshiro256pp(2**64 - 1).next_u64() == 6254647548650071986


def test_u64_stream_frozen_seed42():
    g = Xoshiro256pp(42)
    assert [g.next_u64() for _ in range(4)] == [
        15021278609987233951,
        5881210131331364753,
        18149643915985481100,
        12933668939759105464,
    ]


def test_f64_stream_frozen_seed42():
    g = Xoshiro256pp(42)
    got = [_u01(g) for _ in range(4)]
    expect = [
        0.8143051451229099,
        0.3188210400616611,
        0.9838941681774888,
        0.7011355981347556,
    ]
    assert got == expect  # bit-exact, not approximate


def test_normals_frozen_seed42():
    s = NormalStream(42)
    got = [s.next() for _ in range(4)]
    expect = [
        -0.268607369462095,
        0.5819710518628828,
        -0.05446217010815095,
        -0.17177820812195743,
    ]
    assert got == expect


def test_u64_matches_reference_many_seeds():
    for seed in [1, 2, 3, 7, 1234, 2**63, 2**64 - 2]:
        g = Xoshiro256pp(seed)
        ref = _RefXoshiro(seed)
        for _ in range(200):
            assert g.next_u64() == ref.u64()


def test_normals_match_reference_many_seeds():
    for seed in [1, 5, 99, 31337]:
        s = NormalStream(seed)
        ref = _RefXoshiro(seed)
        for _ in range(50):
            a, b = _ref_normal_pair(ref)
            assert s.next() == a
            assert s.next() == b


def test_normal_spare_is_cached_pairwise():
    # array(3) must consume exactly two u64 pairs: 4 u64 for the first
    # two normals, 2 more for the third; a fresh stream reproduces it.
    s1 = NormalStream(11)
    arr = s1.array(3)
    s2 = NormalStream(11)
    singles = [s2.next() for _ in range(3)]
    assert arr.tolist() == singles


def test_normal_array_row_major():
    s1 = NormalStream(13)
    mat = s1.array(2, 3)
    s2 = NormalStream(13)
    flat = s2.array(6)
    assert mat.shape == (2, 3)
    assert mat.ravel().tolist() == flat.tolist()


@pytest.mark.parametrize("shape", [(-1,), (-2, -3), (2, -3), (True, 2), (2.0,), ("3",)], ids=str)
def test_array_rejects_a_bad_shape_before_any_draw(shape):
    s = NormalStream(17)
    with pytest.raises(ValueError, match="array shape entry"):
        s.array(*shape)
    assert s.next() == NormalStream(17).next()  # the stream did not move


def test_same_seed_same_stream_distinct_seeds_differ():
    a = NormalStream(5).array(32)
    b = NormalStream(5).array(32)
    c = NormalStream(6).array(32)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_normal_moments():
    draws = NormalStream(2024).array(40000)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 1.0) < 0.02
    # symmetry of tails
    assert abs((draws > 1.0).mean() - (draws < -1.0).mean()) < 0.01


def test_uniform_moments():
    g = Xoshiro256pp(99)
    us = np.array([_u01(g) for _ in range(40000)])
    assert abs(us.mean() - 0.5) < 0.01
    assert abs(us.var() - 1.0 / 12.0) < 0.005


def test_seed_out_of_range_rejected():
    with pytest.raises(ValueError):
        Xoshiro256pp(-1)
    with pytest.raises(ValueError):
        Xoshiro256pp(2**64)


# --- lane path: NormalStream.array against the scalar reference ---

C = rng.LANE_STEPS
LANE_SEEDS = [0, 1, 2**63, 2**64 - 1]


def _ref_stream(seed, count, spare):
    """``count`` reference normals after ``spare`` (0 or 1) earlier draws,
    the spare left pending, and the reference generator after them."""
    gen = _RefXoshiro(seed)
    draws = []
    while len(draws) < spare + count:
        draws.extend(_ref_normal_pair(gen))
    left = draws[spare + count :]
    return draws[spare : spare + count], left[0] if left else None, gen


def _assert_matches_reference(seed, count, spare):
    s = NormalStream(seed)
    for _ in range(spare):
        s.next()
    got = s.array(count)
    want, pending, gen = _ref_stream(seed, count, spare)
    assert got.dtype == np.float64 and got.shape == (count,)
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
    assert s._spare == pending
    assert s.bits._s == gen.s
    # the stream continues: the pending spare first, then fresh pairs and raw outputs
    follow = [s.next() for _ in range(3)]
    ref_follow = [] if pending is None else [pending]
    while len(ref_follow) < 3:
        ref_follow.extend(_ref_normal_pair(gen))
    assert follow == ref_follow[:3]
    assert s.bits.next_u64() == gen.u64()


@pytest.fixture
def lanes_from_two(monkeypatch):
    """Every count that needs a fresh pair takes the lane path."""
    monkeypatch.setattr(rng, "LANE_MIN_DRAWS", 2)


@pytest.mark.parametrize("spare", [0, 1])
@pytest.mark.parametrize("seed", LANE_SEEDS)
@pytest.mark.parametrize("count", [rng.LANE_MIN_DRAWS + d for d in (-1, 0, 1, C + 3)])
def test_array_matches_scalar_reference_across_threshold(seed, count, spare):
    _assert_matches_reference(seed, count, spare)


B = rng.BLOCK
# 2 * B +- 1 and 2 * B end at or next to a block edge, with or without the
# spare; 3 * C + B + B // 2 ends its fourth lane mid-block
EDGE_COUNTS = [2, 3, C - 1, C, C + 1, C + 2, 5 * C + 7]
EDGE_COUNTS += [2 * B - 1, 2 * B, 2 * B + 1, 3 * C + B + B // 2]


@pytest.mark.parametrize("spare", [0, 1])
@pytest.mark.parametrize("seed", LANE_SEEDS)
@pytest.mark.parametrize("count", EDGE_COUNTS)
def test_lane_path_matches_scalar_reference_at_lane_edges(lanes_from_two, seed, count, spare):
    _assert_matches_reference(seed, count, spare)


@pytest.mark.parametrize("threshold", [None, 1])  # 1: array() takes the lane path
def test_array_without_shape_and_empty(monkeypatch, threshold):
    if threshold is not None:
        monkeypatch.setattr(rng, "LANE_MIN_DRAWS", threshold)
    s = NormalStream(3)
    ref = NormalStream(3)
    first = s.array()
    assert isinstance(first, float) and first == ref.next()
    empty = s.array(0)
    assert empty.shape == (0,) and empty.dtype == np.float64
    assert s._spare == ref._spare and s.bits._s == ref.bits._s
    assert s.array(2, 0).shape == (2, 0)
    assert [s.next() for _ in range(3)] == [ref.next() for _ in range(3)]


@pytest.mark.parametrize("seed", LANE_SEEDS)
def test_jump_matrix_is_lane_steps_scalar_steps(seed):
    g = Xoshiro256pp(seed)
    start = list(g._s)
    jump = np.unpackbits(rng._jump_matrix(C.bit_length() - 1), axis=1)  # packed rows
    ahead = rng._to_bits(start).astype(np.int64) @ jump.astype(np.int64) % 2
    for _ in range(C):
        g.next_u64()
    assert rng._from_bits(ahead.astype(np.uint8)).tolist() == [g._s]
    # the lane start states are the scalar states C steps apart
    lanes = rng._lane_starts(start, 5)
    g = Xoshiro256pp(seed)
    for i in range(5):
        assert lanes[i].tolist() == g._s
        for _ in range(C):
            g.next_u64()


def test_every_cached_jump_matrix_squares_the_one_before():
    """Each power against an int64 product: the float32 one must match it bit for bit."""
    rng._jump_matrix(17)  # at least the powers that array(400, 400) uses
    powers = rng._jump_matrix.cache_info().currsize
    for k in range(1, powers):
        half = np.unpackbits(rng._jump_matrix(k - 1), axis=1).astype(np.int64)
        assert np.array_equal(np.unpackbits(rng._jump_matrix(k), axis=1), half @ half % 2)


@pytest.mark.parametrize("lanes", [1, 2, 3, 17])
def test_lane_starts_are_scalar_states_lane_steps_apart(lanes):
    g = Xoshiro256pp(2**63)
    starts = rng._lane_starts(list(g._s), lanes)
    assert starts.shape == (lanes, 4) and starts.dtype == np.uint64
    for i in range(lanes):
        assert starts[i].tolist() == g._s
        for _ in range(C):
            g.next_u64()


def test_first_lane_draw_memory_is_bounded():
    """On first use a draw also builds the jump matrices; their products
    hold less than the Box-Muller blocks that follow."""
    rng._jump_matrix.cache_clear()
    tracemalloc.start()
    try:
        out = NormalStream(5).array(400, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.7 * out.nbytes  # 2.06x when the products ran in float64


@pytest.mark.parametrize("spare", [0, 1])
def test_lane_draw_starts_on_a_cache_line(spare):
    s = NormalStream(9)
    for _ in range(spare):
        s.next()
    for shape in [(rng.LANE_MIN_DRAWS,), (400, 400), (201, 199)]:
        draw = s.array(*shape)
        assert draw.ctypes.data % 64 == 0 and draw.flags.c_contiguous


@pytest.mark.parametrize("spare", [0, 1])
def test_lane_path_memory_is_bounded(spare):
    """With the jump matrices built, a lane draw holds little beyond its
    result: one block's outputs and their Box-Muller temporaries."""
    NormalStream(5).array(400, 400)  # builds the jump matrices it needs
    s = NormalStream(5)
    for _ in range(spare):
        s.next()
    tracemalloc.start()
    try:
        out = s.array(400, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * out.nbytes  # 3.0x when every raw output is kept until the end
    powers = rng._jump_matrix.cache_info().currsize  # T^(2^k) for k < powers
    assert powers > C.bit_length()
    assert sum(rng._jump_matrix(k).nbytes for k in range(powers)) <= 8192 * powers
