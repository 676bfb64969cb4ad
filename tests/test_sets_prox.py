"""Projection and proximal-operator tests for the feasible-set types.

Hand-checked projection values come first; then metric properties
(idempotency, nonexpansiveness, the variational inequality, Moreau's
cone decomposition) are exercised on seeded random batches.
"""

import numpy as np
import pytest

from pfbe.core import (
    DimensionError,
    IncompleteOracle,
    ProxRegularizer,
    zero_regularizer,
)
from pfbe.sets import (
    BoxSet,
    OrthantCone,
    WholeSpace,
    ZeroCone,
    composite_prox,
)


def _random_points(rng, dim, num, scale=5.0):
    return [scale * rng.standard_normal(dim) for _ in range(num)]


# ---------------------------------------------------------------------------
# hand-checked projections


def test_box_projection_values():
    box = BoxSet([0.0, -1.0], [2.0, 1.0])
    assert box.project([3.0, 0.5]).tolist() == [2.0, 0.5]
    assert box.project([-1.0, -4.0]).tolist() == [0.0, -1.0]
    assert box.project([1.0, 0.0]).tolist() == [1.0, 0.0]


def test_box_infinite_bounds():
    box = BoxSet([-np.inf, 0.0], [np.inf, np.inf])
    z = np.array([-7.5, -2.0])
    assert box.project(z).tolist() == [-7.5, 0.0]
    assert box.contains([1e30, 0.0])


def _clip_bits(z, lo, hi):
    """np.clip, row by row for a stack of 1-D points: numpy's clip of such a
    stack keeps -0.0 where the 1-D call does not."""
    if z.ndim > 1 and z.shape[-1] == 1:
        return np.array([np.clip(row, lo, hi) for row in z])
    return np.clip(z, lo, hi)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 17])
def test_box_projection_is_np_clip_bitwise(dim):
    # signed zeros, nan and infinite values against finite, zero and infinite
    # bounds; the bits of np.clip, at one point and for a stack, each row with
    # the bits of the 1-D call. An orthant is the box [0, inf) or (-inf, 0],
    # with the bits of np.maximum(z, 0) or np.minimum(z, 0)
    rng = np.random.default_rng(dim)
    values = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, -1.0, 0.5, 1.0, 3.0, 1e-320, -1e-320])
    for lo_choices, hi_choices in (
        ([0.0], [1.0]),
        ([-0.0], [0.0]),
        ([-np.inf], [np.inf]),
        ([-np.inf, -0.0, 0.0, -1.0], [np.inf, 0.0, 1.0]),
    ):
        lo = rng.choice(lo_choices, dim)
        hi = np.maximum(lo, rng.choice(hi_choices, dim))
        box = BoxSet(lo, hi)
        for shape in ((dim,), (7, dim)):
            z = rng.choice(values, shape)
            assert box.project(z).tobytes() == _clip_bits(z, lo, hi).tobytes()
    for orthant, extreme in ((OrthantCone(dim, 1), np.maximum), (OrthantCone(dim, -1), np.minimum)):
        assert isinstance(orthant, BoxSet)
        for shape in ((dim,), (7, dim)):
            z = rng.choice(values, shape)
            got = orthant.project(z)
            assert got.tobytes() == _clip_bits(z, orthant.lo, orthant.hi).tobytes()
            assert got.tobytes() == extreme(z, 0.0).tobytes()


def test_box_rejects_bad_bounds():
    with pytest.raises(ValueError):
        BoxSet([0.0], [np.nan])
    with pytest.raises(ValueError):
        BoxSet([1.0], [0.0])
    with pytest.raises(DimensionError):
        BoxSet([0.0, 1.0], [2.0])


def test_box_near_boundary():
    box = BoxSet([0.0], [1.0])
    assert box.near_boundary(np.array([1e-8]), 1e-6)
    assert box.near_boundary(np.array([1.0 - 1e-8]), 1e-6)
    assert not box.near_boundary(np.array([0.5]), 1e-6)
    # an orthant's one finite bound is 0: near it means |z_i| <= tol for some
    # i (an infinite z at the infinite bound must not warn of inf - inf)
    values = [-np.inf, -1.0, -1e-7, -0.0, 0.0, 1e-7, 1.0, np.inf, np.nan]
    for sign in (1, -1):
        orthant = OrthantCone(2, sign)
        for a in values:
            for b in values:
                z = np.array([a, b])
                assert orthant.near_boundary(z, 1e-6) == bool((np.abs(z) <= 1e-6).any())


def test_whole_space_identity_and_polar():
    ws = WholeSpace(3)
    z = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(ws.project(z), z)
    assert isinstance(ws.polar(), ZeroCone)
    assert ws.polar().dim == 3
    assert np.array_equal(ws.polar().project(z), np.zeros(3))
    # the origin is the box [0, 0]^d, whose clip keeps a nan
    origin = ws.polar()
    assert isinstance(origin, BoxSet) and origin.lo.tolist() == origin.hi.tolist() == [0.0] * 3
    assert np.isnan(origin.project([np.nan, 1.0, -1.0])).tolist() == [True, False, False]
    assert isinstance(ws.polar().polar(), WholeSpace)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_whole_space_fast_path_has_the_clip_bits(dim):
    # WholeSpace.project skips the clip to infinite bounds: it must give the
    # bytes of that clip, at one point and for a stack
    rng = np.random.default_rng(dim)
    values = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0])
    whole = BoxSet(np.full(dim, -np.inf), np.full(dim, np.inf))
    for shape in ((dim,), (9, dim)):
        z = rng.choice(values, shape)
        assert WholeSpace(dim).project(z).tobytes() == whole.project(z).tobytes()


@pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, np.float64(1.0), 0, 2, -2, "1", None])
def test_orthant_sign_is_the_integer_one_or_minus_one(sign):
    # a bool or a float equal to +-1 is not coerced to a sign
    with pytest.raises(ValueError, match="sign"):
        OrthantCone(2, sign)


def test_orthant_takes_a_numpy_integer_sign():
    cone = OrthantCone(2, np.int64(-1))
    assert type(cone.sign) is int and cone.sign == -1
    assert cone.hi.tolist() == [0.0, 0.0] and cone.polar().sign == 1


def test_orthant_projection_and_polar():
    nonneg = OrthantCone(3, sign=1)
    nonpos = OrthantCone(3, sign=-1)
    z = np.array([1.5, -2.0, 0.0])
    assert nonneg.project(z).tolist() == [1.5, 0.0, 0.0]
    assert nonpos.project(z).tolist() == [0.0, -2.0, 0.0]
    # polar of the nonnegative orthant is the nonpositive orthant
    assert nonneg.polar().sign == -1
    assert nonpos.polar().sign == 1
    assert nonneg.contains([0.0, 0.0, 2.0])
    assert not nonneg.contains([-1e-6, 0.0, 0.0])


# ---------------------------------------------------------------------------
# metric properties on random batches


SETS_FOR_PROPERTIES = [
    BoxSet([-1.0, 0.0, -np.inf], [1.0, 2.0, 0.0]),
    OrthantCone(3, sign=-1),
    OrthantCone(3, sign=1),
    WholeSpace(3),
    ZeroCone(3),
]


def test_projection_idempotent_and_feasible():
    rng = np.random.default_rng(101)
    for set_ in SETS_FOR_PROPERTIES:
        for z in _random_points(rng, set_.dim, 25):
            pz = set_.project(z)
            assert set_.contains(pz, tol=1e-12)
            assert np.allclose(set_.project(pz), pz, atol=1e-14)


def test_projection_nonexpansive():
    rng = np.random.default_rng(102)
    for set_ in SETS_FOR_PROPERTIES:
        for _ in range(25):
            a = 5.0 * rng.standard_normal(set_.dim)
            b = 5.0 * rng.standard_normal(set_.dim)
            lhs = np.linalg.norm(set_.project(a) - set_.project(b))
            assert lhs <= np.linalg.norm(a - b) + 1e-12


def test_projection_variational_inequality():
    # <z - Pz, w - Pz> <= 0 for every feasible w characterizes projections
    rng = np.random.default_rng(103)
    for set_ in SETS_FOR_PROPERTIES:
        for _ in range(20):
            z = 5.0 * rng.standard_normal(set_.dim)
            pz = set_.project(z)
            w = set_.project(5.0 * rng.standard_normal(set_.dim))
            assert float(np.dot(z - pz, w - pz)) <= 1e-10


def test_moreau_decomposition_on_cones():
    rng = np.random.default_rng(104)
    cones = [
        OrthantCone(4, sign=-1),
        OrthantCone(4, sign=1),
        WholeSpace(4),
        ZeroCone(4),
    ]
    for cone in cones:
        polar = cone.polar()
        for z in _random_points(rng, 4, 50):
            pk = cone.project(z)
            pp = polar.project(z)
            assert np.linalg.norm(pk + pp - z) <= 1e-10
            assert abs(float(np.dot(pk, pp))) <= 1e-10


# ---------------------------------------------------------------------------
# composite prox dispatch


def test_composite_prox_zero_reg_projects():
    box = BoxSet([0.0], [1.0])
    out = composite_prox(zero_regularizer(), box, [4.0], 0.7)
    assert out.tolist() == [1.0]
    assert composite_prox(zero_regularizer(), box, [-3.0], 0.7).tolist() == [0.0]
    assert composite_prox(zero_regularizer(), box, [9.0], 0.3).tolist() == [1.0]


def test_composite_prox_zero_step_projects():
    reg = ProxRegularizer(eval=lambda v: float(np.abs(v).sum()), prox=lambda z, t: z * 0)
    box = BoxSet([0.0], [2.0])
    assert composite_prox(reg, box, [1.5], 0.0).tolist() == [1.5]


def test_composite_prox_whole_space_uses_reg():
    # soft-threshold on the whole space: prox of t*|v|
    def soft(z, t):
        return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)

    reg = ProxRegularizer(eval=lambda v: float(np.abs(v).sum()), prox=soft)
    ws = WholeSpace(2)
    out = composite_prox(reg, ws, [2.0, -0.3], 0.5)
    assert np.allclose(out, [1.5, 0.0])


def test_composite_prox_fused_pair_uses_reg():
    box = BoxSet([0.0, 0.0], [1.0, 1.0])

    def fused(z, t):
        # prox of t*|v| + indicator(box): shrink then clip
        return np.clip(np.sign(z) * np.maximum(np.abs(z) - t, 0.0), 0.0, 1.0)

    reg = ProxRegularizer(
        eval=lambda v: float(np.abs(v).sum()), prox=fused, attached_set=box
    )
    out = composite_prox(reg, box, [2.0, 0.2], 0.5)
    assert np.allclose(out, [1.0, 0.0])


def test_composite_prox_unfused_pair_raises():
    reg = ProxRegularizer(eval=lambda v: 0.0, prox=lambda z, t: z)
    box = BoxSet([0.0], [1.0])
    with pytest.raises(IncompleteOracle):
        composite_prox(reg, box, [0.5], 1.0)


def test_composite_prox_negative_step_rejected():
    box = BoxSet([0.0], [1.0])
    with pytest.raises(ValueError):
        composite_prox(zero_regularizer(), box, [0.5], -1.0)
    stack = np.array([[0.5], [0.2]])
    with pytest.raises(ValueError):
        composite_prox(zero_regularizer(), box, stack, -1.0)
    with pytest.raises(ValueError):
        composite_prox(zero_regularizer(), box, stack, np.array([[0.5], [-1.0]]))


def _soft_threshold_reg():
    def soft(z, t):
        return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)

    return ProxRegularizer(eval=lambda v: float(np.abs(v).sum()), prox=soft)


@pytest.mark.parametrize(
    "step",
    [float("nan"), np.float64("nan"), -np.inf, -1, np.float64(-1.0),
     np.array([[np.nan], [1.0]]), np.array([[1.0], [-np.inf]])],
    ids=["nan", "np-nan", "-inf", "int-1", "np-1", "nan-column", "-inf-column"],
)
def test_composite_prox_rejects_a_step_not_at_least_zero(step):
    # a nan step must not slip past the sign check into a nan prox
    z = np.array([[2.0, -0.3, 0.1], [1.0, 1.0, -4.0]])
    for point in ((z, z[0]) if np.ndim(step) == 0 else (z,)):
        with pytest.raises(ValueError, match="prox step must be nonnegative"):
            composite_prox(_soft_threshold_reg(), WholeSpace(3), point, step)
    ok = composite_prox(_soft_threshold_reg(), WholeSpace(3), z, np.array([[0.5], [np.inf]]))
    assert ok.tolist() == [[1.5, 0.0, 0.0], [0.0, 0.0, 0.0]]


@pytest.mark.parametrize(
    "set_, point",
    [
        (OrthantCone(2, sign=-1), [-np.inf, 0.0]),
        (OrthantCone(2), [np.inf, 0.0]),
        (BoxSet([-np.inf, 0.0], [np.inf, 1.0]), [-np.inf, 0.5]),
        (WholeSpace(2), [np.inf, 0.0]),
        (WholeSpace(2), [0.0, np.nan]),
        (ZeroCone(2), [np.nan, 0.0]),
    ],
    ids=["nonpos-orthant", "nonneg-orthant", "box", "whole-inf", "whole-nan", "zero-nan"],
)
def test_contains_fails_a_nonfinite_point_without_a_warning(set_, point):
    # inf - inf in the projection residual would warn, and the suite makes warnings errors
    assert not set_.contains(point)
    assert not set_.contains(point, tol=np.inf)


def test_dimension_errors():
    box = BoxSet([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DimensionError):
        box.project([1.0])
    with pytest.raises(DimensionError):
        WholeSpace(2).project(np.zeros(3))  # the fast path checks the point too


def test_stacked_projection_matches_each_row():
    rng = np.random.default_rng(11)
    sets = [
        BoxSet([-1.0, 0.0, -np.inf], [1.0, 2.0, 0.5]),
        OrthantCone(3, sign=-1),
        WholeSpace(3),
        ZeroCone(2),
    ]
    for s in sets:
        stack = 3.0 * rng.standard_normal((6, s.dim))
        projected = s.project(stack)
        assert projected.shape == stack.shape
        for row, proj in zip(stack, projected):
            assert np.array_equal(proj, s.project(row)), s


def test_near_boundary_flags_one_point():
    tol = 1e-6
    box = BoxSet([-1.0, 0.0, -np.inf], [1.0, 2.0, 0.5])
    orthant = OrthantCone(3, sign=-1)
    # (point, flag): the flag set by hand from the distance to the boundary
    cases = {
        box: [([1.0 - 1e-8, 1.0, -5.0], True), ([0.0, 1e-9, 0.0], True),
              ([0.0, 1.0, -1e300], False),  # far from the infinite lower bound
              ([0.2, 1.0, 0.5], True)],
        orthant: [([-1.0, -2.0, -3.0], False), ([-1.0, 1e-7, -3.0], True),
                  ([np.nan, -1.0, -1.0], False)],
        # the origin is the box [0, 0]: near it means |z_i| <= tol for some i
        ZeroCone(2): [([0.0, 0.0], True), ([1e-7, -1e-7], True), ([1.0, 0.0], True),
                      ([1.0, -1.0], False)],
        WholeSpace(2): [([0.0, 0.0], False), ([np.inf, -np.inf], False)],  # no finite bound
    }
    for s, points in cases.items():
        for point, flag in points:
            got = s.near_boundary(np.array(point), tol)
            assert type(got) is bool and got == flag, (s, point)


def test_stacked_composite_prox_matches_each_row():
    reg = ProxRegularizer(
        eval=lambda v: float(0.5 * (v @ v)),
        prox=lambda v, t: np.asarray(v, float) / (1.0 + t),
    )
    space = WholeSpace(2)
    stack = np.random.default_rng(5).standard_normal((4, 2))
    steps = np.array([[0.0], [0.5], [1.0], [2.0]])  # one step per row
    out = composite_prox(reg, space, stack, steps)
    for row, t, o in zip(stack, steps[:, 0], out):
        assert np.array_equal(o, composite_prox(reg, space, row, float(t)))
    assert np.array_equal(composite_prox(reg, space, stack, 0.5)[1], out[1])
    with pytest.raises(ValueError):
        composite_prox(zero_regularizer(), space, stack, -steps)
