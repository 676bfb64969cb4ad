"""Core oracle types, validation, and finite-difference helpers.

The finite-difference helpers are tested against closed-form gradients
and Hessian-vector products of small polynomial test functions.
"""

import numpy as np
import pytest

from pfbe.core import (
    DimensionError,
    FunctionOracle,
    MinimaxProblem,
    NonFiniteValue,
    ZeroDirection,
    as_points,
    as_vector,
    check_finite,
    fd_gradient,
    fd_hvp_xy,
    fd_hvp_yy,
    zero_regularizer,
)
from pfbe.sets import BoxSet, WholeSpace


def _cubic_oracle():
    # f(x, y) = x1^2 y1 + x2 y2^3 - y1^2 - y2^2, strongly concave for |y2| small
    def ev(x, y):
        return x[0] ** 2 * y[0] + x[1] * y[1] ** 3 - y[0] ** 2 - y[1] ** 2

    def gx(x, y):
        return np.array([2.0 * x[0] * y[0], y[1] ** 3])

    def gy(x, y):
        return np.array([x[0] ** 2 - 2.0 * y[0], 3.0 * x[1] * y[1] ** 2 - 2.0 * y[1]])

    def hyy(x, y, v):
        return np.array([-2.0 * v[0], (6.0 * x[1] * y[1] - 2.0) * v[1]])

    def hxy(x, y, v):
        # d/dx of grad_y f, applied to a y-direction v, valued in x-space
        return np.array([2.0 * x[0] * v[0], 3.0 * y[1] ** 2 * v[1]])

    return FunctionOracle(
        eval=ev, grad_x=gx, grad_y=gy,
        lipschitz_grad=10.0, strong_concavity=1.0,
        hvp_yy=hyy, hvp_xy=hxy,
    )


def test_as_vector_scalars_and_lists():
    v = as_vector(3.0)
    assert v.shape == (1,) and v.dtype == np.float64
    assert as_vector([1, 2]).tolist() == [1.0, 2.0]
    with pytest.raises(DimensionError):
        as_vector([1.0, 2.0], dim=3)
    with pytest.raises(DimensionError):
        as_vector(np.zeros((2, 2)))


def _coerced_points(z, dim=None, what="point"):
    # the full coercion, as as_points applies it to every input that is not
    # already a conforming float64 array
    arr = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if arr.ndim > 2:
        raise DimensionError(f"{what} must be 1-D or a 2-D stack, got shape {arr.shape}")
    if dim is not None and arr.shape[-1] != dim:
        raise DimensionError(f"{what} has dimension {arr.shape[-1]}, expected {dim}")
    return arr


def test_as_points_returns_conforming_arrays_unchanged():
    for z in (np.array([1.0, -0.0, np.inf]), np.zeros((4, 3)), np.ones((2, 6))[:, ::2]):
        assert as_points(z, 3) is z
        assert as_points(z) is z


@pytest.mark.parametrize(
    "z",
    [
        [1, 2, 3],
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        3,
        2.5,
        np.float64(2.5),
        np.array(2.5),
        np.arange(3),
        np.arange(3, dtype=np.float32) / 3,
        np.arange(3, dtype=">f8"),
        np.ma.masked_array([1.0, 2.0, 3.0]),
        np.zeros(2),
        np.zeros((2, 2)),
        np.zeros((2, 3, 3)),
        [],
    ],
    ids=lambda z: f"{type(z).__name__}-{np.shape(z)}-{getattr(z, 'dtype', '')}",
)
@pytest.mark.parametrize("dim", [None, 1, 3])
def test_as_points_coerces_and_rejects_as_the_full_coercion(z, dim):
    try:
        expected = _coerced_points(z, dim, "x")
    except DimensionError as exc:
        with pytest.raises(DimensionError) as got:
            as_points(z, dim, "x")
        assert str(got.value) == str(exc)
        return
    out = as_points(z, dim, "x")
    assert type(out) is np.ndarray and out.dtype == np.float64 and out.dtype.isnative
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


def test_check_finite():
    assert check_finite(1.5) == 1.5
    arr = np.array([1.0, -2.0])
    assert check_finite(arr) is arr
    for bad in (np.nan, float("inf"), np.float64(-np.inf), np.array(np.nan),
                np.array([1.0, np.inf]), np.array([[0.0], [np.nan]]), [1.0, np.inf]):
        with pytest.raises(NonFiniteValue, match="non-finite probe"):
            check_finite(bad, "probe")
    assert check_finite(3) == 3 and check_finite(np.float32(2.0)) == 2.0


def test_function_oracle_rejects_bad_constants():
    dummy = lambda x, y: 0.0
    dummyg = lambda x, y: np.zeros(1)
    with pytest.raises(ValueError):
        FunctionOracle(dummy, dummyg, dummyg, lipschitz_grad=-1.0, strong_concavity=1.0)
    with pytest.raises(ValueError):
        FunctionOracle(dummy, dummyg, dummyg, lipschitz_grad=1.0, strong_concavity=0.0)
    with pytest.raises(ValueError):
        FunctionOracle(dummy, dummyg, dummyg, lipschitz_grad=np.inf, strong_concavity=1.0)


def test_fd_gradient_matches_closed_form():
    oracle = _cubic_oracle()
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(-2, 2, size=2)
        y = rng.uniform(-2, 2, size=2)
        gx, gy = fd_gradient(oracle, x, y)
        ex, ey = oracle.grad_x(x, y), oracle.grad_y(x, y)
        assert np.linalg.norm(gx - ex) <= 1e-5 * (1.0 + np.linalg.norm(ex))
        assert np.linalg.norm(gy - ey) <= 1e-5 * (1.0 + np.linalg.norm(ey))


def test_fd_gradient_nonfinite_probe():
    bad = FunctionOracle(
        eval=lambda x, y: float("nan"),
        grad_x=lambda x, y: np.zeros(1),
        grad_y=lambda x, y: np.zeros(1),
        lipschitz_grad=1.0,
        strong_concavity=1.0,
    )
    with pytest.raises(NonFiniteValue):
        fd_gradient(bad, [0.0], [0.0])


def test_fd_hvp_matches_closed_form():
    oracle = _cubic_oracle()
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.uniform(-2, 2, size=2)
        y = rng.uniform(-2, 2, size=2)
        v = rng.standard_normal(2)
        got_yy = fd_hvp_yy(oracle, x, y, v)
        got_xy = fd_hvp_xy(oracle, x, y, v)
        exact_yy = oracle.hvp_yy(x, y, v)
        exact_xy = oracle.hvp_xy(x, y, v)
        assert np.linalg.norm(got_yy - exact_yy) <= 1e-4 * (1.0 + np.linalg.norm(exact_yy))
        assert np.linalg.norm(got_xy - exact_xy) <= 1e-4 * (1.0 + np.linalg.norm(exact_xy))


def test_fd_hvp_scales_with_direction_norm():
    oracle = _cubic_oracle()
    x = np.array([0.7, -0.4])
    y = np.array([0.2, 0.5])
    v = np.array([0.3, -1.1])
    one = fd_hvp_yy(oracle, x, y, v)
    ten = fd_hvp_yy(oracle, x, y, 10.0 * v)
    assert np.allclose(ten, 10.0 * one, rtol=1e-8, atol=1e-10)


def test_fd_hvp_zero_direction():
    oracle = _cubic_oracle()
    with pytest.raises(ZeroDirection):
        fd_hvp_yy(oracle, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ZeroDirection):
        fd_hvp_xy(oracle, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])


def test_strong_concavity_witness_quadratic():
    # f(x, y) = <x, y> - ||y||^2 must satisfy the mu = 2 concavity bound
    oracle = FunctionOracle(
        eval=lambda x, y: float(np.dot(x, y) - np.dot(y, y)),
        grad_x=lambda x, y: np.asarray(y, float),
        grad_y=lambda x, y: np.asarray(x, float) - 2.0 * np.asarray(y, float),
        lipschitz_grad=3.0,
        strong_concavity=2.0,
    )
    rng = np.random.default_rng(9)
    mu = oracle.strong_concavity
    for _ in range(100):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        yp = rng.standard_normal(3)
        lhs = float(oracle.eval(x, yp))
        rhs = (
            float(oracle.eval(x, y))
            + float(np.dot(oracle.grad_y(x, y), yp - y))
            - 0.5 * mu * float(np.dot(yp - y, yp - y))
        )
        assert lhs <= rhs + 1e-10


def test_minimax_problem_defaults_and_checks():
    oracle = _cubic_oracle()
    prob = MinimaxProblem(f=oracle, X=BoxSet([0.0, 0.0], [1.0, 1.0]), Y=WholeSpace(2))
    assert prob.dim_x == 2 and prob.dim_y == 2
    assert prob.mu == 1.0 and prob.lipschitz == 10.0
    assert prob.r1.is_zero and prob.r2.is_zero
    x, y = prob.check_point([0.5, 0.5], [0.0, 0.0])
    assert x.shape == (2,)
    with pytest.raises(DimensionError):
        prob.check_point([0.5], [0.0, 0.0])


def test_zero_regularizer_prox_identity():
    reg = zero_regularizer()
    z = np.array([1.0, -2.0])
    assert reg.value(z) == 0.0
    assert np.array_equal(reg.prox(z, 5.0), z)
    assert reg.is_zero
