"""Core oracle types, validation, and finite-difference helpers.

The finite-difference helpers are tested against closed-form gradients
and Hessian-vector products of small polynomial test functions.
"""

from dataclasses import replace

import numpy as np
import pytest

from pfbe.core import (
    ConstraintOracle,
    DimensionError,
    FunctionOracle,
    IncompleteOracle,
    MinimaxProblem,
    NonFiniteValue,
    ProxRegularizer,
    ZeroDirection,
    as_points,
    as_vector,
    check_finite,
    fd_gradient,
    fd_hvp,
    zero_regularizer,
)
from pfbe.problems import make_synthetic
from pfbe.sets import BoxSet, WholeSpace


def _cubic_oracle():
    # f(x, y) = x1^2 y1 + x2 y2^3 - y1^2 - y2^2, strongly concave for |y2| small;
    # each callable takes a point or a stack
    def pair(a, b):
        return np.stack([a, b], axis=-1)

    def ev(x, y):
        x1, x2, y1, y2 = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
        return x1 ** 2 * y1 + x2 * y2 ** 3 - y1 ** 2 - y2 ** 2

    def gx(x, y):
        return pair(2.0 * x[..., 0] * y[..., 0], y[..., 1] ** 3)

    def gy(x, y):
        return pair(x[..., 0] ** 2 - 2.0 * y[..., 0],
                    3.0 * x[..., 1] * y[..., 1] ** 2 - 2.0 * y[..., 1])

    def hyy(x, y, v):
        return pair(-2.0 * v[..., 0], (6.0 * x[..., 1] * y[..., 1] - 2.0) * v[..., 1])

    def hxy(x, y, v):
        # d/dx of grad_y f, applied to a y-direction v, valued in x-space
        return pair(2.0 * x[..., 0] * v[..., 0], 3.0 * y[..., 1] ** 2 * v[..., 1])

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


def _mixed_rows_grad_y(x, y):
    """A grad_y of the synthetic g at n = p = 2 that reads one point only."""
    return np.array([x[0] - y[0], 2.0 * x[1] - y[1]])


def test_probe_names_a_callable_that_mixes_rows():
    # on a stack of two points in two dimensions the one-point grad_y returns
    # the stack's shape with its rows mixed, which a shape check passed; the
    # probe compares values when the coupled or the minimax problem is built
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = np.array([[0.5, -1.0], [2.0, 0.25]])
    rowwise = np.array([_mixed_rows_grad_y(xr, yr) for xr, yr in zip(x, y)])
    stacked = _mixed_rows_grad_y(x, y)
    assert stacked.shape == y.shape and not np.array_equal(stacked, rowwise)
    base = make_synthetic(2, 2, 1.0, 1).lifted.base
    g = replace(base.g, grad_y=_mixed_rows_grad_y)
    with pytest.raises(DimensionError, match="CoupledProblem.g.grad_y returned rows"):
        replace(base, g=g)
    with pytest.raises(DimensionError, match="FunctionOracle.grad_y returned rows"):
        MinimaxProblem(f=g, X=base.X, Y=base.Y)


def _first_row(fn):
    """``fn`` reading the first row of each stacked argument: right at one
    point, one row of results for a stack."""
    return lambda *args: fn(*[a[0] if np.ndim(a) == 2 else a for a in args])


def _results_as(kind):
    """A wrapper that makes each part of a callable's results a list, or an
    array of dtype ``kind``: the same numbers, but not float64 arrays."""
    cast = (lambda r: np.asarray(r).tolist()) if kind == "list" else (
        lambda r: np.asarray(r, dtype=kind))

    def wrap(fn):
        def wrapped(*args):
            out = fn(*args)
            return tuple(map(cast, out)) if isinstance(out, tuple) else cast(out)
        return wrapped
    return wrap


# a callable that reads one point only gets a shape error; one whose
# results are not float64 arrays a type error, or, for a bundle whose
# parts the cast rounds, the bytes error of the bundle rule
_WRAPPERS = {"first_row": (_first_row, "shapes "), "list": (_results_as("list"), ""),
             "float32": (_results_as(np.float32), ""), "int64": (_results_as(np.int64), "")}

_SOFT = ProxRegularizer(eval=lambda v: np.abs(v).sum(axis=-1),
                        prox=lambda z, t: np.sign(z) * np.maximum(np.abs(z) - t, 0.0))


@pytest.mark.parametrize("owner, name, wrapper", [
    pytest.param(owner, name, wrapper, id=f"{owner}-{name}"
                 + ("" if wrapper == "first_row" else f"-{wrapper}"))
    for wrapper in _WRAPPERS for owner, name in [("f", name) for name in (
        "eval", "grad_x", "grad_y", "hvp_yy", "hvp_xy", "first_order")]
    + [(reg, name) for reg in ("r1", "r2") for name in ("eval", "prox")]])
def test_building_a_problem_names_a_callable_that_takes_one_point_only(owner, name, wrapper):
    wrap, message = _WRAPPERS[wrapper]
    base = make_synthetic(2, 2, 1.0, 1).lifted.base
    parts = {"f": base.g, "r1": _SOFT, "r2": _SOFT}
    fn = getattr(parts[owner], name)
    parts[owner] = replace(parts[owner], **{name: wrap(fn)})
    what = "FunctionOracle" if owner == "f" else f"MinimaxProblem.{owner}"
    with pytest.raises(DimensionError, match=rf"^{what}\.{name} returned {message}"):
        MinimaxProblem(X=base.X, Y=base.Y, **parts)
    MinimaxProblem(f=base.g, X=base.X, Y=base.Y, r1=_SOFT, r2=_SOFT)  # the callables as given


@pytest.mark.parametrize("wrapper", ["list", "float32", "int64"])
def test_building_a_coupled_problem_names_a_constraint_that_returns_no_float64_array(wrapper):
    base = make_synthetic(2, 2, 1.0, 1).lifted.base
    c = replace(base.c, eval_c=_WRAPPERS[wrapper][0](base.c.eval_c))
    with pytest.raises(DimensionError, match=rf"^CoupledProblem\.c\.eval_c returned {wrapper} "
                                             rf"results, expected float64 arrays"):
        replace(base, c=c)


@pytest.mark.parametrize("value", [0.25, np.float64(0.25), np.array(0.25)],
                         ids=["float", "np.float64", "0-d array"])
def test_building_a_problem_takes_a_float_value_at_one_point(value):
    # a float, an np.float64 and a 0-d float64 array are all one float64 value
    base = make_synthetic(2, 2, 1.0, 1).lifted.base

    def ev(x, y):
        return np.full(x.shape[:-1], 0.25) if x.ndim == 2 else value

    MinimaxProblem(f=replace(base.g, eval=ev, first_order=None), X=base.X, Y=base.Y)


@pytest.mark.parametrize("part, name", enumerate(["eval", "grad_x", "grad_y"]))
def test_building_a_problem_names_a_bundle_that_differs_from_the_separate_calls(part, name):
    # the envelope reads f, grad_x f and grad_y f from the bundle, the
    # fixed-step rules and minimax_residual from the separate calls: a
    # bundle one ulp off would give them different numbers
    base = make_synthetic(2, 2, 1.0, 1).lifted.base
    bundle = base.g.first_order

    def off(x, y):
        got = list(bundle(x, y))
        got[part] = np.nextafter(got[part], np.inf)
        return tuple(got)

    g = replace(base.g, first_order=off)
    with pytest.raises(DimensionError, match=rf"^CoupledProblem\.g\.first_order returned a part "
                                             rf"whose bytes differ from those of "
                                             rf"CoupledProblem\.g\.{name}$"):
        replace(base, g=g)
    with pytest.raises(DimensionError, match=rf"^FunctionOracle\.first_order returned a part "
                                             rf"whose bytes differ from those of "
                                             rf"FunctionOracle\.{name}$"):
        MinimaxProblem(f=g, X=base.X, Y=base.Y)


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


@pytest.mark.parametrize("value", [
    np.array([1e308, 1e308]),  # finite, though its sum and its dot overflow
    np.full((3, 4), -1e308),
    np.float64(2.0),
    np.float64(1e308),
    np.array(5.0),
    [1e308, 1e308],
])
def test_check_finite_passes_finite_values_whatever_they_sum_to(value):
    assert check_finite(value) is value


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 3, 6])
def test_check_finite_finds_a_nonfinite_entry_at_any_position(bad, at):
    v = np.full(7, 1e308)
    v[at] = bad
    stack = np.ones((3, 7))
    stack[1, at] = bad
    for value in (v, stack, stack.T, np.float64(bad), v[at:at + 1]):
        with pytest.raises(NonFiniteValue, match="non-finite probe"):
            check_finite(value, "probe")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_names_a_number_as_a_python_float(bad):
    # a one-point gamma is an np.float64, which numpy 2 prints as np.float64(nan)
    for value in (float(bad), np.float64(bad)):
        with pytest.raises(NonFiniteValue) as raised:
            check_finite(value, "gamma")
        assert str(raised.value) == f"non-finite gamma: {float(bad)!r}"


def _zero_hvp(x, y, v):
    return np.zeros(1)


def test_function_oracle_rejects_bad_constants():
    dummy = lambda x, y: 0.0
    dummyg = lambda x, y: np.zeros(1)
    hvps = dict(hvp_yy=_zero_hvp, hvp_xy=_zero_hvp)
    with pytest.raises(ValueError):
        FunctionOracle(dummy, dummyg, dummyg, lipschitz_grad=-1.0, strong_concavity=1.0, **hvps)
    with pytest.raises(ValueError):
        FunctionOracle(dummy, dummyg, dummyg, lipschitz_grad=1.0, strong_concavity=0.0, **hvps)
    with pytest.raises(ValueError):
        FunctionOracle(dummy, dummyg, dummyg, lipschitz_grad=np.inf, strong_concavity=1.0, **hvps)


@pytest.mark.parametrize("missing", ["hvp_yy", "hvp_xy"])
def test_function_oracle_without_an_exact_product_is_incomplete(missing):
    dummyg = lambda x, y: np.zeros(1)
    pieces = dict(
        eval=lambda x, y: 0.0, grad_x=dummyg, grad_y=dummyg,
        lipschitz_grad=1.0, strong_concavity=1.0, hvp_yy=_zero_hvp, hvp_xy=_zero_hvp,
    )
    pieces[missing] = None
    with pytest.raises(IncompleteOracle, match=missing):
        FunctionOracle(**pieces)


def _constraint_parts():
    zero = lambda x, y, lam: np.zeros(1)
    zero_hvp = lambda x, y, lam, v: np.zeros(1)
    return dict(
        dim=1, eval_c=lambda x, y: np.zeros(1), jvp_x=zero, jvp_y=zero,
        dc_y=lambda x, y, v: np.zeros(1), hvp_xy_lam=zero_hvp, hvp_yy_lam=zero_hvp,
    )


def test_constraint_oracle_without_dc_y_is_incomplete():
    with pytest.raises(IncompleteOracle, match="dc_y"):
        ConstraintOracle(**{**_constraint_parts(), "dc_y": None})


@pytest.mark.parametrize("name", ["hvp_xy_lam", "hvp_yy_lam"])
@pytest.mark.parametrize("value", [None, "not callable"])
def test_constraint_oracle_without_a_product_is_incomplete(name, value):
    ConstraintOracle(**_constraint_parts())  # complete, it builds
    with pytest.raises(IncompleteOracle, match=f"ConstraintOracle.{name}"):
        ConstraintOracle(**{**_constraint_parts(), name: value})


def test_fd_gradient_matches_closed_form():
    oracle = _cubic_oracle()
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(-2, 2, size=2)
        y = rng.uniform(-2, 2, size=2)
        gx, gy = fd_gradient(oracle.eval, x, y)
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
        hvp_yy=_zero_hvp,
        hvp_xy=_zero_hvp,
    )
    with pytest.raises(NonFiniteValue):
        fd_gradient(bad.eval, [0.0], [0.0])


def test_fd_hvp_matches_closed_form():
    oracle = _cubic_oracle()
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.uniform(-2, 2, size=2)
        y = rng.uniform(-2, 2, size=2)
        v = rng.standard_normal(2)
        got_yy = fd_hvp(oracle.grad_y, x, y, v)
        got_xy = fd_hvp(oracle.grad_x, x, y, v)
        exact_yy = oracle.hvp_yy(x, y, v)
        exact_xy = oracle.hvp_xy(x, y, v)
        assert np.linalg.norm(got_yy - exact_yy) <= 1e-4 * (1.0 + np.linalg.norm(exact_yy))
        assert np.linalg.norm(got_xy - exact_xy) <= 1e-4 * (1.0 + np.linalg.norm(exact_xy))


def test_fd_hvp_scales_with_direction_norm():
    oracle = _cubic_oracle()
    x = np.array([0.7, -0.4])
    y = np.array([0.2, 0.5])
    v = np.array([0.3, -1.1])
    one = fd_hvp(oracle.grad_y, x, y, v)
    ten = fd_hvp(oracle.grad_y, x, y, 10.0 * v)
    assert np.allclose(ten, 10.0 * one, rtol=1e-8, atol=1e-10)


def test_fd_hvp_zero_direction():
    oracle = _cubic_oracle()
    with pytest.raises(ZeroDirection):
        fd_hvp(oracle.grad_y, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ZeroDirection):
        fd_hvp(oracle.grad_x, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])


def test_strong_concavity_witness_quadratic():
    # f(x, y) = <x, y> - ||y||^2 must satisfy the mu = 2 concavity bound
    oracle = FunctionOracle(
        eval=lambda x, y: (x * y).sum(axis=-1) - (y * y).sum(axis=-1),
        grad_x=lambda x, y: np.asarray(y, float),
        grad_y=lambda x, y: np.asarray(x, float) - 2.0 * np.asarray(y, float),
        lipschitz_grad=3.0,
        strong_concavity=2.0,
        hvp_yy=lambda x, y, v: -2.0 * np.asarray(v, float),
        hvp_xy=lambda x, y, v: np.asarray(v, float),
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
    # building it probes that the cubic oracle takes a point or a stack
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
    assert reg.eval(np.ones((3, 2))).tolist() == [0.0, 0.0, 0.0]  # one zero per row
    assert np.array_equal(reg.prox(z, 5.0), z)
    assert reg.is_zero
