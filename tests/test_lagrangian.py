"""Multiplier lifting: lifted oracles, first-order residuals, duality.

The lifted saddle function is L(x, lam, y) = g(x, y) - <lam, c(x, y)>
over (x, lam) in X x polar(K) versus y in Y. Tests compare the built
closures against direct evaluations of the base oracles, hand-computed
residuals, and a closed-form strong-duality calculation on the 1-D
bilinear instance.
"""

import warnings

import numpy as np
import pytest

from pfbe.core import (
    ConstraintOracle,
    CoupledProblem,
    FunctionOracle,
    IncompleteOracle,
    DimensionError,
    PreconditionViolation,
    ProxRegularizer,
    UnsupportedSet,
    fd_hvp,
)
from pfbe.diagnostics import feasibility_mcc, stationarity_gamma, transfer_constant
from pfbe.envelope import EnvelopeConfig, evaluate
from pfbe.lagrangian import kkt_residual_mol, lift, multiplier_bound_monitor
from pfbe.problems import make_example1, make_synthetic, synthetic_from_data
from pfbe.sets import BoxSet, OrthantCone, WholeSpace, ZeroCone
from pfbe.solvers import SolverConfig, solve
from support import synthetic_reference


# ---------------------------------------------------------------------------
# lifted oracle algebra


def test_split_join_roundtrip():
    inst = make_synthetic(4, 3, 1.0, 2)
    lifted = inst.lifted
    x = np.array([0.1, 0.2, 0.3, 0.4])
    lam = np.array([1.0, 2.0, 3.0])
    z = lifted.join(x, lam)
    assert z.shape == (7,)
    xs, ls = lifted.split(z)
    assert np.array_equal(xs, x)
    assert np.array_equal(ls, lam)


def test_lifted_value_is_lagrangian():
    inst = make_synthetic(4, 5, 1.3, 6)
    lifted = inst.lifted
    base = inst.lifted.base
    rng = np.random.default_rng(61)
    for _ in range(50):
        x = rng.uniform(0, 1, size=4)
        lam = rng.uniform(0, 2, size=inst.lifted.m)
        y = rng.standard_normal(5)
        z = lifted.join(x, lam)
        direct = float(base.g.eval(x, y)) - float(lam @ base.c.eval_c(x, y))
        assert np.isclose(float(lifted.problem.f.eval(z, y)), direct, rtol=1e-14, atol=1e-14)


def test_lifted_gradients_blockwise():
    inst = make_synthetic(3, 4, 0.7, 8)
    lifted = inst.lifted
    base = inst.lifted.base
    rng = np.random.default_rng(62)
    for _ in range(50):
        x = rng.uniform(0, 1, size=3)
        lam = rng.uniform(0, 2, size=inst.lifted.m)
        y = rng.standard_normal(4)
        z = lifted.join(x, lam)
        gz = lifted.problem.f.grad_x(z, y)
        gy = lifted.problem.f.grad_y(z, y)
        expect_x = base.g.grad_x(x, y) - base.c.jvp_x(x, y, lam)
        expect_lam = -np.asarray(base.c.eval_c(x, y))
        expect_y = base.g.grad_y(x, y) - base.c.jvp_y(x, y, lam)
        assert np.allclose(gz[:3], expect_x, atol=1e-14)
        # multiplier block is exactly minus the constraint value, no rounding
        assert np.array_equal(gz[3:], expect_lam)
        assert np.allclose(gy, expect_y, atol=1e-14)


LIFTED_CALLS = ("eval", "grad_x", "grad_y", "hvp_xy", "hvp_yy")


@pytest.mark.parametrize("n, p", [(5, 5), (4, 3), (3, 4)])  # m = n = p, m = p < n, m = n < p
def test_lifted_oracle_keeps_row_bits_and_owns_its_outputs(n, p):
    lifted = make_synthetic(n, p, 1.0, 5).lifted
    f = lifted.problem.f
    rng = np.random.default_rng(n * 10 + p)
    z = rng.standard_normal((5, lifted.n + lifted.m))
    y = rng.standard_normal((5, p))
    v = rng.standard_normal((5, p))
    for name in LIFTED_CALLS:
        args = (z, y) if name in ("eval", "grad_x", "grad_y") else (z, y, v)
        stacked = getattr(f, name)(*args)
        rows = [getattr(f, name)(*row) for row in zip(*args)]
        assert np.asarray(stacked).tobytes() == np.array(rows).tobytes(), name
        for out, point in [(stacked, args)] + list(zip(rows, zip(*args))):
            # a caller may write into an output without touching its point
            assert not np.shares_memory(out, point[0]), name
            assert not np.shares_memory(out, point[1]), name


SEPARATE = ("eval", "grad_x", "grad_y")


def _recorded(call):
    """``call()`` and the messages of the warnings it emits."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = call()
    return out, {str(w.message) for w in seen}


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


@pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf], ids=str)
@pytest.mark.parametrize("rows", [None, 1, 3, 128], ids=lambda r: f"stack{r}" if r else "point")
def test_first_order_bundle_has_the_bits_of_the_three_calls(rows, bad):
    # the synthetic g and its lift, at a point or a stack whose middle row
    # holds a nan or an inf in a multiplier and in y
    lifted = make_synthetic(6, 4, 1.0, 3).lifted
    rng = np.random.default_rng(21)
    z = rng.standard_normal((rows or 1, lifted.n + lifted.m))
    y = rng.standard_normal((rows or 1, 4))
    if bad is not None:
        z[len(z) // 2, -1] = y[len(y) // 2, 0] = bad
    if rows is None:
        z, y = z[0], y[0]
    for f, args in ((lifted.base.g, (z[..., : lifted.n], y)), (lifted.problem.f, (z, y))):
        got, noise = _recorded(lambda: f.first_order(*args))
        want, value_noise = zip(*(_recorded(lambda: getattr(f, name)(*args)) for name in SEPARATE))
        assert [_bits(v) for v in got] == [_bits(v) for v in want]
        # a value evaluation calls eval and grad_y anyway; the bundle's
        # grad_x adds no warning of its own
        assert noise <= value_noise[0] | value_noise[2]
        for out in got[1:]:
            assert not np.shares_memory(out, z) and not np.shares_memory(out, y)


def test_lifted_bundle_computes_inf_minus_inf_as_the_separate_calls():
    # at x = 0.5, lam = y = inf: g's grad_x is 1 + inf and the multiplier
    # term inf, so the lifted grad_x is inf - inf, f nan and grad_y f -inf.
    # A direct call warns; a solve that reaches such a point does not
    # (test_solvers.py::test_spg_trial_where_the_lift_takes_inf_minus_inf_warns_nothing)
    f = synthetic_from_data([[1.0]], [1.0], 1.0).lifted.problem.f
    z, y = np.array([0.5, np.inf]), np.array([np.inf])
    with np.errstate(invalid="ignore"):
        gx, value, grad_y = f.grad_x(z, y), f.eval(z, y), f.grad_y(z, y)
        got = f.first_order(z, y)
    assert np.isnan(value) and grad_y[0] == -np.inf and np.isnan(gx[0])
    assert [_bits(v) for v in got] == [_bits(v) for v in (value, gx, grad_y)]


def _float_value_problem(to_float):
    """A coupled problem in two dimensions whose value is a Python float at
    one point when ``to_float``, else an ``np.float64``, and a float64 array
    of one value per row on a stack; its other oracles return float64
    arrays."""

    def pair(a, b):
        return np.stack([a, b], axis=-1)

    def g_eval(x, y):
        x0, x1, y0, y1 = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
        value = x0 * y0 + 2.0 * x1 * y1 - 0.5 * (y0 ** 2 + y1 ** 2)
        return float(value) if to_float and x.ndim == 1 else value

    g = FunctionOracle(
        eval=g_eval,
        grad_x=lambda x, y: pair(y[..., 0], 2.0 * y[..., 1]),
        grad_y=lambda x, y: pair(x[..., 0] - y[..., 0], 2.0 * x[..., 1] - y[..., 1]),
        lipschitz_grad=4.0,
        strong_concavity=1.0,
        hvp_yy=lambda x, y, v: pair(-v[..., 0], -v[..., 1]),
        hvp_xy=lambda x, y, v: pair(v[..., 0], 2.0 * v[..., 1]),
    )
    con = ConstraintOracle(
        dim=2,
        eval_c=lambda x, y: pair(y[..., 0] + x[..., 0] - 1.0, y[..., 1] - x[..., 1]),
        jvp_x=lambda x, y, lam: pair(lam[..., 0], -lam[..., 1]),
        jvp_y=lambda x, y, lam: pair(lam[..., 0], lam[..., 1]),
        dc_y=lambda x, y, v: pair(v[..., 0], v[..., 1]),
        hvp_xy_lam=lambda x, y, lam, v: np.zeros(np.shape(x)),
        hvp_yy_lam=lambda x, y, lam, v: np.zeros(np.shape(v)),
    )
    return CoupledProblem(
        g=g, c=con, X=BoxSet([0.0, 0.0], [1.0, 1.0]), Y=WholeSpace(2), K=OrthantCone(2, sign=-1)
    )


def test_lift_takes_a_value_oracle_that_returns_a_float_at_one_point():
    # the probe's one leniency: a value at one point may be a float; every
    # other result is a float64 array, which the lift uses as returned
    as_float, as_array = _float_value_problem(True), _float_value_problem(False)
    by_float = lift(as_float, lipschitz_grad=8.0).problem
    by_array = lift(as_array, lipschitz_grad=8.0).problem
    rng = np.random.default_rng(64)
    z = np.concatenate([rng.uniform(0, 1, 2), rng.uniform(0, 2, 2)])
    y, v = rng.standard_normal(2), rng.standard_normal(2)
    assert type(as_float.g.eval(z[:2], y)) is float
    assert type(as_array.g.eval(z[:2], y)) is np.float64
    for name in LIFTED_CALLS:
        args = (z, y) if name in ("eval", "grad_x", "grad_y") else (z, y, v)
        got, want = getattr(by_float.f, name)(*args), getattr(by_array.f, name)(*args)
        assert type(got) is type(want) and np.asarray(got).dtype == np.float64, name
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
    cfg = EnvelopeConfig.for_problem(by_array)
    for point in ((z, y), (np.tile(z, (3, 1)), np.tile(y, (3, 1)))):
        got, want = evaluate(by_float, cfg, *point), evaluate(by_array, cfg, *point)
        for field in ("gamma", "T", "grad_x", "grad_y"):
            assert np.asarray(getattr(got, field)).tobytes() == np.asarray(
                getattr(want, field)).tobytes(), field


def test_lifted_hvp_against_finite_differences():
    for inst in (make_synthetic(3, 4, 1.0, 14), make_example1()):
        lifted = inst.lifted
        f = lifted.problem.f
        rng = np.random.default_rng(63)
        dim_z = lifted.problem.dim_x
        dim_y = lifted.problem.dim_y
        for _ in range(20):
            z = rng.standard_normal(dim_z)
            y = rng.standard_normal(dim_y)
            v = rng.standard_normal(dim_y)
            exact_yy = f.hvp_yy(z, y, v)
            exact_xy = f.hvp_xy(z, y, v)
            got_yy = fd_hvp(f.grad_y, z, y, v)
            got_xy = fd_hvp(f.grad_x, z, y, v)
            assert np.linalg.norm(got_yy - exact_yy) <= 1e-4 * (1 + np.linalg.norm(exact_yy))
            assert np.linalg.norm(got_xy - exact_xy) <= 1e-4 * (1 + np.linalg.norm(exact_xy))


def test_lift_structure():
    inst = make_synthetic(2, 5, 1.0, 4)
    lifted = inst.lifted
    assert lifted.n == 2 and lifted.m == 2
    assert lifted.problem.dim_x == 4
    assert lifted.problem.dim_y == 5
    # polar of the nonpositive orthant: the nonnegative one
    assert lifted.polar_cone.lo.tolist() == [0.0, 0.0]
    assert lifted.polar_cone.hi.tolist() == [np.inf, np.inf]
    assert lifted.problem.f.strong_concavity == 1.0


def test_lift_of_a_box_problem_is_one_box():
    # X a box and polar(K) an orthant, the whole space or the origin (each a
    # box): X x polar(K) is one box, whose clip has the bits of the blockwise
    # projection, nan and signed zeros included
    rng = np.random.default_rng(64)
    values = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, -2.0, 0.5, 1.0, 12.0, 5e-324])
    base = make_example1().lifted.base
    lifts = [inst.lifted for inst in
             (make_synthetic(4, 3, 1.0, 2), make_synthetic(3, 5, 0.0, 3), make_example1())]
    for K in (ZeroCone(2), WholeSpace(2)):  # an equality or a free constraint
        custom = CoupledProblem(g=base.g, c=base.c, X=base.X, Y=base.Y, K=K)
        lifts.append(lift(custom, lipschitz_grad=5000.0))
    for lifted in lifts:
        X, coupled, n = lifted.problem.X, lifted.base, lifted.base.dim_x
        assert type(X) is BoxSet and repr(lifted.polar_cone) == repr(coupled.K.polar())
        for shape in ((X.dim,), (9, X.dim)):
            for z in (rng.choice(values, shape), 3.0 * rng.standard_normal(shape)):
                blockwise = np.concatenate(
                    [coupled.X.project(z[..., :n]), lifted.polar_cone.project(z[..., n:])], axis=-1)
                assert X.project(z).tobytes() == blockwise.tobytes()


class Interval:
    """[0, 1] with its own projection, not a BoxSet."""

    dim = 1

    def project(self, z):
        return np.clip(np.asarray(z, dtype=np.float64), 0.0, 1.0)


@pytest.mark.parametrize("name", ["X", "Y", "K"])
def test_coupled_problem_rejects_a_set_that_is_not_a_box(name):
    base = make_example1().lifted.base
    sets = {"X": base.X, "Y": base.Y, "K": base.K, name: Interval()}
    with pytest.raises(UnsupportedSet, match=f"CoupledProblem.{name} must be a BoxSet"):
        CoupledProblem(g=base.g, c=base.c, **sets)


def test_coupled_problem_rejects_a_k_that_is_not_a_cone():
    base = make_synthetic(3, 3, 1.0, 1).lifted.base
    for K in (BoxSet(-np.ones(3), np.ones(3)), BoxSet([0.0, 0.0, 0.0], [np.inf, np.inf, 1.0])):
        with pytest.raises(UnsupportedSet, match="not a cone"):
            CoupledProblem(g=base.g, c=base.c, X=base.X, Y=base.Y, K=K)


def test_coupled_problem_rejects_a_k_of_another_dimension():
    # the lift took m from c but X x polar(K) from K, so the start had one
    # entry more than the lifted box and the first solve failed
    base = make_synthetic(3, 3, 1.0, 1).lifted.base
    with pytest.raises(DimensionError, match="K has dimension 2, but c maps to dimension 3"):
        CoupledProblem(g=base.g, c=base.c, X=base.X, Y=base.Y, K=OrthantCone(2, sign=-1))


def test_lifted_r1_prox_blockwise():
    # a fused box prox on x must compose with the polar projection on lam
    box = BoxSet([0.0], [1.0])

    def fused(zv, t):
        return np.clip(np.sign(zv) * np.maximum(np.abs(zv) - t, 0.0), 0.0, 1.0)

    reg = ProxRegularizer(eval=lambda v: np.abs(v).sum(axis=-1), prox=fused, attached_set=box)
    base = make_example1().lifted.base
    custom = CoupledProblem(  # each callable takes a point or a stack
        g=FunctionOracle(
            eval=lambda x, y: -0.5 * (y[..., 0] - x[..., 0]) ** 2,
            grad_x=lambda x, y: y - x,
            grad_y=lambda x, y: -(y - x),
            lipschitz_grad=2.0,
            strong_concavity=1.0,
            hvp_yy=lambda x, y, v: -np.asarray(v, dtype=float),
            hvp_xy=lambda x, y, v: np.asarray(v, dtype=float),
        ),
        c=base.c,
        X=box,
        Y=WholeSpace(1),
        K=OrthantCone(2, sign=-1),
        r1=reg,
    )
    lifted = lift(custom, lipschitz_grad=10.0)
    r1l = lifted.problem.r1
    assert r1l.attached_set is lifted.problem.X
    out = r1l.prox(np.array([2.0, -1.0, 3.0]), 0.5)
    assert np.allclose(out[:1], fused(np.array([2.0]), 0.5))
    assert np.allclose(out[1:], [0.0, 3.0])  # polar projection, no shrinkage
    # value only charges the x block
    assert r1l.value(np.array([0.5, 9.0, 9.0])) == 0.5


def test_lift_zero_constraint_reduces_to_plain_lagrangian():
    # with c identically zero, the multiplier block of the gradient vanishes;
    # n = p = m = 1, so every result has the shape of x
    zero = lambda x, y, *rest: np.zeros(np.shape(x))
    con = ConstraintOracle(
        dim=1, eval_c=zero, jvp_x=zero, jvp_y=zero, dc_y=zero, hvp_xy_lam=zero, hvp_yy_lam=zero,
    )
    base = make_example1().lifted.base
    custom = CoupledProblem(
        g=base.g, c=con, X=base.X, Y=base.Y, K=OrthantCone(1, sign=-1)
    )
    lifted = lift(custom, lipschitz_grad=5.0)
    z = lifted.join(np.array([2.0]), np.array([3.0]))
    y = np.array([1.0])
    gz = lifted.problem.f.grad_x(z, y)
    assert gz[1] == 0.0
    assert float(lifted.problem.f.eval(z, y)) == float(base.g.eval(np.array([2.0]), y))
    res = kkt_residual_mol(lifted, [2.0], [3.0], [1.0])
    assert res.lam == 0.0


def _bilinear_g():
    # g = x y - y^2/2; each callable takes a point or a stack
    return FunctionOracle(
        eval=lambda x, y: x[..., 0] * y[..., 0] - 0.5 * y[..., 0] ** 2,
        grad_x=lambda x, y: np.array(y, dtype=float),
        grad_y=lambda x, y: x - y,
        lipschitz_grad=2.0,
        strong_concavity=1.0,
        hvp_yy=lambda x, y, v: -np.asarray(v, dtype=float),
        hvp_xy=lambda x, y, v: np.asarray(v, dtype=float),
    )


@pytest.mark.parametrize(
    "missing", [("hvp_xy_lam",), ("hvp_yy_lam",), ("hvp_xy_lam", "hvp_yy_lam")], ids="+".join
)
def test_lift_rejects_a_nonlinear_constraint_without_its_products(missing):
    # c = y^3/3 - x <= 0 needs both second derivatives of <lam, c> for the
    # lifted products; without one the constraint is not built, so no
    # lift can take it
    products = dict(
        hvp_xy_lam=lambda x, y, lam, v: np.zeros(np.shape(x)),
        hvp_yy_lam=lambda x, y, lam, v: 2.0 * lam * y * v,
    )
    for name in missing:
        products[name] = None
    with pytest.raises(IncompleteOracle, match=missing[0]):
        ConstraintOracle(
            dim=1,
            eval_c=lambda x, y: y ** 3 / 3.0 - x,
            jvp_x=lambda x, y, lam: -lam,
            jvp_y=lambda x, y, lam: lam * y ** 2,
            dc_y=lambda x, y, v: y ** 2 * v,
            **products,
        )


def _x_coefficient_constraint(**products):
    """``c = (1 + x0) y0 - 1``: affine in y, with a coefficient that depends on
    x (n = p = m = 1, so each callable takes a point or a stack)."""
    return ConstraintOracle(
        dim=1,
        eval_c=lambda x, y: (1.0 + x) * y - 1.0,
        jvp_x=lambda x, y, lam: lam * y,
        jvp_y=lambda x, y, lam: lam * (1.0 + x),
        dc_y=lambda x, y, v: (1.0 + x) * v,
        **products,
    )


def test_an_affine_constraint_with_an_x_dependent_coefficient_needs_its_mixed_product():
    # taking the missing mixed product as zero gave a lifted hvp_xy of
    # (1.0, -1.5) at z = (0.5, 0.7), y = 0.3, v = 1, where central
    # differences of the lifted grad_x give (0.3, -1.5)
    zero = lambda x, y, lam, v: np.zeros(np.shape(v))
    with pytest.raises(IncompleteOracle, match="hvp_xy_lam"):
        _x_coefficient_constraint(hvp_xy_lam=None, hvp_yy_lam=zero)
    con = _x_coefficient_constraint(hvp_xy_lam=lambda x, y, lam, v: lam * v, hvp_yy_lam=zero)
    coupled = CoupledProblem(
        g=_bilinear_g(), c=con, X=WholeSpace(1), Y=WholeSpace(1), K=OrthantCone(1, sign=-1)
    )
    f = lift(coupled, lipschitz_grad=10.0).problem.f
    z, y, v, h = np.array([0.5, 0.7]), np.array([0.3]), np.array([1.0]), 1e-6
    fd_xy = (f.grad_x(z, y + h * v) - f.grad_x(z, y - h * v)) / (2.0 * h)
    assert np.allclose(fd_xy, [0.3, -1.5], rtol=1e-8, atol=1e-8)
    assert np.allclose(f.hvp_xy(z, y, v), fd_xy, rtol=1e-8, atol=1e-8)


def _mixed_constraint(case):
    """A constraint on n = p = 1 for each way ``lift`` builds its ``hvp_xy``;
    each callable takes a point or a stack."""
    if case == "x-dependent-coefficient":  # c = x y - 1: affine in y, A depends on x
        return ConstraintOracle(
            dim=1,
            eval_c=lambda x, y: x * y - 1.0,
            jvp_x=lambda x, y, lam: lam * y,
            jvp_y=lambda x, y, lam: lam * x,
            dc_y=lambda x, y, v: x * v,
            hvp_xy_lam=lambda x, y, lam, v: lam * v,
            hvp_yy_lam=lambda x, y, lam, v: np.zeros(np.shape(v)),
        )
    # "nonlinear": c = x y^2 / 2 - 1, with every product given
    return ConstraintOracle(
        dim=1,
        eval_c=lambda x, y: 0.5 * x * y ** 2 - 1.0,
        jvp_x=lambda x, y, lam: 0.5 * lam * y ** 2,
        jvp_y=lambda x, y, lam: lam * x * y,
        dc_y=lambda x, y, v: x * y * v,
        hvp_xy_lam=lambda x, y, lam, v: lam * y * v,
        hvp_yy_lam=lambda x, y, lam, v: lam * x * v,
    )


@pytest.mark.parametrize("case", ["x-dependent-coefficient", "nonlinear"])
def test_lifted_hvp_of_a_given_constraint_against_central_differences(case):
    # g = x y - y^2/2; each lifted product is the central difference in y
    # of the lifted gradient, whose x-entry at the first case is 1.8, not 1.0
    coupled = CoupledProblem(
        g=_bilinear_g(), c=_mixed_constraint(case), X=WholeSpace(1), Y=WholeSpace(1),
        K=OrthantCone(1, sign=-1),
    )
    f = lift(coupled, lipschitz_grad=10.0).problem.f
    h = 1e-6
    for z, y, v in (([0.7, -0.8], [0.3], [1.0]), ([-1.3, 2.1], [0.4], [-0.6])):
        z, y, v = np.array(z), np.array(y), np.array(v)
        fd_xy = (f.grad_x(z, y + h * v) - f.grad_x(z, y - h * v)) / (2.0 * h)
        fd_yy = (f.grad_y(z, y + h * v) - f.grad_y(z, y - h * v)) / (2.0 * h)
        assert np.allclose(f.hvp_xy(z, y, v), fd_xy, rtol=1e-8, atol=1e-8)
        assert np.allclose(f.hvp_yy(z, y, v), fd_yy, rtol=1e-8, atol=1e-8)


# ---------------------------------------------------------------------------
# first-order residuals


def test_kkt_residual_hand_computed():
    # Example instance at x=2, lam=(1,0), y=1:
    #   grad_x L = 2(y-2x) + lam1 + 4x^3 lam2 = -6 + 1 = -5
    #     -> prox step clip([1,10], 2+5) = 7, residual 5
    #   grad_y L = -(y-2x) - (lam1+lam2) = 3 - 1 = 2 -> free y, residual 2
    #   c = (y-x, y-x^4) = (-1, -15)
    #     -> project(lam + c) on nonneg = (0, 0), residual |(1,0)| = 1
    inst = make_example1()
    res = kkt_residual_mol(inst.lifted, [2.0], [1.0, 0.0], [1.0])
    assert res.x == pytest.approx(5.0, abs=1e-12)
    assert res.y == pytest.approx(2.0, abs=1e-12)
    assert res.lam == pytest.approx(1.0, abs=1e-12)
    assert res.max == pytest.approx(5.0, abs=1e-12)


def test_kkt_residual_zero_at_named_points():
    inst = make_example1()
    for x, lam, y in (inst.spurious_point(), inst.minimax_point()):
        res = kkt_residual_mol(inst.lifted, x, lam, y)
        assert res.max <= 1e-10


def test_kkt_residual_nonzero_between_named_points():
    # the boundary-tracking candidate (x, (x, 0), x) is stationary only
    # at the box ends; in the interior the x-block prox target is
    # clip([1,10], 2x), so the residual is min(2x, 10) - x
    inst = make_example1()
    for xv in (3.0, 5.0, 7.0):
        res = kkt_residual_mol(inst.lifted, [xv], [xv, 0.0], [xv])
        assert res.x == pytest.approx(min(2.0 * xv, 10.0) - xv, abs=1e-12)
        assert res.max > 1.0


def test_kkt_preconditions():
    inst = make_example1()
    with pytest.raises(PreconditionViolation):
        kkt_residual_mol(inst.lifted, [2.0], [-1.0, 0.0], [1.0])
    bounded_y = make_example1()
    # y outside Y cannot happen for the whole space; use a box-Y variant
    base = bounded_y.lifted.base
    custom = CoupledProblem(
        g=base.g, c=base.c, X=base.X, Y=BoxSet([-1.0], [1.0]), K=base.K
    )
    lifted = lift(custom, lipschitz_grad=5000.0)
    with pytest.raises(PreconditionViolation):
        kkt_residual_mol(lifted, [2.0], [1.0, 0.0], [5.0])


def test_kkt_preconditions_reject_nan():
    # a nan multiplier or y is in neither the polar cone nor Y, though every
    # one of them is a box whose clip keeps the nan (the origin too)
    base = make_example1().lifted.base
    for K in (base.K, WholeSpace(2)):
        for Y in (base.Y, BoxSet([-1.0], [1.0])):
            lifted = lift(CoupledProblem(g=base.g, c=base.c, X=base.X, Y=Y, K=K), 5000.0)
            lam = lifted.polar_cone.project(np.zeros(2))
            with pytest.raises(PreconditionViolation, match="polar cone"):
                kkt_residual_mol(lifted, [2.0], [np.nan, 0.0], [0.5])
            with pytest.raises(PreconditionViolation, match="outside Y"):
                kkt_residual_mol(lifted, [2.0], lam, [np.nan])
            assert np.isfinite(kkt_residual_mol(lifted, [2.0], lam, [0.5]).max)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_kkt_preconditions_reject_inf(bad):
    # an inf coordinate fails contains with PreconditionViolation, not inf - inf's warning
    lifted = make_synthetic(2, 2, 1.0, 1).lifted
    with pytest.raises(PreconditionViolation, match="polar cone"):
        kkt_residual_mol(lifted, np.zeros(2), [bad, 0.0], np.zeros(2))
    with pytest.raises(PreconditionViolation, match="outside Y"):
        kkt_residual_mol(lifted, np.zeros(2), lifted.polar_cone.project(np.zeros(2)), [bad, 0.0])


def test_multiplier_monitor_at_spurious_point():
    # |lam| = sqrt(5)/3 and |grad_y g| = 1, so the ratio is sqrt(5)/6
    inst = make_example1()
    x, lam, y = inst.spurious_point()
    got = multiplier_bound_monitor(inst.lifted, x, lam, y)
    assert got == pytest.approx(np.sqrt(5.0) / 6.0, abs=1e-12)


def test_multiplier_monitor_scales_with_lam():
    inst = make_synthetic(3, 3, 1.0, 5)
    x = np.full(3, 0.5)
    y = np.zeros(3)
    one = multiplier_bound_monitor(inst.lifted, x, np.ones(3), y)
    two = multiplier_bound_monitor(inst.lifted, x, 2.0 * np.ones(3), y)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


# ---------------------------------------------------------------------------
# strong duality on the 1-D bilinear instance


def test_strong_duality_one_dimensional():
    # g = x + x y - y^2/2, constraint x + y <= 1 on X = [0,1], Y = R.
    # Inner value: Phi(x) = g(x, min(x, 1-x)).
    # Dual function H(x, lam) = max_y L = x + x^2/2 + lam^2/2 - 2 x lam + lam,
    # minimized over lam >= 0 at lam*(x) = max(0, 2x - 1); strong duality
    # makes min_lam H equal Phi pointwise.
    inst = synthetic_from_data([[1.0]], [1.0], 1.0)
    lifted = inst.lifted
    for xv in np.linspace(0.0, 1.0, 4001):
        ystar_primal = min(xv, 1.0 - xv)
        phi = xv + xv * ystar_primal - 0.5 * ystar_primal**2
        lam_star = max(0.0, 2.0 * xv - 1.0)
        dual = xv + xv**2 / 2.0 + lam_star**2 / 2.0 - 2.0 * xv * lam_star + lam_star
        assert abs(dual - phi) <= 1e-12
        # the lifted oracle evaluated at its own inner argmax y = x - lam reproduces H
        y_inner = np.array([xv - lam_star])
        z = lifted.join(np.array([xv]), np.array([lam_star]))
        assert abs(float(lifted.problem.f.eval(z, y_inner)) - dual) <= 1e-12


def test_stationary_points_match_value_function_minima():
    # On the 1-D bilinear instance the only lifted stationary point over
    # the grid sits at the value-function minimizer x = 0 (Phi increasing).
    inst = synthetic_from_data([[1.0]], [1.0], 1.0)
    best = None
    for xv in np.linspace(0.0, 1.0, 101):
        lam_star = max(0.0, 2.0 * xv - 1.0)
        ystar = xv - lam_star  # the inner argmax B^T x - lam, with B = 1
        res = kkt_residual_mol(inst.lifted, [xv], [lam_star], [ystar])
        if best is None or res.max < best[0]:
            best = (res.max, xv)
    assert best[0] <= 1e-12
    assert best[1] == 0.0


# ---------------------------------------------------------------------------
# active multipliers: SPG and tuned GDA solutions against the lift-free reference


# stops at max_iter with base feasibility 1.2e-1; its three bounds still hold
_STALLS = {("gda", 20, 0.0, 3)}


@pytest.mark.parametrize("solver, n, seed, c", [
    # the SPG rows carry no solver in their ids, and the n = 10 rows no size
    pytest.param(
        solver, n, seed, c,
        id=f"{seed}-{c}" + ("" if solver == "spg" else "-gda") + ("" if n == 10 else f"-n{n}"),
    )
    for n in (10, 20) for solver in ("spg", "gda") for c in (0.0, -0.5) for seed in (1, 2, 3)
])
def test_spg_solution_matches_the_lift_free_reference(solver, n, seed, c):
    # at c <= 0 the coupled constraint binds, so some multipliers are
    # active and the lifted box clips the others at 0; the returned point is
    # checked against the reference by the criterion-3 bound
    # transfer_constant * raw stat * 1.1, which holds at any returned point
    inst = make_synthetic(n, n, c, seed)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    # GDA at the step `pfbe run` tunes, with its default grid and pilot budget
    res = solve(solver, prob, cfg, SolverConfig(), *inst.lifted.default_start(),
                pilot_iters=1000)
    x, lam = inst.lifted.split(res.x)
    raw = stationarity_gamma(prob, cfg, res.x, res.y)
    bound = transfer_constant(prob, cfg) * raw * 1.1
    residual, y_star, lam_star = synthetic_reference(inst, c, x)
    errors = {
        "residual": residual,
        "lam": float(np.linalg.norm(lam - lam_star)),
        "y": float(np.linalg.norm(res.y - y_star)),
    }
    for what, err in errors.items():
        assert err <= bound, (what, err, bound)
    if (solver, n, c, seed) in _STALLS:
        assert not res.converged
    else:
        assert res.converged and feasibility_mcc(inst.lifted.base, x, res.y) <= 1e-6
    assert np.count_nonzero(lam) >= 4 and lam.min() >= 0.0
    if n == 10:  # at n = 20, seed 2 has every multiplier active
        assert lam.min() == 0.0
