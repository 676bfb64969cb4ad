"""Partial forward-backward envelope: values, gradients, invariants.

One instance is checked against fully hand-computed numbers (frozen
below with their derivation); general cases are checked against an
independent in-test reimplementation of the envelope formulas and
against central finite differences.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from pfbe import envelope
from pfbe.core import (
    DimensionError,
    FunctionOracle,
    MinimaxProblem,
    NonFiniteValue,
    ProxRegularizer,
    fd_gradient,
)
from pfbe.envelope import (
    EnvelopeConfig,
    evaluate,
    grad_norm,
    near_kink,
    prox_grad_residual,
    prox_step,
    with_gradients,
)
from pfbe.problems import make_synthetic, synthetic_from_data
from pfbe.sets import BoxSet, WholeSpace
from pfbe.solvers import SolverConfig, solve_spg
from support import eval_rows


# ---------------------------------------------------------------------------
# configuration


def test_threshold_formula():
    assert EnvelopeConfig.threshold(0.5, 1.0) == 4.0
    assert EnvelopeConfig.threshold(4.0, 1.0) == 1.0
    assert EnvelopeConfig.threshold(0.1, 2.0) == 10.0


def test_config_rejects_small_alpha():
    prob = make_synthetic(3, 3, 1.0, 2).lifted.problem  # mu = 1
    with pytest.raises(ValueError, match="threshold"):
        EnvelopeConfig.for_problem(prob, eta=0.5, alpha=3.9)
    with pytest.raises(ValueError, match="threshold"):
        EnvelopeConfig(eta=0.5, alpha=3.9).check_threshold(1.0)
    EnvelopeConfig(eta=0.5, alpha=4.0).check_threshold(1.0)
    with pytest.raises(ValueError):
        EnvelopeConfig(eta=-0.5, alpha=4.0)
    # without a modulus the constructor checks only alpha >= 1
    for alpha in (0.5, 1.0 - 1e-9):
        with pytest.raises(ValueError, match=">= 1"):
            EnvelopeConfig(eta=0.5, alpha=alpha)
    # an infinite alpha clears the threshold but makes the objective nan
    for alpha in (np.inf, np.nan):
        with pytest.raises(ValueError, match="alpha must be a finite"):
            EnvelopeConfig(eta=0.5, alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be a finite"):
            EnvelopeConfig.for_problem(prob, alpha=alpha)
    # a defaulted alpha needs a finite threshold: 2/(eta*mu) overflows, or
    # eta*mu underflows to 0 at mu = 0.5
    small_mu = replace(prob, f=replace(prob.f, strong_concavity=0.5))
    for problem, eta in ((prob, 1e-320), (small_mu, 5e-324)):
        with pytest.raises(ValueError, match=f"eta={eta!r} must be a finite real number, got inf"):
            EnvelopeConfig.for_problem(problem, eta=eta)
    with pytest.raises(ValueError, match="threshold"):
        EnvelopeConfig.for_problem(small_mu, eta=5e-324, alpha=2.0)
    cfg = EnvelopeConfig(eta=0.5, alpha=4.0)
    assert cfg.alpha == 4.0


def test_for_problem_defaults():
    inst = make_synthetic(3, 3, 1.0, 1)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    L = prob.lipschitz
    assert cfg.eta == min(1.0, 1.0 / (2.0 * L))
    assert cfg.alpha == EnvelopeConfig.threshold(cfg.eta, 1.0)
    override = EnvelopeConfig.for_problem(prob, eta=0.01)
    assert override.eta == 0.01
    assert override.alpha == EnvelopeConfig.threshold(0.01, 1.0)


# ---------------------------------------------------------------------------
# frozen hand computation
#
# Instance: lifted 1-D bilinear problem, f(z, y) = x + x y - y^2/2
# - lam (x + y - 1) with z = (x, lam). At eta = 1/2, alpha = 4,
# z = (0.5, 0.25), y = 0.1:
#   grad_y f = x - y - lam = 0.15,  T = y + eta grad_y f = 0.175
#   R = (T - y)/eta = 0.15,         f = 0.645
#   psi = f + (eta/2) |grad_y f|^2 = 0.650625
#   xi = f + (alpha eta / 2) |grad_y f|^2 = 0.6675 = gamma (no r1, r2)
#   grad_z xi = (1 + y - lam + 2 R, -(x + y - 1) - 2 R) = (1.15, 0.1)
#   grad_y xi = R (1 - alpha eta) = -0.15


def _pinned_case():
    inst = synthetic_from_data([[1.0]], [1.0], 1.0)
    cfg = EnvelopeConfig(eta=0.5, alpha=4.0)
    return inst.lifted.problem, cfg, np.array([0.5, 0.25]), np.array([0.1])


def test_envelope_frozen_values():
    prob, cfg, z, y = _pinned_case()
    ev = evaluate(prob, cfg, z, y)
    assert ev.f_val == pytest.approx(0.645, abs=1e-15)
    assert np.allclose(ev.T, [0.175], atol=1e-15)
    assert np.allclose(ev.R, [0.15], atol=1e-15)
    assert ev.psi == pytest.approx(0.650625, abs=1e-15)
    assert ev.xi == pytest.approx(0.6675, abs=1e-15)
    assert ev.gamma == pytest.approx(0.6675, abs=1e-15)
    assert np.allclose(ev.grad_x, [1.15, 0.1], atol=1e-15)
    assert np.allclose(ev.grad_y, [-0.15], atol=1e-15)
    assert not near_kink(prob, ev)
    assert np.linalg.norm(ev.R) == pytest.approx(0.15, abs=1e-15)


def test_wrappers_match_evaluate():
    prob, cfg, z, y = _pinned_case()
    ev = evaluate(prob, cfg, z, y)
    T, R = prox_step(prob, cfg, z, y)
    assert np.array_equal(T, ev.T) and np.array_equal(R, ev.R)
    # the value evaluation carries grad_x f but no gradient of Xi; completing
    # it gives the gradient-bearing evaluation bit for bit
    value = evaluate(prob, cfg, z, y, need_grad=False)
    assert np.array_equal(value.grad_x_f, ev.grad_x_f)
    assert value.grad_x is None and value.grad_y is None
    assert value.psi == ev.psi and value.gamma == ev.gamma and value.xi == ev.xi
    done = with_gradients(prob, cfg, value)
    for name in ("grad_x_f", "grad_x", "grad_y"):
        assert np.array_equal(getattr(done, name), getattr(ev, name))
    # grad_z f = (1 + y - lam, -(x + y - 1)) = (0.85, 0.4) at the pinned point
    assert np.allclose(ev.grad_x_f, [0.85, 0.4], atol=1e-15)


# ---------------------------------------------------------------------------
# Xi near a solution


@pytest.mark.parametrize("n, c, seed", [(5, 1.0, 1), (20, 0.0, 1), (50, 0.0, 3)])
def test_xi_near_a_solution_is_within_one_ulp_of_its_exact_value(n, c, seed):
    # at SPG's end point psi - f nearly vanishes, so Xi = f + alpha (psi - f)
    # carries about the rounding of f; alpha psi - (alpha - 1) f, two terms of
    # size alpha |f|, was 5.8, 11.2 and 29.2 ulp off at these three points
    inst = make_synthetic(n, n, c, seed)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    res = solve_spg(prob, cfg, SolverConfig(), *inst.lifted.default_start())
    assert res.converged
    ev = evaluate(prob, cfg, res.x, res.y, need_grad=False)

    def dot(u, v):  # exact, from the float64 entries
        return sum(Fraction(a) * Fraction(b) for a, b in zip(u.tolist(), v.tolist()))

    eta, alpha = Fraction(cfg.eta), Fraction(cfg.alpha)  # r2 is zero
    gap = eta * dot(ev.grad_y_f, ev.R) - eta * dot(ev.R, ev.R) / 2
    exact = Fraction(ev.f_val) + alpha * gap
    assert abs(Fraction(ev.xi) - exact) <= Fraction(float(np.spacing(abs(float(exact)))))


# ---------------------------------------------------------------------------
# independent reimplementation with nonzero regularizers


def _bilinear_oracle(lipschitz=2.0) -> FunctionOracle:
    # f = <x, y> - |y|^2/2; each callable takes a point or a stack
    return FunctionOracle(
        eval=lambda x, y: np.vecdot(x, y) - 0.5 * np.vecdot(y, y),
        grad_x=lambda x, y: np.asarray(y, float).copy(),
        grad_y=lambda x, y: np.asarray(x, float) - np.asarray(y, float),
        lipschitz_grad=lipschitz,
        strong_concavity=1.0,
        hvp_yy=lambda x, y, v: -np.asarray(v, float),
        hvp_xy=lambda x, y, v: np.asarray(v, float).copy(),
    )


def _reg_problem(kappa=0.5, n=3):
    # f = <x, y> - |y|^2/2 on box x, free y, with r1 = |x|_1 (value only)
    # and r2 = kappa/2 |y|^2 (quadratic prox on the whole space)
    f = _bilinear_oracle(0.5 * (1.0 + np.sqrt(5.0)))
    X = BoxSet(-np.ones(n), np.ones(n))
    r1 = ProxRegularizer(
        eval=lambda v: np.abs(v).sum(axis=-1),
        prox=lambda zv, t: np.clip(np.sign(zv) * np.maximum(np.abs(zv) - t, 0.0), -1.0, 1.0),
        attached_set=X,
    )
    r2 = ProxRegularizer(
        eval=lambda v: 0.5 * kappa * np.vecdot(v, v),
        prox=lambda zv, t: np.asarray(zv, float) / (1.0 + t * kappa),
    )
    return MinimaxProblem(f=f, X=X, Y=WholeSpace(n), r1=r1, r2=r2), kappa


def _reference_envelope(prob, kappa, cfg, x, y):
    # direct transcription of the defining formulas
    f = float(prob.f.eval(x, y))
    gy = prob.f.grad_y(x, y)
    T = (y + cfg.eta * gy) / (1.0 + cfg.eta * kappa)
    R = (T - y) / cfg.eta
    r2T = 0.5 * kappa * float(T @ T)
    psi_val = f + cfg.eta * float(gy @ R) - r2T - 0.5 * cfg.eta * float(R @ R)
    xi_val = cfg.alpha * psi_val - (cfg.alpha - 1.0) * f
    gamma_val = (
        xi_val + float(np.abs(x).sum()) + (cfg.alpha - 1.0) * 0.5 * kappa * float(y @ y)
    )
    grad_x = prob.f.grad_x(x, y) + cfg.alpha * cfg.eta * prob.f.hvp_xy(x, y, R)
    grad_y = (
        cfg.alpha * (R + cfg.eta * prob.f.hvp_yy(x, y, R))
        - (cfg.alpha - 1.0) * prob.f.grad_y(x, y)
    )
    return T, R, psi_val, xi_val, gamma_val, grad_x, grad_y


def test_envelope_matches_reference_with_regularizers():
    prob, kappa = _reg_problem()
    cfg = EnvelopeConfig(eta=0.4, alpha=6.0)
    rng = np.random.default_rng(31)
    for _ in range(50):
        x = rng.uniform(-1, 1, size=3)
        y = rng.standard_normal(3)
        ref = _reference_envelope(prob, kappa, cfg, x, y)
        ev = evaluate(prob, cfg, x, y)
        T, R, psi_val, xi_val, gamma_val, gx, gy = ref
        assert np.allclose(ev.T, T, atol=1e-13)
        assert np.allclose(ev.R, R, atol=1e-13)
        assert ev.psi == pytest.approx(psi_val, abs=1e-12)
        assert ev.xi == pytest.approx(xi_val, abs=1e-12)
        assert ev.gamma == pytest.approx(gamma_val, abs=1e-12)
        assert np.allclose(ev.grad_x, gx, atol=1e-12)
        assert np.allclose(ev.grad_y, gy, atol=1e-12)


def test_gradient_matches_finite_differences():
    # central differences on Gamma's smooth part at interior points
    inst = make_synthetic(3, 4, 1.0, 17)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    rng = np.random.default_rng(32)

    def xi(zz, yy):
        return evaluate(prob, cfg, zz, yy, need_grad=False).xi

    for _ in range(20):
        z = rng.standard_normal(prob.dim_x)
        y = rng.standard_normal(prob.dim_y)
        ev = evaluate(prob, cfg, z, y)
        for grad, fd in zip((ev.grad_x, ev.grad_y), fd_gradient(xi, z, y)):
            rel = np.linalg.norm(grad - fd) / (1.0 + np.linalg.norm(fd))
            assert rel <= 1e-6


def test_sandwich_inequalities():
    # psi >= f - r2(y) + (eta/2)|R|^2 and
    # f(x, T) - r2(T) >= psi + eta (1 - eta L)/2 |R|^2 for eta < 1/L
    inst = make_synthetic(4, 4, 1.0, 23)
    prob = inst.lifted.problem
    L = prob.lipschitz
    cfg = EnvelopeConfig(eta=0.5 / L, alpha=EnvelopeConfig.threshold(0.5 / L, 1.0))
    rng = np.random.default_rng(33)
    for _ in range(200):
        z = 2.0 * rng.standard_normal(prob.dim_x)
        y = 2.0 * rng.standard_normal(prob.dim_y)
        ev = evaluate(prob, cfg, z, y, need_grad=False)
        r2y = prob.r2.value(y)
        r2T = prob.r2.value(ev.T)
        rr = float(ev.R @ ev.R)
        lower = ev.f_val - r2y + 0.5 * cfg.eta * rr
        assert ev.psi - lower >= -1e-10
        upper_gap = (
            float(prob.f.eval(z, ev.T)) - r2T
            - ev.psi
            - 0.5 * cfg.eta * (1.0 - cfg.eta * L) * rr
        )
        assert upper_gap >= -1e-10


def test_near_kink_flag_on_box_y():
    prob = MinimaxProblem(f=_bilinear_oracle(), X=WholeSpace(1), Y=BoxSet([-1.0], [1.0]))
    cfg = EnvelopeConfig(eta=0.5, alpha=4.0)
    # large x drives T onto the box boundary
    ev = evaluate(prob, cfg, np.array([50.0]), np.array([0.5]))
    assert ev.T.tolist() == [1.0]
    assert near_kink(prob, ev)
    ev_in = evaluate(prob, cfg, np.array([0.6]), np.array([0.5]))
    assert not near_kink(prob, ev_in)


def test_nonfinite_oracle_raises():
    # each callable takes a point or a stack, with one inf value per row
    f = FunctionOracle(
        eval=lambda x, y: np.full(np.shape(x)[:-1], np.inf),
        grad_x=lambda x, y: np.zeros_like(x),
        grad_y=lambda x, y: np.zeros_like(y),
        lipschitz_grad=1.0,
        strong_concavity=1.0,
        hvp_yy=lambda x, y, v: np.zeros_like(v),
        hvp_xy=lambda x, y, v: np.zeros_like(x),
    )
    prob = MinimaxProblem(f=f, X=WholeSpace(1), Y=WholeSpace(1))
    cfg = EnvelopeConfig(eta=1.0, alpha=2.0)
    with pytest.raises(NonFiniteValue):
        evaluate(prob, cfg, [0.0], [0.0])


# ---------------------------------------------------------------------------
# stacks of points


def _stack_case(name):
    if name == "lifted":
        return make_synthetic(4, 3, 1.0, 2).lifted.problem
    if name == "regularized":  # fused r1 prox on a box, r2 prox on the whole space
        return _reg_problem()[0]
    return MinimaxProblem(f=_bilinear_oracle(), X=WholeSpace(3), Y=BoxSet(-np.ones(3), np.ones(3)))


@pytest.mark.parametrize("name", ["lifted", "regularized", "box_y"])
def test_stacked_evaluation_matches_each_row(name):
    prob = _stack_case(name)
    cfg = EnvelopeConfig.for_problem(prob)
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((5, prob.dim_x))
    ys = rng.standard_normal((5, prob.dim_y))
    if name != "lifted":
        ys[1] = xs[1]  # an inner maximizer: R = 0, whose products are zeros
        xs[2] = 50.0  # T on the box boundary when Y is a box
    xs[3], ys[3] = 1e300, 1e300  # f overflows: the row is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        stack = evaluate(prob, cfg, xs, ys)
    assert stack.finite.tolist() == [True, True, True, False, True]
    with pytest.raises(NonFiniteValue), np.errstate(over="ignore", invalid="ignore"):
        evaluate(prob, cfg, xs[3], ys[3])
    keep = stack.finite
    stack = eval_rows(stack, keep)
    refs = grad_norm(stack)
    residuals = prox_grad_residual(prob, cfg, stack, refs)
    singles = [evaluate(prob, cfg, x, y) for x, y in zip(xs[keep], ys[keep])]
    for i, ev in enumerate(singles):
        for field in ("x", "y", "f_val", "grad_y_f", "T", "R", "psi", "xi", "gamma",
                      "grad_x_f", "grad_x", "grad_y"):
            assert np.array_equal(getattr(stack, field)[i], getattr(ev, field)), field
        assert refs[i] == grad_norm(ev)
        assert residuals[i] == prox_grad_residual(prob, cfg, ev, grad_norm(ev))


def test_a_bundle_without_one_row_per_point_is_named():
    # a first_order bundle that reads one point only: its value is one float.
    # The envelope passes a stack to it unchecked; the probe, which building
    # the problem makes, names it
    f = _bilinear_oracle()
    f = replace(f, first_order=lambda x, y: (float(np.sum(x * y)), f.grad_x(x, y), f.grad_y(x, y)))
    with pytest.raises(DimensionError, match=r"FunctionOracle.first_order returned shapes "
                                             r"\(\), \(\) and \(\) for a 2-row stack"):
        MinimaxProblem(f=f, X=WholeSpace(3), Y=WholeSpace(3))


@pytest.mark.parametrize("oracle", ["eval", "first_order"])
def test_a_value_of_one_entry_at_one_point_is_named(oracle):
    # float() of a size-1 array would raise a TypeError that names no
    # callable; the probe, which building the problem makes, names it
    f = _bilinear_oracle()
    if oracle == "eval":
        f = replace(f, eval=lambda x, y: np.sum(x * y, keepdims=True))
    else:
        f = replace(f, first_order=lambda x, y: (
            np.sum(x * y, keepdims=True), f.grad_x(x, y), f.grad_y(x, y)))
    with pytest.raises(DimensionError, match=rf"FunctionOracle.{oracle} returned shapes "
                                             r"\(1, 1\), \(1,\) and \(1,\) for a 2-row stack"):
        MinimaxProblem(f=f, X=WholeSpace(3), Y=WholeSpace(3))


# ---------------------------------------------------------------------------
# non-finite oracle values

# the call that raises at one point, and the quantity its message names
_NON_FINITE = {
    "eval": ("evaluate", "f value"),
    "grad_y": ("evaluate", "grad_y f"),
    "grad_x": ("with_gradients", "grad_x f"),
    "hvp_xy": ("with_gradients", "grad_x Xi"),
    "hvp_yy": ("with_gradients", "grad_y Xi"),
}
_POISON_X = 0.75  # the oracle goes non-finite where x[0] is this


def _poisoned_problem(oracle: str, bad: float, box_y: bool) -> MinimaxProblem:
    """The bilinear problem whose ``oracle`` gives ``bad`` (in its first
    entry) at the points with ``x[0] == _POISON_X``."""
    f = _bilinear_oracle()
    clean = getattr(f, oracle)

    def poisoned(x, y, *rest):
        out = np.array(clean(x, y, *rest), dtype=np.float64)
        hit = x[..., 0] == _POISON_X
        if oracle == "eval":
            return np.where(hit, bad, out)
        out[..., 0] = np.where(hit, bad, out[..., 0])
        return out

    Y = BoxSet(-np.ones(3), np.ones(3)) if box_y else WholeSpace(3)
    return MinimaxProblem(f=replace(f, **{oracle: poisoned}), X=WholeSpace(3), Y=Y)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize(
    "oracle, box_y",
    [(name, False) for name in _NON_FINITE] + [("grad_y", True)],
    ids=lambda v: {True: "box_y", False: "free_y"}.get(v, v) if isinstance(v, bool) else v,
)
def test_non_finite_oracle_value_is_caught(oracle, box_y, bad):
    prob = _poisoned_problem(oracle, bad, box_y)
    cfg = EnvelopeConfig(eta=0.5, alpha=4.0)
    rng = np.random.default_rng(9)
    xs = rng.uniform(-0.5, 0.5, (4, 3))
    ys = rng.uniform(-0.5, 0.5, (4, 3))
    xs[2, 0] = _POISON_X
    where, what = _NON_FINITE[oracle]
    with np.errstate(invalid="ignore"):
        # at one point: the same call raises, naming the quantity
        if where == "evaluate":
            with pytest.raises(NonFiniteValue, match=f"non-finite {what}:"):
                evaluate(prob, cfg, xs[2], ys[2], need_grad=False)
        else:
            value = evaluate(prob, cfg, xs[2], ys[2], need_grad=False)
            with pytest.raises(NonFiniteValue, match=f"non-finite {what}:"):
                with_gradients(prob, cfg, value)
            assert value.grad_x is None and value.grad_y is None  # nothing written
        # in a stack: only that row clears, in the record given
        stack = evaluate(prob, cfg, xs, ys, need_grad=where == "evaluate")
        assert stack.finite.tolist() == [True, True, where != "evaluate", True]
        if where != "evaluate":
            assert with_gradients(prob, cfg, stack) is stack
            assert stack.finite.tolist() == [True, True, False, True]
    if oracle == "grad_y":
        # nan even where a box Y would clip an infinite ascent step
        assert np.isnan(stack.T[2]).all() and np.isnan(stack.R[2]).all()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("box_y", [False, True], ids=["free_y", "box_y"])
def test_stacked_prox_step_clears_only_the_poisoned_row(box_y, bad):
    prob = _poisoned_problem("grad_y", bad, box_y)
    cfg = EnvelopeConfig(eta=0.5, alpha=4.0)
    rng = np.random.default_rng(9)
    xs = rng.uniform(-0.5, 0.5, (4, 3))
    ys = rng.uniform(-0.5, 0.5, (4, 3))
    xs[2, 0] = _POISON_X
    with np.errstate(invalid="ignore"):
        T, R = prox_step(prob, cfg, xs, ys)
        # nan even where a box Y would clip an infinite ascent step back to
        # finite, at one point as in the stack's row
        for i in range(4):
            one = prox_step(prob, cfg, xs[i], ys[i])
            assert np.array_equal(T[i], one[0], equal_nan=True)
            assert np.array_equal(R[i], one[1], equal_nan=True)
    assert np.isnan(T[2]).all() and np.isnan(R[2]).all()
    assert np.isfinite(np.delete(T, 2, axis=0)).all()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("box_y", [False, True], ids=["free_y", "box_y"])
def test_evaluate_and_prox_step_give_the_same_maximizer_bytes(box_y, bad):
    prob = _poisoned_problem("grad_y", bad, box_y)
    cfg = EnvelopeConfig(eta=0.5, alpha=4.0)
    rng = np.random.default_rng(9)
    xs = rng.uniform(-0.5, 0.5, (4, 3))
    ys = rng.uniform(-0.5, 0.5, (4, 3))
    xs[2, 0] = _POISON_X
    with np.errstate(invalid="ignore"):
        T, R = prox_step(prob, cfg, xs, ys)
        for grad in (False, True):
            ev = evaluate(prob, cfg, xs, ys, need_grad=grad)
            assert ev.T.tobytes() == T.tobytes() and ev.R.tobytes() == R.tobytes()
    assert np.isnan(T[2]).all() and np.isnan(R[2]).all()
    # each finite row alone (the poisoned one raises at one point)
    for i in (0, 1, 3):
        ev, (T1, R1) = evaluate(prob, cfg, xs[i], ys[i]), prox_step(prob, cfg, xs[i], ys[i])
        assert ev.T.tobytes() == T1.tobytes() and ev.R.tobytes() == R1.tobytes()


@pytest.mark.parametrize("stacked", [False, True], ids=["point", "stack"])
def test_gradients_extend_the_evaluation_they_are_given(monkeypatch, stacked):
    prob = _stack_case("lifted")
    cfg = EnvelopeConfig.for_problem(prob)
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((3, prob.dim_x)), rng.standard_normal((3, prob.dim_y))
    if not stacked:
        x, y = x[0], y[0]
    value = evaluate(prob, cfg, x, y, need_grad=False)
    fields = {name: getattr(value, name) for name in ("x", "T", "R", "gamma", "grad_x_f")}
    done = with_gradients(prob, cfg, value)
    assert done is value
    assert all(getattr(done, name) is obj for name, obj in fields.items())
    full = evaluate(prob, cfg, x, y)
    for name in ("grad_x", "grad_y"):
        assert getattr(done, name).tobytes() == getattr(full, name).tobytes()
    # an evaluation with gradients builds one record
    built = []
    record = envelope.EnvelopeEval
    monkeypatch.setattr(envelope, "EnvelopeEval", lambda **kw: built.append(1) or record(**kw))
    evaluate(prob, cfg, x, y, need_grad=True)
    assert len(built) == 1


def test_one_finiteness_check_per_evaluation(monkeypatch):
    checks = []
    real = envelope._finite_rows
    monkeypatch.setattr(
        envelope, "_finite_rows", lambda *args: checks.append(1) or real(*args)
    )
    prob = _stack_case("lifted")
    cfg = EnvelopeConfig.for_problem(prob)
    rng = np.random.default_rng(4)
    xs = rng.standard_normal((3, prob.dim_x))
    ys = rng.standard_normal((3, prob.dim_y))
    for x, y in ((xs[0], ys[0]), (xs, ys)):
        checks.clear()
        value = evaluate(prob, cfg, x, y, need_grad=False)
        assert len(checks) == 1
        with_gradients(prob, cfg, value)
        assert len(checks) == 2
        evaluate(prob, cfg, x, y)
        assert len(checks) == 4
