"""Partial forward-backward envelope: values, gradients, invariants.

One instance is checked against fully hand-computed numbers (frozen
below with their derivation); general cases are checked against an
independent in-test reimplementation of the envelope formulas and
against central finite differences.
"""

from dataclasses import replace

import numpy as np
import pytest

from pfbe import envelope
from pfbe.core import FunctionOracle, MinimaxProblem, NonFiniteValue, ProxRegularizer
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
        with pytest.raises(ValueError, match="alpha must be finite"):
            EnvelopeConfig(eta=0.5, alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be finite"):
            EnvelopeConfig.for_problem(prob, alpha=alpha)
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
    assert not ev.used_fd_hvp
    assert not near_kink(prob, ev)
    assert np.linalg.norm(ev.R) == pytest.approx(0.15, abs=1e-15)


def test_wrappers_match_evaluate():
    prob, cfg, z, y = _pinned_case()
    ev = evaluate(prob, cfg, z, y)
    T, R = prox_step(prob, cfg, z, y)
    assert np.array_equal(T, ev.T) and np.array_equal(R, ev.R)
    # the value evaluation carries no gradients; completing it gives the
    # gradient-bearing evaluation bit for bit
    value = evaluate(prob, cfg, z, y, need_grad=False)
    assert value.grad_x_f is None and value.grad_x is None and value.grad_y is None
    assert value.psi == ev.psi and value.gamma == ev.gamma and value.xi == ev.xi
    done = with_gradients(prob, cfg, value)
    for name in ("grad_x_f", "grad_x", "grad_y"):
        assert np.array_equal(getattr(done, name), getattr(ev, name))
    # grad_z f = (1 + y - lam, -(x + y - 1)) = (0.85, 0.4) at the pinned point
    assert np.allclose(ev.grad_x_f, [0.85, 0.4], atol=1e-15)


# ---------------------------------------------------------------------------
# independent reimplementation with nonzero regularizers


def _reg_problem(kappa=0.5, n=3):
    # f = <x, y> - |y|^2/2 on box x, free y, with r1 = |x|_1 (value only)
    # and r2 = kappa/2 |y|^2 (quadratic prox on the whole space)
    f = FunctionOracle(
        eval=lambda x, y: float(x @ y - 0.5 * y @ y),
        grad_x=lambda x, y: np.asarray(y, float).copy(),
        grad_y=lambda x, y: np.asarray(x, float) - np.asarray(y, float),
        lipschitz_grad=0.5 * (1.0 + np.sqrt(5.0)),
        strong_concavity=1.0,
        hvp_yy=lambda x, y, v: -np.asarray(v, float),
        hvp_xy=lambda x, y, v: np.asarray(v, float).copy(),
    )
    X = BoxSet(-np.ones(n), np.ones(n))
    r1 = ProxRegularizer(
        eval=lambda v: float(np.abs(v).sum()),
        prox=lambda zv, t: np.clip(np.sign(zv) * np.maximum(np.abs(zv) - t, 0.0), -1.0, 1.0),
        attached_set=X,
    )
    r2 = ProxRegularizer(
        eval=lambda v: float(0.5 * kappa * (v @ v)),
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
    h = 1e-6
    for _ in range(20):
        z = rng.standard_normal(prob.dim_x)
        y = rng.standard_normal(prob.dim_y)
        ev = evaluate(prob, cfg, z, y)
        for gi, block, point in ((0, "x", z), (1, "y", y)):
            grad = ev.grad_x if block == "x" else ev.grad_y
            fd = np.zeros_like(point)
            for i in range(point.shape[0]):
                e = np.zeros_like(point)
                e[i] = h
                if block == "x":
                    hi = evaluate(prob, cfg, z + e, y, need_grad=False).xi
                    lo = evaluate(prob, cfg, z - e, y, need_grad=False).xi
                else:
                    hi = evaluate(prob, cfg, z, y + e, need_grad=False).xi
                    lo = evaluate(prob, cfg, z, y - e, need_grad=False).xi
                fd[i] = (hi - lo) / (2.0 * h)
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


def test_fd_fallback_flag():
    # an oracle without Hessian products: gradients still computed, flagged
    f = FunctionOracle(
        eval=lambda x, y: float(x @ y - 0.5 * y @ y),
        grad_x=lambda x, y: np.asarray(y, float).copy(),
        grad_y=lambda x, y: np.asarray(x, float) - np.asarray(y, float),
        lipschitz_grad=2.0,
        strong_concavity=1.0,
    )
    prob = MinimaxProblem(f=f, X=WholeSpace(2), Y=WholeSpace(2))
    cfg = EnvelopeConfig(eta=0.25, alpha=8.0)
    x = np.array([0.3, -0.2])
    y = np.array([0.1, 0.4])
    ev = evaluate(prob, cfg, x, y)
    assert ev.used_fd_hvp
    # exact values from the bilinear structure: Hxy = I, Hyy = -I
    R = ev.R
    exact_gx = y + cfg.alpha * cfg.eta * R
    exact_gy = cfg.alpha * (R - cfg.eta * R) - (cfg.alpha - 1.0) * (x - y)
    assert np.allclose(ev.grad_x, exact_gx, atol=1e-5)
    assert np.allclose(ev.grad_y, exact_gy, atol=1e-5)
    # at the inner maximizer R = 0, so no Hessian products are needed
    ev0 = evaluate(prob, cfg, x, x.copy())
    assert np.linalg.norm(ev0.R) == 0.0
    assert not ev0.used_fd_hvp
    assert np.allclose(ev0.grad_y, np.zeros(2), atol=0)


def test_near_kink_flag_on_box_y():
    f = FunctionOracle(
        eval=lambda x, y: float(x @ y - 0.5 * y @ y),
        grad_x=lambda x, y: np.asarray(y, float).copy(),
        grad_y=lambda x, y: np.asarray(x, float) - np.asarray(y, float),
        lipschitz_grad=2.0,
        strong_concavity=1.0,
        hvp_yy=lambda x, y, v: -np.asarray(v, float),
        hvp_xy=lambda x, y, v: np.asarray(v, float).copy(),
    )
    prob = MinimaxProblem(f=f, X=WholeSpace(1), Y=BoxSet([-1.0], [1.0]))
    cfg = EnvelopeConfig(eta=0.5, alpha=4.0)
    # large x drives T onto the box boundary
    ev = evaluate(prob, cfg, np.array([50.0]), np.array([0.5]))
    assert ev.T.tolist() == [1.0]
    assert near_kink(prob, ev)
    ev_in = evaluate(prob, cfg, np.array([0.6]), np.array([0.5]))
    assert not near_kink(prob, ev_in)


def test_nonfinite_oracle_raises():
    f = FunctionOracle(
        eval=lambda x, y: float("inf"),
        grad_x=lambda x, y: np.zeros(1),
        grad_y=lambda x, y: np.zeros(1),
        lipschitz_grad=1.0,
        strong_concavity=1.0,
    )
    prob = MinimaxProblem(f=f, X=WholeSpace(1), Y=WholeSpace(1))
    cfg = EnvelopeConfig(eta=1.0, alpha=2.0)
    with pytest.raises(NonFiniteValue):
        evaluate(prob, cfg, [0.0], [0.0])


# ---------------------------------------------------------------------------
# stacks of points


def _bilinear_oracle(with_hvps: bool) -> FunctionOracle:
    hvps = dict(
        hvp_yy=lambda x, y, v: -np.asarray(v, float),
        hvp_xy=lambda x, y, v: np.asarray(v, float).copy(),
    )
    return FunctionOracle(
        eval=lambda x, y: float(x @ y - 0.5 * y @ y),
        grad_x=lambda x, y: np.asarray(y, float).copy(),
        grad_y=lambda x, y: np.asarray(x, float) - np.asarray(y, float),
        lipschitz_grad=2.0,
        strong_concavity=1.0,
        **(hvps if with_hvps else {}),
    )


def _stack_case(name):
    if name == "lifted":  # oracle takes stacks
        return make_synthetic(4, 3, 1.0, 2).lifted.problem
    if name == "regularized":  # fused r1 prox on a box, r2 prox on the whole space
        return _reg_problem()[0]
    if name == "fd_hvp":  # no Hessian products: finite differences row by row
        return MinimaxProblem(f=_bilinear_oracle(False), X=WholeSpace(3), Y=WholeSpace(3))
    return MinimaxProblem(f=_bilinear_oracle(True), X=WholeSpace(3), Y=BoxSet(-np.ones(3), np.ones(3)))


@pytest.mark.parametrize("name", ["lifted", "regularized", "fd_hvp", "box_y"])
def test_stacked_evaluation_matches_each_row(name):
    prob = _stack_case(name)
    cfg = EnvelopeConfig.for_problem(prob)
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((5, prob.dim_x))
    ys = rng.standard_normal((5, prob.dim_y))
    if name != "lifted":
        ys[1] = xs[1]  # an inner maximizer: R = 0, so no Hessian products
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
    assert stack.used_fd_hvp == any(ev.used_fd_hvp for ev in singles)
    for i, ev in enumerate(singles):
        for field in ("x", "y", "f_val", "grad_y_f", "T", "R", "psi", "xi", "gamma",
                      "grad_x_f", "grad_x", "grad_y"):
            assert np.array_equal(getattr(stack, field)[i], getattr(ev, field)), field
        assert refs[i] == grad_norm(ev)
        assert residuals[i] == prox_grad_residual(prob, cfg, ev, grad_norm(ev))


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
    f = _bilinear_oracle(True)
    clean = getattr(f, oracle)

    def poisoned(x, y, *rest):
        out = clean(x, y, *rest)
        if x[0] != _POISON_X:
            return out
        if oracle == "eval":
            return bad
        out = np.array(out, dtype=np.float64)
        out[0] = bad
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
        # in a stack: only that row clears
        stack = evaluate(prob, cfg, xs, ys, need_grad=where == "evaluate")
        assert stack.finite.tolist() == [True, True, where != "evaluate", True]
        if where != "evaluate":
            assert with_gradients(prob, cfg, stack).finite.tolist() == [True, True, False, True]
    if box_y and bad == np.inf:
        assert np.isfinite(stack.T[2]).all()  # the prox clipped the infinite ascent step


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("box_y", [False, True], ids=["free_y", "box_y"])
def test_stacked_prox_step_clears_only_the_poisoned_row(box_y, bad):
    prob = _poisoned_problem("grad_y", bad, box_y)
    cfg = EnvelopeConfig(eta=0.5, alpha=4.0)
    rng = np.random.default_rng(9)
    xs = rng.uniform(-0.5, 0.5, (4, 3))
    ys = rng.uniform(-0.5, 0.5, (4, 3))
    xs[2, 0] = _POISON_X
    with pytest.raises(NonFiniteValue, match="non-finite grad_y f:"):
        prox_step(prob, cfg, xs[2], ys[2])
    with np.errstate(invalid="ignore"):
        T, R = prox_step(prob, cfg, xs, ys)
    # nan even where a box Y would clip an infinite ascent step back to finite
    assert np.isnan(T[2]).all() and np.isnan(R[2]).all()
    for i in (0, 1, 3):
        one = prox_step(prob, cfg, xs[i], ys[i])
        assert np.array_equal(T[i], one[0]) and np.array_equal(R[i], one[1])


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
