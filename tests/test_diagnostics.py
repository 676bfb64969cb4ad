"""Stationarity measures, certificates, and the brute-force grid reference.

The pinned numbers reuse the 1-D bilinear lifted instance from the
envelope tests (eta = 1/2, alpha = 4, z = (0.5, 0.25), y = 0.1), where
grad_z Xi = (1.15, 0.1) and grad_y Xi = -0.15 by hand:

* unit-step prox residual: project z - grad onto [0,1] x [0, inf)
  -> ([0, 0.15] - z, y + 0.15 - y) -> norm sqrt(0.2825)
* reference gradient norm: sqrt(1.15^2 + 0.1^2 + 0.15^2) = sqrt(1.355)
* minimax pair at T = 0.175: grad_z f = (0.925, 0.325) projects to the
  corner (0,0) giving sqrt(0.3125) = sqrt(5)/4; grad_y f = 0.075 moves
  the free y by 0.075.
"""

import numpy as np
import pytest

from pfbe.core import ConstraintOracle, CoupledProblem
from pfbe.diagnostics import (
    certify,
    check_polar_convexity,
    eps_minimax_mm,
    feasibility_mcc,
    stationarity_gamma,
    transfer_constant,
)
from pfbe.envelope import (
    EnvelopeConfig,
    evaluate,
    grad_norm,
    minimax_residual,
    prox_grad_residual,
)
from pfbe.lagrangian import kkt_residual_mol
from pfbe.problems import make_example1, make_synthetic, synthetic_from_data
from pfbe.sets import BoxSet, OrthantCone, WholeSpace, ZeroCone
from support import grid_value_function


def _pinned():
    inst = synthetic_from_data([[1.0]], [1.0], 1.0)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig(eta=0.5, alpha=4.0, mu=1.0)
    return inst, prob, cfg, np.array([0.5, 0.25]), np.array([0.1])


# ---------------------------------------------------------------------------
# stationarity and transfer


def test_stationarity_unnormalized_frozen():
    _, prob, cfg, z, y = _pinned()
    got = stationarity_gamma(prob, cfg, z, y)
    assert got == pytest.approx(np.sqrt(0.2825), abs=1e-14)


def test_reference_norm_frozen():
    _, prob, cfg, z, y = _pinned()
    ref = grad_norm(evaluate(prob, cfg, z, y))
    assert ref == pytest.approx(np.sqrt(1.355), abs=1e-14)


def test_stationarity_normalized():
    _, prob, cfg, z, y = _pinned()
    ev = evaluate(prob, cfg, z, y)
    got = prox_grad_residual(prob, cfg, ev, grad_norm(ev))
    assert got == pytest.approx(np.sqrt(0.2825) / np.sqrt(1.355), abs=1e-14)


def test_stationarity_degenerate_reference_falls_back():
    # a reference norm below NORM_FLOOR leaves the residual unnormalized
    _, prob, cfg, z, y = _pinned()
    ev = evaluate(prob, cfg, z, y)
    got = prox_grad_residual(prob, cfg, ev, 0.0)
    assert got == pytest.approx(np.sqrt(0.2825), abs=1e-14)
    assert got == stationarity_gamma(prob, cfg, z, y)


def test_eps_minimax_frozen():
    _, prob, cfg, z, y = _pinned()
    ex, ey = eps_minimax_mm(prob, cfg, z, y)
    assert ex == pytest.approx(np.sqrt(0.3125), abs=1e-14)
    assert ey == pytest.approx(0.075, abs=1e-14)


def test_eps_minimax_zero_at_saddle():
    # (0, 0, 0) solves the 1-D instance: x = 0 minimizes x (+ coupling),
    # y = 0 maximizes, constraint slack
    _, prob, cfg, _, _ = _pinned()
    ex, ey = eps_minimax_mm(prob, cfg, np.zeros(2), np.zeros(1))
    assert ex <= 1e-14 and ey <= 1e-14


def test_transfer_constant_formula():
    inst, prob, cfg, _, _ = _pinned()
    L = prob.lipschitz
    assert transfer_constant(prob, cfg) == 1.0 + 2.0 * L + 0.5 * L
    cfg2 = EnvelopeConfig(eta=0.1, alpha=20.0, mu=1.0)
    assert transfer_constant(prob, cfg2) == 1.0 + 2.0 * L + 0.1 * L


def test_transfer_bound_holds_on_random_points():
    # eps pair <= (1 + 2L/mu + eta L) * stat, checked with a 10% margin
    inst = make_synthetic(3, 3, 1.0, 41)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    factor = transfer_constant(prob, cfg)
    rng = np.random.default_rng(42)
    for _ in range(200):
        z = rng.uniform(-1, 2, size=prob.dim_x)
        z[3:] = np.abs(z[3:])  # multipliers in the polar cone
        y = rng.standard_normal(prob.dim_y)
        stat = stationarity_gamma(prob, cfg, z, y)
        ex, ey = eps_minimax_mm(prob, cfg, z, y)
        assert max(ex, ey) <= 1.1 * factor * stat + 1e-15


def test_feasibility_values():
    inst = make_example1()
    assert feasibility_mcc(inst.coupled, [2.0], [3.0]) == pytest.approx(1.0, abs=1e-15)
    assert feasibility_mcc(inst.coupled, [2.0], [1.0]) == 0.0
    # distance accounts for every violated component
    assert feasibility_mcc(inst.coupled, [1.0], [2.0]) == pytest.approx(
        np.sqrt(2.0), abs=1e-15
    )


# ---------------------------------------------------------------------------
# certificates


def test_certificate_at_spurious_point():
    inst = make_example1()
    cfg = EnvelopeConfig.for_problem(inst.lifted.problem)
    x, lam, y = inst.spurious_point()
    cert = certify(inst.lifted, cfg, x, lam, y)
    assert cert.stat_gamma == 0.0
    assert cert.feasibility == 0.0
    assert cert.complementarity == 0.0
    assert cert.passed and cert.transfer_ok
    assert cert.multiplier_ratio == pytest.approx(np.sqrt(5.0) / 6.0, abs=1e-12)


def test_certificate_fails_off_solution():
    inst = make_example1()
    cfg = EnvelopeConfig.for_problem(inst.lifted.problem)
    cert = certify(inst.lifted, cfg, [5.0], [1.0, 1.0], [2.0])
    assert not cert.passed
    assert cert.stat_gamma > 1e-3


@pytest.mark.parametrize("c", [None, 0.0, 1.0])
def test_kkt_and_certify_take_the_one_minimax_residual(c):
    # on example 1 (c None) and on synthetic instances, multipliers active
    inst = make_example1() if c is None else make_synthetic(10, 10, c, 3)
    lifted, base = inst.lifted, inst.coupled
    prob = lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    rng = np.random.default_rng(8)
    for _ in range(40):
        x = rng.uniform(base.X.lo, base.X.hi)
        lam = rng.exponential(2.0, lifted.m) * (rng.random(lifted.m) < 0.6)
        y = 3.0 * rng.standard_normal(base.dim_y)
        z = lifted.join(x, lam)
        # the lifted residual's blocks, which the base oracles reproduce:
        # the lifted gradient is (grad_x g - grad_x c . lam, -c) in (x, lam)
        rz, ry = minimax_residual(prob, z, y)
        rx, rlam = lifted.split(rz)
        kkt = kkt_residual_mol(lifted, x, lam, y)
        assert kkt == (np.linalg.norm(rx), np.linalg.norm(ry), np.linalg.norm(rlam))
        gx = base.g.grad_x(x, y) - base.c.jvp_x(x, y, lam)
        gy = base.g.grad_y(x, y) - base.c.jvp_y(x, y, lam)
        assert np.array_equal(rx, base.X.project(x - gx) - x)
        assert np.array_equal(ry, base.Y.project(y + gy) - y)
        assert np.array_equal(rlam, lifted.polar_cone.project(lam + base.c.eval_c(x, y)) - lam)
        # one evaluation gives certify the stat and the pair at its maximizer T
        cert = certify(lifted, cfg, x, lam, y)
        assert cert.stat_gamma == stationarity_gamma(prob, cfg, z, y)
        assert (cert.eps_x, cert.eps_y) == eps_minimax_mm(prob, cfg, z, y)


# ---------------------------------------------------------------------------
# brute force tabulation


def test_brute_force_example1_exact_on_aligned_grids():
    # y* = x for this instance, so sharing one grid makes the tabulated
    # maximum land exactly on the analytic value function -x^2/2
    inst = make_example1()
    grid = np.linspace(1.0, 10.0, 181)
    phi, y_star = grid_value_function(inst.coupled, grid, grid)
    assert np.max(np.abs(phi - (-0.5 * grid**2))) <= 1e-12
    assert np.max(np.abs(y_star - grid)) == 0.0
    # the tabulated minimizer is the true one
    assert grid[np.argmin(phi)] == 10.0


def test_brute_force_infeasible_slices():
    # equality constraint y = x with a y-grid that misses most x values
    from pfbe.core import FunctionOracle

    g = FunctionOracle(
        eval=lambda x, y: float(-(y[0] ** 2)),
        grad_x=lambda x, y: np.zeros(1),
        grad_y=lambda x, y: np.array([-2.0 * y[0]]),
        lipschitz_grad=2.0,
        strong_concavity=2.0,
    )
    con = ConstraintOracle(
        dim=1,
        eval_c=lambda x, y: np.array([y[0] - x[0]]),
        jvp_x=lambda x, y, lam: np.array([-lam[0]]),
        jvp_y=lambda x, y, lam: np.array([lam[0]]),
        linear_in_y=True,
    )
    coupled = CoupledProblem(
        g=g, c=con, X=BoxSet([0.0], [1.0]), Y=BoxSet([0.0], [1.0]), K=ZeroCone(1)
    )
    phi, y_star = grid_value_function(
        coupled, np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.75])
    )
    assert phi.tolist() == [0.0, -np.inf, -np.inf]
    assert y_star[0] == 0.0 and np.isnan(y_star[1:]).all()


# ---------------------------------------------------------------------------
# polar convexity probe


def test_polar_convexity_linear_constraint():
    inst = make_example1()
    rng = np.random.default_rng(51)
    samples = [
        (
            rng.uniform(1, 10, size=1),
            rng.uniform(0, 5, size=2),
            rng.standard_normal(1),
            rng.standard_normal(1),
        )
        for _ in range(100)
    ]
    assert check_polar_convexity(inst.coupled, samples)


def test_polar_convexity_detects_concave_constraint():
    from pfbe.core import FunctionOracle

    g = FunctionOracle(
        eval=lambda x, y: float(-(y[0] ** 2)),
        grad_x=lambda x, y: np.zeros(1),
        grad_y=lambda x, y: np.array([-2.0 * y[0]]),
        lipschitz_grad=2.0,
        strong_concavity=2.0,
    )
    con = ConstraintOracle(
        dim=1,
        eval_c=lambda x, y: np.array([-(y[0] ** 2)]),  # concave in y
        jvp_x=lambda x, y, lam: np.zeros(1),
        jvp_y=lambda x, y, lam: np.array([-2.0 * y[0] * lam[0]]),
    )
    coupled = CoupledProblem(
        g=g, c=con, X=BoxSet([0.0], [1.0]), Y=WholeSpace(1), K=OrthantCone(1, sign=-1)
    )
    samples = [([0.5], [1.0], [-1.0], [1.0])]
    assert not check_polar_convexity(coupled, samples)
