"""Stationarity measures, certificates, and brute-force tabulation.

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

from pfbe.core import ConstraintOracle, CoupledProblem, DimensionError
from pfbe.diagnostics import (
    brute_force_value_function,
    certify,
    check_polar_convexity,
    eps_minimax_mm,
    feasibility_mcc,
    stationarity_gamma,
    transfer_constant,
)
from pfbe.envelope import EnvelopeConfig, evaluate, grad_norm, prox_grad_residual
from pfbe.problems import make_example1, make_synthetic, synthetic_from_data
from pfbe.sets import BoxSet, OrthantCone, WholeSpace, ZeroCone


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


# ---------------------------------------------------------------------------
# brute force tabulation


def test_brute_force_example1_exact_on_aligned_grids():
    # y* = x for this instance, so sharing one grid makes the tabulated
    # maximum land exactly on the analytic value function
    inst = make_example1()
    grid = np.linspace(1.0, 10.0, 181)
    table = brute_force_value_function(inst.coupled, x_grid=grid, y_grid=grid)
    assert table.x.shape == (181, 1)
    assert np.all(table.feasible)
    expect = inst.value_function(grid)
    assert np.max(np.abs(table.phi - expect)) <= 1e-12
    assert np.max(np.abs(table.y_star[:, 0] - grid)) == 0.0
    # y* = x touches the window edge exactly at the two grid ends
    assert table.on_window_edge[0] and table.on_window_edge[-1]
    assert not np.any(table.on_window_edge[1:-1])
    # the tabulated minimizer is the true one
    assert grid[np.argmin(table.phi)] == 10.0


def test_brute_force_requires_grid_for_unbounded_y():
    inst = make_example1()
    with pytest.raises(ValueError):
        brute_force_value_function(inst.coupled)


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
    table = brute_force_value_function(
        coupled, x_grid=np.array([0.0, 0.5, 1.0]), y_grid=np.array([0.0, 0.75])
    )
    assert table.feasible.tolist() == [True, False, False]
    assert table.phi[0] == 0.0
    assert table.phi[1] == -np.inf and table.phi[2] == -np.inf
    assert np.isnan(table.y_star[1]).all()


def test_brute_force_two_dimensional_blocks():
    # n = p = 2 concave quadratic, no active constraint: the grid argmax
    # must match an independent dense meshgrid computation
    from pfbe.core import FunctionOracle

    g = FunctionOracle(
        eval=lambda x, y: float(x @ y - y @ y),
        grad_x=lambda x, y: np.asarray(y, float).copy(),
        grad_y=lambda x, y: np.asarray(x, float) - 2.0 * np.asarray(y, float),
        lipschitz_grad=3.0,
        strong_concavity=2.0,
    )
    con = ConstraintOracle(
        dim=1,
        eval_c=lambda x, y: np.array([-1.0]),  # always satisfied
        jvp_x=lambda x, y, lam: np.zeros(2),
        jvp_y=lambda x, y, lam: np.zeros(2),
        linear_in_y=True,
    )
    coupled = CoupledProblem(
        g=g,
        c=con,
        X=BoxSet([-1.0, -1.0], [1.0, 1.0]),
        Y=BoxSet([-1.0, -1.0], [1.0, 1.0]),
        K=OrthantCone(1, sign=-1),
    )
    table = brute_force_value_function(coupled, points=11)
    assert table.x.shape == (121, 2)
    ygrid = np.linspace(-1, 1, 11)
    g1, g2 = np.meshgrid(ygrid, ygrid, indexing="ij")
    ypts = np.column_stack([g1.ravel(), g2.ravel()])
    for i in range(0, 121, 17):
        vals = ypts @ table.x[i] - np.sum(ypts**2, axis=1)
        assert table.phi[i] == pytest.approx(vals.max(), abs=1e-14)
    assert np.all(table.feasible)


def test_brute_force_dimension_limit():
    inst = make_synthetic(3, 3, 1.0, 2)
    with pytest.raises(DimensionError):
        brute_force_value_function(inst.coupled)


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
