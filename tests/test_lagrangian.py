"""Multiplier lifting: lifted oracles, first-order residuals, duality.

The lifted saddle function is L(x, lam, y) = g(x, y) - <lam, c(x, y)>
over (x, lam) in X x polar(K) versus y in Y. Tests compare the built
closures against direct evaluations of the base oracles, hand-computed
residuals, and a closed-form strong-duality calculation on the 1-D
bilinear instance.
"""

import numpy as np
import pytest

from pfbe.core import (
    ConstraintOracle,
    CoupledProblem,
    FunctionOracle,
    PreconditionViolation,
    ProxRegularizer,
    fd_hvp_xy,
    fd_hvp_yy,
)
from pfbe.diagnostics import feasibility_mcc, stationarity_gamma, transfer_constant
from pfbe.envelope import EnvelopeConfig, evaluate
from pfbe.lagrangian import kkt_residual_mol, lift, multiplier_bound_monitor
from pfbe.problems import make_example1, make_synthetic, synthetic_from_data
from pfbe.sets import BallSet, BoxSet, OrthantCone, ProductSet, WholeSpace, ZeroCone
from pfbe.solvers import SolverConfig, select_gda_step, solve_gda_baseline, solve_spg
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
    base = inst.coupled
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
    base = inst.coupled
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


def test_lifted_hvp_against_finite_differences():
    for inst in (make_synthetic(3, 4, 1.0, 14), make_example1()):
        lifted = inst.lifted
        f = lifted.problem.f
        assert f.hvp_yy is not None and f.hvp_xy is not None
        rng = np.random.default_rng(63)
        dim_z = lifted.problem.dim_x
        dim_y = lifted.problem.dim_y
        for _ in range(20):
            z = rng.standard_normal(dim_z)
            y = rng.standard_normal(dim_y)
            v = rng.standard_normal(dim_y)
            exact_yy = f.hvp_yy(z, y, v)
            exact_xy = f.hvp_xy(z, y, v)
            got_yy = fd_hvp_yy(f, z, y, v)
            got_xy = fd_hvp_xy(f, z, y, v)
            assert np.linalg.norm(got_yy - exact_yy) <= 1e-4 * (1 + np.linalg.norm(exact_yy))
            assert np.linalg.norm(got_xy - exact_xy) <= 1e-4 * (1 + np.linalg.norm(exact_xy))


def test_lift_structure():
    inst = make_synthetic(2, 5, 1.0, 4)
    lifted = inst.lifted
    assert lifted.n == 2 and lifted.m == 2
    assert lifted.problem.dim_x == 4
    assert lifted.problem.dim_y == 5
    assert isinstance(lifted.polar_cone, OrthantCone)
    assert lifted.polar_cone.sign == 1  # polar of the nonpositive orthant
    assert lifted.problem.f.strong_concavity == 1.0


def test_lift_of_a_box_problem_is_one_box():
    # X a box and polar(K) an orthant: X x polar(K) is one box, whose clip
    # has the bits of the blockwise projection, nan and signed zeros included
    rng = np.random.default_rng(64)
    values = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, -2.0, 0.5, 1.0, 12.0, 5e-324])
    for inst in (make_synthetic(4, 3, 1.0, 2), make_synthetic(3, 5, 0.0, 3), make_example1()):
        lifted, coupled = inst.lifted, inst.coupled
        X = lifted.problem.X
        assert type(X) is BoxSet
        blockwise = ProductSet([coupled.X, coupled.K.polar()])
        for shape in ((X.dim,), (9, X.dim)):
            for z in (rng.choice(values, shape), 3.0 * rng.standard_normal(shape)):
                assert X.project(z).tobytes() == blockwise.project(z).tobytes()


def test_lift_keeps_a_product_when_a_part_is_not_a_box():
    base = make_example1().coupled
    ball = BallSet([5.0], 4.0)
    for X, K in ((ball, base.K), (base.X, ZeroCone(2)), (base.X, WholeSpace(2))):
        custom = CoupledProblem(g=base.g, c=base.c, X=X, Y=base.Y, K=K)
        lifted = lift(custom, lipschitz_grad=5000.0)
        assert type(lifted.problem.X) is ProductSet
        x_part, polar_part = lifted.problem.X.parts
        assert x_part is X and repr(polar_part) == repr(lifted.polar_cone) == repr(K.polar())


def test_lifted_r1_prox_blockwise():
    # a fused box prox on x must compose with the polar projection on lam
    box = BoxSet([0.0], [1.0])

    def fused(zv, t):
        return np.clip(np.sign(zv) * np.maximum(np.abs(zv) - t, 0.0), 0.0, 1.0)

    reg = ProxRegularizer(eval=lambda v: float(np.abs(v).sum()), prox=fused, attached_set=box)
    base = make_example1().coupled
    custom = CoupledProblem(
        g=FunctionOracle(
            eval=lambda x, y: float(-0.5 * (y[0] - x[0]) ** 2),
            grad_x=lambda x, y: np.array([y[0] - x[0]]),
            grad_y=lambda x, y: np.array([-(y[0] - x[0])]),
            lipschitz_grad=2.0,
            strong_concavity=1.0,
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
    # with c identically zero, the multiplier block of the gradient vanishes
    con = ConstraintOracle(
        dim=1,
        eval_c=lambda x, y: np.zeros(1),
        jvp_x=lambda x, y, lam: np.zeros(1),
        jvp_y=lambda x, y, lam: np.zeros(1),
        linear_in_y=True,
    )
    base = make_example1().coupled
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


def test_lift_leaves_an_inexact_mixed_hvp_to_the_envelope():
    # g = x y - y^2/2 and c = y^3/3 - x <= 0: nonlinear in y, with the
    # hvp_*_lam products but no dc_y, so no exact multiplier block of hvp_xy
    g = FunctionOracle(
        eval=lambda x, y: float(x[0] * y[0] - 0.5 * y[0] ** 2),
        grad_x=lambda x, y: np.array([y[0]]),
        grad_y=lambda x, y: np.array([x[0] - y[0]]),
        lipschitz_grad=2.0,
        strong_concavity=1.0,
        hvp_yy=lambda x, y, v: -np.asarray(v, dtype=float),
        hvp_xy=lambda x, y, v: np.asarray(v, dtype=float),
    )
    con = ConstraintOracle(
        dim=1,
        eval_c=lambda x, y: np.array([y[0] ** 3 / 3.0 - x[0]]),
        jvp_x=lambda x, y, lam: np.array([-lam[0]]),
        jvp_y=lambda x, y, lam: np.array([lam[0] * y[0] ** 2]),
        hvp_xy_lam=lambda x, y, lam, v: np.zeros(1),
        hvp_yy_lam=lambda x, y, lam, v: np.array([2.0 * lam[0] * y[0] * v[0]]),
    )
    coupled = CoupledProblem(
        g=g, c=con, X=WholeSpace(1), Y=WholeSpace(1), K=OrthantCone(1, sign=-1)
    )
    prob = lift(coupled, lipschitz_grad=10.0).problem
    cfg = EnvelopeConfig(eta=0.5, alpha=4.0)
    z, y = np.array([0.5, 0.3]), np.array([0.7])
    ev = evaluate(prob, cfg, z, y)
    h = 1e-6
    fd = [
        (evaluate(prob, cfg, z + e, y, need_grad=False).xi
         - evaluate(prob, cfg, z - e, y, need_grad=False).xi) / (2.0 * h)
        for e in h * np.eye(2)
    ]
    assert np.allclose(ev.grad_x, fd, rtol=1e-6, atol=1e-6)
    assert prob.f.hvp_xy is None
    assert prob.f.hvp_yy is not None
    assert ev.used_fd_hvp


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
    base = bounded_y.coupled
    custom = CoupledProblem(
        g=base.g, c=base.c, X=base.X, Y=BoxSet([-1.0], [1.0]), K=base.K
    )
    lifted = lift(custom, lipschitz_grad=5000.0)
    with pytest.raises(PreconditionViolation):
        kkt_residual_mol(lifted, [2.0], [1.0, 0.0], [5.0])


def test_kkt_preconditions_reject_nan():
    # a nan multiplier or y is in neither the polar cone nor Y, even where
    # the projection keeps the nan (a box clip) or maps it to 0 (the origin)
    base = make_example1().coupled
    for K in (base.K, WholeSpace(2)):
        for Y in (base.Y, BoxSet([-1.0], [1.0])):
            lifted = lift(CoupledProblem(g=base.g, c=base.c, X=base.X, Y=Y, K=K), 5000.0)
            lam = lifted.polar_cone.project(np.zeros(2))
            with pytest.raises(PreconditionViolation, match="polar cone"):
                kkt_residual_mol(lifted, [2.0], [np.nan, 0.0], [0.5])
            with pytest.raises(PreconditionViolation, match="outside Y"):
                kkt_residual_mol(lifted, [2.0], lam, [np.nan])
            assert np.isfinite(kkt_residual_mol(lifted, [2.0], lam, [0.5]).max)


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


def _solve_active(solver, prob, cfg, z0, y0):
    """SPG, or GDA at the step ``pfbe run`` tunes with its default grid and
    pilot budget."""
    if solver == "spg":
        return solve_spg(prob, cfg, SolverConfig(), z0, y0)
    step, _ = select_gda_step(prob, cfg, SolverConfig(), z0, y0, pilot_iters=1000)
    return solve_gda_baseline(prob, cfg, SolverConfig(eta_x=step, eta_y=step), z0, y0)


@pytest.mark.parametrize("solver, seed, c", [
    # the SPG rows carry no solver in their ids
    pytest.param(solver, seed, c, id=f"{seed}-{c}" + ("" if solver == "spg" else "-gda"))
    for solver in ("spg", "gda") for c in (0.0, -0.5) for seed in (1, 2, 3)
])
def test_spg_solution_matches_the_lift_free_reference(solver, seed, c):
    # at c <= 0 the coupled constraint binds, so some multipliers are
    # active and the lifted box clips the others at 0; the returned point is
    # checked against the reference by the criterion-3 bound
    # transfer_constant * raw stat * 1.1, which holds at any returned point
    inst = make_synthetic(10, 10, c, seed)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    res = _solve_active(solver, prob, cfg, *inst.default_start())
    x, lam = inst.lifted.split(res.x)
    raw = stationarity_gamma(prob, cfg, res.x, res.y)
    bound = transfer_constant(prob, cfg) * raw * 1.1
    residual, y_star, lam_star = synthetic_reference(inst, x)
    errors = {
        "residual": residual,
        "lam": float(np.linalg.norm(lam - lam_star)),
        "y": float(np.linalg.norm(res.y - y_star)),
    }
    for what, err in errors.items():
        assert err <= bound, (what, err, bound)
    assert res.converged and feasibility_mcc(inst.coupled, x, res.y) <= 1e-6
    assert np.count_nonzero(lam) >= 4 and lam.min() == 0.0
