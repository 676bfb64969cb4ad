"""First-order solvers: spectral prox-gradient, two-timescale, GDA.

Convergence targets are the hand-analyzed stationary points of the 1-D
bilinear instance (global at the origin) and the two named points of
the polynomial-constraint example. Single iterates are compared against
hand-stepped updates; failure paths are driven by a deliberately
inconsistent oracle.
"""

import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from pfbe import core, envelope, problems, solvers
from pfbe.core import (
    DimensionError,
    FunctionOracle,
    MinimaxProblem,
    NonFiniteValue,
    UnsupportedSet,
)
from pfbe.envelope import (
    EnvelopeConfig,
    evaluate,
    grad_norm,
    prox_grad_residual,
    prox_step,
)
from pfbe.lagrangian import lift
from pfbe.problems import make_example1, make_synthetic, synthetic_from_data
from pfbe.rng import NormalStream, Xoshiro256pp
from pfbe.sets import (
    BoxSet,
    OrthantCone,
    ProjectableSet,
    WholeSpace,
    ZeroCone,
    composite_prox,
)
from pfbe.solvers import (
    DEFAULT_GDA_GRID,
    SolverConfig,
    gamma_descent_check,
    select_gda_step,
    solve_gda_baseline,
    solve_spg,
    solve_subgda,
)
from support import eval_rows


def _one_d():
    inst = synthetic_from_data([[1.0]], [1.0], 1.0)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    return inst, prob, cfg


# ---------------------------------------------------------------------------
# configuration validation


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gtol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=-1)
    # a fractional budget is never reached: the solver loops would not end
    for max_iter in (2.5, 3.0, True, "10", None):
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(max_iter=max_iter)
    assert SolverConfig(max_iter=np.int64(3)).max_iter == 3
    # steps are constants, and a nan one does not construct
    for name in ("eta_x", "eta_y"):
        for step in (lambda k: 0.1, "0.1", np.nan):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: step})


def _oracle_with_lipschitz(value):
    return FunctionOracle(
        eval=lambda x, y: 0.0, grad_x=lambda x, y: np.zeros(1), grad_y=lambda x, y: np.zeros(1),
        lipschitz_grad=value, strong_concavity=1.0,
        hvp_yy=lambda x, y, v: np.zeros(1), hvp_xy=lambda x, y, v: np.zeros(1),
    )


def _select_on_one_d(grid):
    inst, prob, cfg = _one_d()
    return select_gda_step(prob, cfg, SolverConfig(max_iter=5), *inst.lifted.default_start(),
                           grid=grid)


# each entry point takes a real number; a bool is an Integral, and an
# infinite tolerance would pass every residual at once
@pytest.mark.parametrize("make, name", [
    (lambda: SolverConfig(eta_x=True), "eta_x"),
    (lambda: SolverConfig(eta_y=False), "eta_y"),
    (lambda: SolverConfig(gtol=True), "gtol"),
    (lambda: SolverConfig(gtol=float("inf")), "gtol"),
    (lambda: EnvelopeConfig(eta=True, alpha=4.0), "eta"),
    (lambda: EnvelopeConfig(eta=0.5, alpha=True), "alpha"),
    (lambda: EnvelopeConfig.for_problem(_one_d()[1], eta=True), "eta"),
    (lambda: _select_on_one_d([True]), "grid entry"),
    (lambda: _oracle_with_lipschitz(True), "lipschitz_grad"),
    (lambda: lift(make_example1().lifted.base, lipschitz_grad=True), "lipschitz_grad"),
    (lambda: make_synthetic(2, 2, True, 1), "c_value"),
    # an integer beyond the float range is not finite, and no OverflowError
    (lambda: SolverConfig(gtol=10**400), "gtol"),
    (lambda: EnvelopeConfig(eta=10**400, alpha=2.0), "eta"),
    (lambda: EnvelopeConfig.for_problem(_one_d()[1], eta=10**400), "eta"),
], ids=["eta_x-bool", "eta_y-bool", "gtol-bool", "gtol-inf", "eta-bool", "alpha-bool",
        "for_problem-eta-bool", "grid-bool", "lipschitz-bool", "lift-lipschitz-bool",
        "c_value-bool", "gtol-huge", "eta-huge", "for_problem-eta-huge"])
def test_entry_points_reject_bools_and_an_infinite_gtol(make, name):
    with pytest.raises(ValueError, match=name):
        make()


# a size, dimension or seed is an integer: a bool, a fraction or a string
# is rejected, never rounded, truncated or read as 1
@pytest.mark.parametrize("make, name", [
    (lambda: make_synthetic(2, 2, 1.0, 1.5), "seed"),
    (lambda: make_synthetic(2, 2, 1.0, True), "seed"),
    (lambda: make_synthetic(2, 2, 1.0, "1"), "seed"),
    (lambda: make_synthetic(True, 2, 1.0, 1), "n"),
    (lambda: make_synthetic(2.5, 2, 1.0, 1), "n"),
    (lambda: Xoshiro256pp(1.5), "seed"),
    (lambda: NormalStream(True), "seed"),
    (lambda: WholeSpace(2.5), "dim"),
    (lambda: ZeroCone(-1), "dim"),
    (lambda: OrthantCone(True), "dim"),
], ids=["seed-float", "seed-bool", "seed-str", "n-bool", "n-float", "xoshiro-seed-float",
        "normal-seed-bool", "wholespace-float", "zerocone-negative", "orthant-bool"])
def test_counts_and_seeds_are_never_coerced(make, name):
    with pytest.raises(ValueError, match=name):
        make()


# ---------------------------------------------------------------------------
# spectral prox-gradient


def test_spg_converges_to_origin_on_one_d():
    inst, prob, cfg = _one_d()
    scfg = SolverConfig(gtol=1e-9)
    res = solve_spg(prob, cfg, scfg, np.array([0.5, 0.25]), np.array([0.1]))
    assert res.converged
    assert res.stat <= 1e-9
    assert np.linalg.norm(res.x) <= 1e-7
    assert abs(res.y[0]) <= 1e-7
    assert abs(res.fval) <= 1e-10
    assert prob.X.contains(res.x) and prob.Y.contains(res.y)  # projected iterates stay in
    assert res.failure is None


def test_spg_starts_at_solution():
    inst, prob, cfg = _one_d()
    res = solve_spg(prob, cfg, SolverConfig(), np.zeros(2), np.zeros(1))
    assert res.converged and res.iter == 0


def test_spg_rejects_a_stack_of_starts_before_evaluating(monkeypatch):
    inst = make_synthetic(3, 3, 1.0, 1)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    z0, y0 = inst.lifted.default_start()

    def no_evaluation(*args, **kwargs):
        raise AssertionError("a stack of starts was evaluated")

    monkeypatch.setattr(solvers, "evaluate", no_evaluation)
    with pytest.raises(DimensionError, match="one point"):
        solve_spg(prob, cfg, SolverConfig(max_iter=5), np.tile(z0, (2, 1)), np.tile(y0, (2, 1)))


def test_spg_trace_and_determinism():
    inst, prob, cfg = _one_d()
    scfg = SolverConfig(gtol=1e-9)
    z0, y0 = np.array([0.9, 1.0]), np.array([-0.4])
    a = solve_spg(prob, cfg, scfg, z0, y0)
    b = solve_spg(prob, cfg, scfg, z0, y0)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert a.iter == b.iter and a.stat == b.stat and a.fval == b.fval
    assert np.array_equal(a.trace["gamma"], b.trace["gamma"])
    assert len(a.trace["gamma"]) == a.iter + 1
    assert len(a.trace["stat"]) == a.iter + 1
    assert a.trace["stat"][-1] == a.stat
    # spectral steps are not monotone, but the run must end far below start
    assert a.trace["gamma"][-1] < a.trace["gamma"][0]


def test_spg_example_two_point_set():
    inst = make_example1()
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    res = solve_spg(prob, cfg, SolverConfig(max_iter=20000), *inst.lifted.default_start())
    assert res.converged
    x_final = res.x[0]
    assert min(abs(x_final - 1.0), abs(x_final - 10.0)) <= 1e-5


def test_spg_unnormalized_stat_mode():
    inst, prob, cfg = _one_d()
    scfg = SolverConfig(gtol=1e-10)
    x0, y0 = np.array([0.3, 0.1]), np.array([0.2])
    res = solve_spg(prob, cfg, scfg, x0, y0)
    assert res.converged
    from pfbe.diagnostics import stationarity_gamma
    from pfbe.envelope import evaluate, grad_norm

    # the loop's stat is the unnormalized residual over the start point's norm
    direct = stationarity_gamma(prob, cfg, res.x, res.y)
    assert res.stat == direct / grad_norm(evaluate(prob, cfg, x0, y0))


def test_spg_step_failure_on_inconsistent_oracle():
    # gradient oracle points uphill: every line-search candidate
    # increases the objective, so the search must exhaust and stop
    f = FunctionOracle(
        eval=lambda x, y: float(x @ x - 0.5 * y @ y),
        grad_x=lambda x, y: -2.0 * np.asarray(x, float),  # wrong sign
        grad_y=lambda x, y: -np.asarray(y, float),
        lipschitz_grad=2.0,
        strong_concavity=1.0,
        hvp_yy=lambda x, y, v: -np.asarray(v, float),
        hvp_xy=lambda x, y, v: np.zeros_like(np.asarray(v, float)),
    )
    prob = MinimaxProblem(f=f, X=WholeSpace(1), Y=WholeSpace(1))
    cfg = EnvelopeConfig(eta=1.0, alpha=2.0)
    res = solve_spg(prob, cfg, SolverConfig(), np.array([1.0]), np.array([0.0]))
    assert not res.converged
    assert res.failure == "StepFailure"


def _exp_saddle():
    # f = exp(x) + x y - y^2/2: a long first step overflows exp
    def f_val(x, y):
        with np.errstate(over="ignore"):
            return float(np.exp(x[0]) + x[0] * y[0] - 0.5 * y[0] ** 2)

    def g_x(x, y):
        with np.errstate(over="ignore"):
            return np.array([np.exp(x[0]) + y[0]])

    f = FunctionOracle(
        eval=f_val,
        grad_x=g_x,
        grad_y=lambda x, y: np.asarray(x, float) - np.asarray(y, float),
        lipschitz_grad=2.0,
        strong_concavity=1.0,
        hvp_yy=lambda x, y, v: -np.asarray(v, float),
        hvp_xy=lambda x, y, v: np.asarray(v, float).copy(),
    )
    prob = MinimaxProblem(f=f, X=WholeSpace(1), Y=WholeSpace(1))
    return prob, EnvelopeConfig.for_problem(prob)


def test_spg_non_finite_trial_is_a_rejected_step(monkeypatch):
    prob, cfg = _exp_saddle()
    x0, y0 = np.array([0.0]), np.array([5.0])
    short = solve_spg(prob, cfg, SolverConfig(), x0, y0)
    assert short.converged and short.iter == 15
    # the first trial at step 1e3 overflows f; it must be halved, not raised
    monkeypatch.setattr(solvers, "STEP_INIT", 1e3)
    long = solve_spg(prob, cfg, SolverConfig(), x0, y0)
    assert long.converged
    assert abs(long.x[0] - short.x[0]) <= 1e-6
    assert long.x[0] != short.x[0]  # the patched first step took effect


def test_spg_stalled_when_prox_step_leaves_iterate_unchanged(monkeypatch):
    # grad_x Xi = 1e-8 at y = 0: a step of 1e-10 moves x = 1 by 1e-18,
    # below the rounding of 1.0, while the unit-step residual is 1e-8
    f = FunctionOracle(
        eval=lambda x, y: float(1e-8 * x[0] - 0.5 * y @ y),
        grad_x=lambda x, y: np.array([1e-8]),
        grad_y=lambda x, y: -np.asarray(y, float),
        lipschitz_grad=1.0,
        strong_concavity=1.0,
        hvp_yy=lambda x, y, v: -np.asarray(v, float),
        hvp_xy=lambda x, y, v: np.zeros_like(np.asarray(v, float)),
    )
    prob = MinimaxProblem(f=f, X=WholeSpace(1), Y=WholeSpace(1))
    cfg = EnvelopeConfig.for_problem(prob)
    for name in ("STEP_INIT", "STEP_MIN", "STEP_MAX"):
        monkeypatch.setattr(solvers, name, 1e-10)
    res = solve_spg(prob, cfg, SolverConfig(), np.array([1.0]), np.array([0.0]))
    assert res.failure == "Stalled"
    assert not res.converged
    assert res.iter == 0
    assert res.stat == pytest.approx(1.0, rel=1e-6)
    assert res.x[0] == 1.0 and res.y[0] == 0.0


# ---------------------------------------------------------------------------
# oracle budget: one envelope evaluation per point


def _counted_one_d():
    """The 1-D problem with its oracle calls counted; the bundle
    ``first_order`` counts as its own kind, apart from the three calls it
    replaces."""
    inst, prob, cfg = _one_d()
    counts = {"eval": 0, "grad_x": 0, "grad_y": 0, "first_order": 0}

    def counted(name):
        inner = getattr(prob.f, name)

        def call(*args):
            counts[name] += 1
            return inner(*args)

        return call

    f = replace(prob.f, **{name: counted(name) for name in counts})
    return replace(prob, f=f), cfg, counts


def _count_grad_evaluations(monkeypatch):
    calls = []
    evaluate = solvers.evaluate

    def counting_evaluate(problem, cfg, x, y, need_grad=True):
        calls.append(need_grad)
        return evaluate(problem, cfg, x, y, need_grad=need_grad)

    monkeypatch.setattr(solvers, "evaluate", counting_evaluate)
    return calls


def _count_as_points(monkeypatch):
    """Count the calls of ``core.as_points``, at every module that binds it."""
    calls = []
    inner = core.as_points

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("pfbe") and getattr(module, "as_points", None) is inner:
            monkeypatch.setattr(module, "as_points", counted)
    return calls


# at the start and at each block of iterates: the stacked evaluation checks
# x and y and projects T onto Y, and the residual test projects onto X and Y
AS_POINTS_PER_TEST = 5
# k = 7 and half a block (and 5 more) leave the block unfilled, TEST_POINTS
# fills it exactly, and 5 more iterates need a second one
BUDGETS = [7, solvers.TEST_POINTS // 2, solvers.TEST_POINTS // 2 + 5,
           solvers.TEST_POINTS, solvers.TEST_POINTS + 5]


@pytest.mark.parametrize("k", BUDGETS)
def test_gda_oracle_calls_per_block(monkeypatch, k):
    prob, cfg, counts = _counted_one_d()
    calls = _count_grad_evaluations(monkeypatch)
    checks = _count_as_points(monkeypatch)
    scfg = SolverConfig(max_iter=k, eta_x=0.05, eta_y=0.05, gtol=1e-12)
    res = solve_gda_baseline(prob, cfg, scfg, np.array([0.5, 0.25]), np.array([0.1]))
    assert res.iter == k
    # one evaluation of the start, then one stacked evaluation per block of
    # iterates, each one bundle call; a step calls grad_x f and grad_y f
    # itself, except the first of a block, which takes them from the last
    # tested evaluation
    blocks = -(-k // solvers.TEST_POINTS)
    assert calls == [True] * (blocks + 1)
    assert counts == {"eval": 0, "grad_x": k - blocks, "grad_y": k - blocks,
                      "first_order": blocks + 1}
    # a step checks each of its two prox points once, in its projection
    assert len(checks) == 2 * k + AS_POINTS_PER_TEST * (blocks + 1)


@pytest.mark.parametrize("k", BUDGETS)
def test_subgda_oracle_calls_per_block(monkeypatch, k):
    prob, cfg, counts = _counted_one_d()
    calls = _count_grad_evaluations(monkeypatch)
    checks = _count_as_points(monkeypatch)
    res = solve_subgda(
        prob, cfg, SolverConfig(max_iter=k, gtol=1e-12), np.array([0.5, 0.25]), np.array([0.1])
    )
    assert res.iter == k
    # grad_x f as for GDA; grad_y f once per step for R(x+, y) in
    # prox_step, a point never evaluated
    blocks = -(-k // solvers.TEST_POINTS)
    assert calls == [True] * (blocks + 1)
    assert counts == {"eval": 0, "grad_x": k - blocks, "grad_y": k, "first_order": blocks + 1}
    # a step checks x+ in its projection, (x+, y) in prox_step and the
    # point it projects onto Y
    assert len(checks) == 4 * k + AS_POINTS_PER_TEST * (blocks + 1)


@pytest.mark.parametrize("k", [7, solvers.TEST_POINTS])
def test_stacked_gda_pilot_checks_points_once_per_prox(monkeypatch, k):
    prob, cfg, counts = _counted_one_d()
    checks = _count_as_points(monkeypatch)
    grid = (0.01, 0.02)  # neither pilot converges or diverges within k
    _, scores = select_gda_step(
        prob, cfg, SolverConfig(gtol=1e-12), np.array([0.5, 0.25]), np.array([0.1]),
        grid=grid, pilot_iters=k,
    )
    assert all(np.isfinite(list(scores.values())))
    # the start point once at entry; then each stacked step as one GDA step,
    # whatever the number of pilots, and each block as one test
    blocks = -(-k // (solvers.TEST_POINTS // len(grid)))
    assert counts == {"eval": 0, "grad_x": k - blocks, "grad_y": k - blocks,
                      "first_order": blocks + 1}
    assert len(checks) == 2 + 2 * k + AS_POINTS_PER_TEST * (blocks + 1)


def test_spg_evaluates_each_point_once(monkeypatch):
    prob, cfg, counts = _counted_one_d()
    trials = []
    evaluate = solvers.evaluate

    def counting_evaluate(problem, cfg, x, y, need_grad=True):
        if not need_grad:
            trials.append(1)
        return evaluate(problem, cfg, x, y, need_grad=need_grad)

    monkeypatch.setattr(solvers, "evaluate", counting_evaluate)
    monkeypatch.setattr(solvers, "STEP_INIT", 10.0)
    scfg = SolverConfig(gtol=1e-9)
    res = solve_spg(prob, cfg, scfg, np.array([0.9, 1.0]), np.array([-0.4]))
    assert res.converged and res.iter >= 1
    assert len(trials) > res.iter  # at least one rejected trial
    # one value evaluation per trial plus the start, each one bundle call
    # that gives f, grad_x f and grad_y f; no separate call on SPG's path
    assert counts["first_order"] == len(trials) + 1
    assert counts["eval"] == 0
    assert counts["grad_y"] == 0
    assert counts["grad_x"] == 0


def test_spg_products_with_B(monkeypatch):
    # the bundle of each evaluation (the start and every trial) makes B y,
    # for f and grad_x f, and B^T x, for grad_y f; a completion adds
    # hvp_xy = B R where R is nonzero. With separate calls, grad_x f made
    # one more B y per completion, so an iteration made 4 products, not 3
    inst = make_synthetic(5, 5, 1.0, 1)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    products, evaluations, moving = [], [], []
    matvec, evaluate, complete = problems._matvec, solvers.evaluate, envelope.with_gradients

    def counted_matvec(A, v):
        products.append(np.shares_memory(A, inst.B))
        return matvec(A, v)

    def counted_evaluate(problem, cfg, x, y, need_grad=True):
        evaluations.append(need_grad)
        return evaluate(problem, cfg, x, y, need_grad=need_grad)

    def counted_completion(problem, cfg, ev):
        moving.append(bool(np.any(ev.R != 0.0)))
        return complete(problem, cfg, ev)

    monkeypatch.setattr(problems, "_matvec", counted_matvec)
    monkeypatch.setattr(solvers, "evaluate", counted_evaluate)
    for module in (envelope, solvers):
        monkeypatch.setattr(module, "with_gradients", counted_completion)
    res = solve_spg(prob, cfg, SolverConfig(), *inst.lifted.default_start())
    assert res.converged and res.iter > 10
    assert all(products)  # every product is one with B or B^T
    assert len(moving) == res.iter + 1  # the start and each accepted trial
    assert len(evaluations) > res.iter + 1  # at least one rejected trial
    assert len(products) == 2 * len(evaluations) + sum(moving)


# ---------------------------------------------------------------------------
# two-timescale scheme


def test_subgda_hand_stepped_iterate():
    inst, prob, cfg = _one_d()
    scfg = SolverConfig(max_iter=1, eta_x=0.1, eta_y=0.1, record_trace=False)
    res = solve_subgda(prob, cfg, scfg, np.array([1.0, 0.0]), np.array([0.0]))
    # grad_z f(1,0,0) = (1 + y - lam, -(x+y-1)) = (1, 0)
    # x+ = proj([0,1]x[0,inf))( (1,0) - 0.1 (1,0) ) = (0.9, 0)
    # R(x+, 0) = eta-residual with free y: grad_y f = x - y - lam = 0.9
    # y+ = 0 + 0.1 * 0.9 = 0.09
    assert np.allclose(res.x, [0.9, 0.0], atol=1e-12)
    assert res.y[0] == pytest.approx(0.09, abs=1e-12)


def test_subgda_theory_defaults_match_formulas():
    inst, prob, cfg = _one_d()
    L, mu = prob.lipschitz, prob.mu
    theta = cfg.alpha * cfg.eta * L * L / mu
    ey = cfg.eta / 2.0
    ex = ey / theta
    z0, y0 = np.array([0.5, 0.25]), np.array([0.1])
    default_run = solve_subgda(prob, cfg, SolverConfig(max_iter=3), z0, y0)
    manual_run = solve_subgda(
        prob, cfg, SolverConfig(max_iter=3, eta_x=ex, eta_y=ey), z0, y0
    )
    assert np.array_equal(default_run.x, manual_run.x)
    assert np.array_equal(default_run.y, manual_run.y)


def test_subgda_converges_and_descends():
    inst, prob, cfg = _one_d()
    res = solve_subgda(
        prob, cfg, SolverConfig(max_iter=20000, gtol=1e-8),
        np.array([0.5, 0.25]), np.array([0.1]),
    )
    assert res.converged
    assert np.linalg.norm(res.x) <= 1e-6
    assert gamma_descent_check(res.trace["gamma"])


def test_subgda_rejects_large_y_step():
    inst, prob, cfg = _one_d()
    scfg = SolverConfig(max_iter=5, eta_y=2.0 * cfg.eta)
    with pytest.raises(ValueError, match="eta_y="):
        solve_subgda(prob, cfg, scfg, np.array([0.5, 0.25]), np.array([0.1]))


@pytest.mark.parametrize("eta_y", [np.nan, -1e-3, "2 eta"])
def test_subgda_rejects_eta_y_outside_envelope_step(eta_y, monkeypatch):
    inst, prob, cfg = _one_d()
    eta_y = 2.0 * cfg.eta if eta_y == "2 eta" else eta_y
    # checked once, before the start point is evaluated, so also when the
    # run has no step to take; a nan or negative one already when the
    # config is built
    monkeypatch.setattr(solvers, "evaluate", None)
    for max_iter in (5, 0):
        with pytest.raises(ValueError, match="eta_y"):
            scfg = SolverConfig(max_iter=max_iter, eta_x=0.1, eta_y=eta_y)
            solve_subgda(prob, cfg, scfg, np.array([0.5, 0.25]), np.array([0.1]))


def test_subgda_accepts_eta_y_at_the_ends():
    inst, prob, cfg = _one_d()
    for eta_y in (0.0, cfg.eta):
        scfg = SolverConfig(max_iter=5, eta_x=0.1, eta_y=eta_y)
        assert solve_subgda(prob, cfg, scfg, np.array([0.5, 0.25]), np.array([0.1])).iter == 5


def test_subgda_rejects_nonconvex_x():
    class TwoPoints(ProjectableSet):
        dim = 1
        convex = False

        def project(self, z):
            z = np.asarray(z, dtype=np.float64)
            return np.where(np.abs(z - 1.0) < np.abs(z + 1.0), 1.0, -1.0)

    f = FunctionOracle(
        eval=lambda x, y: float(x @ y - 0.5 * y @ y),
        grad_x=lambda x, y: np.asarray(y, float).copy(),
        grad_y=lambda x, y: np.asarray(x, float) - np.asarray(y, float),
        lipschitz_grad=2.0,
        strong_concavity=1.0,
        hvp_yy=lambda x, y, v: -np.asarray(v, float),
        hvp_xy=lambda x, y, v: np.asarray(v, float).copy(),
    )
    prob = MinimaxProblem(f=f, X=TwoPoints(), Y=WholeSpace(1))
    cfg = EnvelopeConfig(eta=0.25, alpha=8.0)
    with pytest.raises(UnsupportedSet):
        solve_subgda(prob, cfg, SolverConfig(), np.array([1.0]), np.array([0.0]))


# ---------------------------------------------------------------------------
# descent-ascent baseline and step selection


def test_gda_converges_on_decoupled_saddle():
    f = FunctionOracle(
        eval=lambda x, y: float(0.5 * x @ x - 0.5 * y @ y),
        grad_x=lambda x, y: np.asarray(x, float).copy(),
        grad_y=lambda x, y: -np.asarray(y, float),
        lipschitz_grad=1.0,
        strong_concavity=1.0,
        hvp_yy=lambda x, y, v: -np.asarray(v, float),
        hvp_xy=lambda x, y, v: np.zeros_like(np.asarray(v, float)),
    )
    prob = MinimaxProblem(f=f, X=BoxSet([-1.0], [1.0]), Y=WholeSpace(1))
    cfg = EnvelopeConfig(eta=1.0, alpha=2.0)
    res = solve_gda_baseline(
        prob, cfg, SolverConfig(gtol=1e-9), np.array([1.0]), np.array([0.5])
    )
    assert res.converged
    assert abs(res.x[0]) <= 1e-8 and abs(res.y[0]) <= 1e-8


def test_gda_respects_custom_steps():
    inst, prob, cfg = _one_d()
    z0, y0 = np.array([1.0, 0.0]), np.array([0.0])
    one = solve_gda_baseline(
        prob, cfg, SolverConfig(max_iter=1, eta_x=0.2, eta_y=0.2), z0, y0
    )
    # grad_z f = (1, 0), grad_y f = 1: x+ = (0.8, 0), y+ = 0.2
    assert np.allclose(one.x, [0.8, 0.0], atol=1e-15)
    assert one.y[0] == pytest.approx(0.2, abs=1e-15)


def test_negative_x_step_rejected(monkeypatch):
    # a constant step that is not finite and >= 0 is rejected when the
    # config is built, so before the start is evaluated, even when no step
    # is taken
    inst, prob, cfg = _one_d()
    z0, y0 = np.array([1.0, 0.0]), np.array([0.0])
    monkeypatch.setattr(solvers, "evaluate", None)
    cases = [(solve_gda_baseline, "eta_x"), (solve_gda_baseline, "eta_y"),
             (solve_subgda, "eta_x")]
    for solve, name in cases:
        for value in (-0.1, np.nan, np.inf):
            for max_iter in (0, 1, 5):
                with pytest.raises(ValueError, match=f"{name} must be"):
                    scfg = SolverConfig(max_iter=max_iter, **{name: value})
                    solve(prob, cfg, scfg, z0, y0)


def test_alpha_below_the_problem_threshold_rejected(monkeypatch):
    # the threshold is checked against the solved problem's modulus, once
    # per solve and before the start is evaluated: a config made for a
    # larger mu cannot carry a small alpha into the solvers
    inst = make_synthetic(3, 3, 1.0, 1)
    prob = inst.lifted.problem
    eta = 1.0 / (2.0 * prob.lipschitz)
    assert prob.mu == 1.0 and EnvelopeConfig.threshold(eta, prob.mu) > 15.0
    cfg = EnvelopeConfig(eta=eta, alpha=1.0)
    z0, y0 = inst.lifted.default_start()
    monkeypatch.setattr(solvers, "evaluate", None)
    scfg = SolverConfig(max_iter=50)
    for solve in (solve_spg, solve_subgda, solve_gda_baseline, select_gda_step):
        with pytest.raises(ValueError, match="threshold"):
            solve(prob, cfg, scfg, z0, y0)


def test_zero_steps_accepted():
    inst, prob, cfg = _one_d()
    z0, y0 = np.array([1.0, 0.0]), np.array([0.0])
    scfg = SolverConfig(max_iter=3, eta_x=0.0, eta_y=0.0)
    for solve in (solve_gda_baseline, solve_subgda):
        res = solve(prob, cfg, scfg, z0, y0)
        assert res.iter == 3 and np.array_equal(res.x, z0) and np.array_equal(res.y, y0)


def test_default_gda_grid():
    assert len(DEFAULT_GDA_GRID) == 20
    assert DEFAULT_GDA_GRID[0] == pytest.approx(1e-4)
    assert DEFAULT_GDA_GRID[-1] == pytest.approx(0.9)
    assert all(a < b for a, b in zip(DEFAULT_GDA_GRID, DEFAULT_GDA_GRID[1:]))


def test_select_gda_step_returns_argmin():
    inst, prob, cfg = _one_d()
    z0, y0 = np.array([0.5, 0.25]), np.array([0.1])
    scfg = SolverConfig(max_iter=10000, gtol=1e-7, record_trace=False)
    best, scores = select_gda_step(
        prob, cfg, scfg, z0, y0, grid=[0.3, 0.05, 0.9], pilot_iters=200
    )
    assert set(scores) == {0.3, 0.05, 0.9}
    assert best in scores
    assert scores[best] == min(scores.values())
    again, scores2 = select_gda_step(
        prob, cfg, scfg, z0, y0, grid=[0.3, 0.05, 0.9], pilot_iters=200
    )
    assert again == best and scores2 == scores


def test_select_gda_step_tie_breaks_to_smaller():
    # start at a stationary point: every step converges at iteration 0
    # with the same residual, so the smallest grid entry must win
    inst, prob, cfg = _one_d()
    z0, y0 = np.zeros(2), np.zeros(1)
    scfg = SolverConfig(record_trace=False)
    best, scores = select_gda_step(prob, cfg, scfg, z0, y0, pilot_iters=10)
    assert best == DEFAULT_GDA_GRID[0]
    assert len(set(scores.values())) == 1


def test_select_gda_step_empty_grid():
    inst, prob, cfg = _one_d()
    with pytest.raises(ValueError):
        select_gda_step(
            prob, cfg, SolverConfig(), np.zeros(2), np.zeros(1), grid=[]
        )


@pytest.mark.parametrize("pilot_iters", [2.9, True, "10", -1])
def test_select_gda_step_rejects_a_budget_that_is_not_a_count(pilot_iters):
    inst, prob, cfg = _one_d()
    with pytest.raises(ValueError, match="pilot_iters"):
        select_gda_step(prob, cfg, SolverConfig(), np.zeros(2), np.zeros(1),
                        grid=[0.1], pilot_iters=pilot_iters)


@pytest.mark.parametrize("pilot_iters", [0, np.int64(3)])
def test_select_gda_step_takes_an_integer_budget(pilot_iters):
    inst, prob, cfg = _one_d()
    z0, y0 = np.array([0.5, 0.25]), np.array([0.1])
    _, scores = select_gda_step(prob, cfg, SolverConfig(), z0, y0, grid=[0.1],
                                pilot_iters=pilot_iters)
    one = solve_gda_baseline(
        prob, cfg, SolverConfig(max_iter=int(pilot_iters), eta_x=0.1, eta_y=0.1), z0, y0)
    assert scores == {0.1: one.stat} and one.iter == pilot_iters


@pytest.mark.parametrize("entry", [0.0, np.nan, np.inf, -0.1])
def test_select_gda_step_rejects_non_positive_or_non_finite_steps(entry):
    inst = make_synthetic(3, 3)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    z0, y0 = inst.lifted.default_start()
    with pytest.raises(ValueError, match="grid entry"):
        select_gda_step(prob, cfg, SolverConfig(), z0, y0, grid=[0.1, entry], pilot_iters=5)


def _serial_pilots(prob, cfg, scfg, z0, y0, grid, pilot_iters):
    """Reference for select_gda_step: one baseline run per step, in turn,
    a diverging run scoring inf."""
    scores = {}
    for s in sorted(grid):
        trial = replace(scfg, eta_x=s, eta_y=s, max_iter=pilot_iters, record_trace=False)
        try:
            scores[s] = solve_gda_baseline(prob, cfg, trial, z0, y0).stat
        except NonFiniteValue:
            scores[s] = np.inf
    return scores


@pytest.mark.parametrize(
    "make, stacks",
    [(lambda: make_synthetic(10, 10, 0.5, 1), True), (make_example1, False)],
    ids=["synthetic", "example1"],
)
def test_stacked_pilots_match_serial_pilots(make, stacks):
    # the grid's three large steps make some pilots diverge; example 1's
    # oracle takes no stacks, so its rows go through the oracle one by one
    inst = make()
    prob = inst.lifted.problem
    assert prob.f.stacks is stacks
    cfg = EnvelopeConfig.for_problem(prob)
    z0, y0 = inst.lifted.default_start()
    scfg = SolverConfig(max_iter=1500)
    grid = DEFAULT_GDA_GRID + (2.0, 5.0, 20.0)
    best, scores = select_gda_step(prob, cfg, scfg, z0, y0, grid=grid, pilot_iters=300)
    reference = _serial_pilots(prob, cfg, scfg, z0, y0, grid, 300)
    assert scores == reference
    assert list(scores) == list(reference)
    assert np.inf in scores.values() and min(scores.values()) < np.inf
    assert best == min(reference, key=lambda s: (reference[s], s))


def test_select_gda_step_non_finite_start():
    # every pilot fails at its start point: all score inf, the smallest step wins
    inst, prob, cfg = _one_d()
    z0, y0 = np.array([1e300, 0.0]), np.array([1e300])
    with np.errstate(over="ignore", invalid="ignore"):
        best, scores = select_gda_step(prob, cfg, SolverConfig(), z0, y0, grid=[0.1, 0.01])
        reference = _serial_pilots(prob, cfg, SolverConfig(), z0, y0, [0.1, 0.01], 10000)
    assert scores == reference == {0.01: np.inf, 0.1: np.inf}
    assert best == 0.01


def test_stacked_run_rows_match_single_runs():
    # one row converges, one exhausts the budget, one diverges
    inst = make_synthetic(3, 3, 1.0, 2)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    z0, y0 = inst.lifted.default_start()
    scfg = SolverConfig(max_iter=300, gtol=1e-4, record_trace=False)
    column = np.array([[1e-2], [0.1], [5.0]])
    step = solvers._gda_step(prob, column, column)
    with np.errstate(over="ignore", invalid="ignore"):
        res = solvers._iterate_first_order(
            prob, cfg, scfg, np.tile(z0, (3, 1)), np.tile(y0, (3, 1)), step
        )
    assert res.converged.tolist() == [False, True, False]
    assert res.failure == (None, None, "NonFiniteValue")
    assert res.stat[2] == np.inf
    for i in (0, 1):
        s = float(column[i, 0])
        one = solve_gda_baseline(prob, cfg, replace(scfg, eta_x=s, eta_y=s), z0, y0)
        assert np.array_equal(res.x[i], one.x) and np.array_equal(res.y[i], one.y)
        assert (res.fval[i], res.iter[i], res.stat[i]) == (one.fval, one.iter, one.stat)
    with pytest.raises(NonFiniteValue), np.errstate(over="ignore", invalid="ignore"):
        solve_gda_baseline(prob, cfg, replace(scfg, eta_x=5.0, eta_y=5.0), z0, y0)


# ---------------------------------------------------------------------------
# block-tested fixed-step runs against the evaluate-every-iterate loop


class _RefRows:
    """Reference bookkeeping of a stacked run, as the rows leave."""

    def __init__(self, ev):
        k = len(ev.x)
        self.left = np.arange(k)
        self.x, self.y = ev.x.copy(), ev.y.copy()
        self.fval = np.array(ev.gamma, dtype=np.float64)
        self.stat = np.full(k, np.inf)
        self.iter = np.zeros(k, dtype=int)
        self.converged = np.zeros(k, dtype=bool)
        self.failure = [None] * k

    def leave(self, ev, going, iters, stat=np.inf, converged=False, failure=None, then=None):
        then = ev if then is None else then
        if not going.any():
            return then
        rows = self.left[going]
        self.x[rows], self.y[rows], self.fval[rows] = ev.x[going], ev.y[going], ev.gamma[going]
        self.stat[rows] = np.broadcast_to(stat, going.shape)[going]
        self.converged[rows] = np.broadcast_to(converged, going.shape)[going]
        self.iter[rows] = iters
        for r in rows:
            self.failure[r] = failure
        self.left = self.left[~going]
        return eval_rows(then, ~going) if self.left.size else None


def _reference_loop(problem, cfg, scfg, x0, y0, step):
    """The solver loop that evaluates and tests every iterate in turn; the
    step rules below map the evaluation at the iterate to the next one."""
    ev = evaluate(problem, cfg, x0, y0, need_grad=True)
    ref = grad_norm(ev)
    trace_gamma = [ev.gamma]
    rows = None
    if ev.finite is not None:
        rows = _RefRows(ev)
        ref = np.broadcast_to(ref, rows.left.shape)
        ev = rows.leave(ev, ~ev.finite, 0, failure="NonFiniteValue")
    trace_stat = []
    iters = 0
    converged = False
    failure = None
    stat = np.inf
    for k in range(scfg.max_iter + 1 if ev is not None else 0):
        stat = prox_grad_residual(problem, cfg, ev, ref if rows is None else ref[rows.left])
        trace_stat.append(stat)
        if rows is not None:
            passed = stat <= scfg.gtol
            ev = rows.leave(ev, passed | (k == scfg.max_iter), k, stat, passed)
            if ev is None:
                break
        elif stat <= scfg.gtol:
            converged = True
            break
        if k == scfg.max_iter:
            break
        nxt = step(k, ev, None if rows is None else rows.left)
        if isinstance(nxt, str):
            failure = nxt
            break
        if rows is not None:
            nxt = rows.leave(ev, ~nxt.finite, k, failure="NonFiniteValue", then=nxt)
            if nxt is None:
                break
        ev = nxt
        iters += 1
        trace_gamma.append(ev.gamma)
    if rows is not None:
        return solvers.SolveResult(
            x=rows.x, y=rows.y, fval=rows.fval, iter=rows.iter, stat=rows.stat,
            wall_time=0.0, converged=rows.converged, trace={}, failure=tuple(rows.failure),
        )
    trace = {}
    if scfg.record_trace:
        trace = {"gamma": np.asarray(trace_gamma, dtype=np.float64),
                 "stat": np.asarray(trace_stat, dtype=np.float64)}
    return solvers.SolveResult(
        x=ev.x, y=ev.y, fval=float(ev.gamma), iter=iters, stat=float(stat),
        wall_time=0.0, converged=converged, trace=trace, failure=failure,
    )


def _reference_subgda(problem, cfg, scfg, x0, y0):
    L, mu = problem.lipschitz, problem.mu
    theta = cfg.alpha * cfg.eta * L * L / mu
    ey = cfg.eta / 2.0 if scfg.eta_y is None else float(scfg.eta_y)
    ex = ey / theta if scfg.eta_x is None else float(scfg.eta_x)
    if not 0.0 <= ey <= cfg.eta * (1.0 + 1e-12):
        raise ValueError(f"eta_y={ey} is outside [0, eta] for the envelope step eta={cfg.eta}")

    def step(k, ev, rows):
        x_new = composite_prox(problem.r1, problem.X, ev.x - ex * ev.grad_x_f, ex)
        _, R = prox_step(problem, cfg, x_new, ev.y)
        return evaluate(problem, cfg, x_new, ev.y + ey * R, need_grad=True)

    return _reference_loop(problem, cfg, scfg, x0, y0, step)


def _reference_gda_step(problem, cfg, steps):
    def step(k, ev, rows):
        tx, ty = steps(k, rows)
        x_new = composite_prox(problem.r1, problem.X, ev.x - tx * ev.grad_x_f, tx)
        y_new = composite_prox(problem.r2, problem.Y, ev.y + ty * ev.grad_y_f, ty)
        return evaluate(problem, cfg, x_new, y_new, need_grad=True)

    return step


def _reference_gda(problem, cfg, scfg, x0, y0):
    ex = 0.1 if scfg.eta_x is None else float(scfg.eta_x)
    ey = 0.1 if scfg.eta_y is None else float(scfg.eta_y)
    step = _reference_gda_step(problem, cfg, lambda k, rows: (ex, ey))
    return _reference_loop(problem, cfg, scfg, x0, y0, step)


def _outcome(run, *args):
    """The result of ``run(*args)``, or the class and message it raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return run(*args)
    except (NonFiniteValue, ValueError) as exc:
        return type(exc), str(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, tuple):  # raised
        assert got == want
        return
    assert isinstance(got, solvers.SolveResult)
    for field in fields(solvers.SolveResult):
        if field.name == "wall_time":
            continue
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "trace":
            assert a.keys() == b.keys()
            for key in a:
                assert np.array_equal(a[key], b[key]), key
        elif isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


P = solvers.TEST_POINTS
_SOLVERS = {"subgda": (solve_subgda, _reference_subgda),
            "gda": (solve_gda_baseline, _reference_gda)}


def _instance(name):
    inst = make_example1() if name == "example1" else make_synthetic(*name)
    prob = inst.lifted.problem
    return (prob, EnvelopeConfig.for_problem(prob)) + tuple(inst.lifted.default_start())


_INSTANCES = [(10, 10, 1.0, 1), (20, 20, 1.0, 2), (3, 3, 1.0, 2), "example1"]


@pytest.mark.parametrize("solver", sorted(_SOLVERS))
@pytest.mark.parametrize("name", _INSTANCES, ids=str)
# budgets around the end of a full block, and around half a block, where the
# budget cuts the first block short
@pytest.mark.parametrize("budget", [0, 1, P // 2 - 1, P // 2, P // 2 + 1, P - 1, P, P + 1, 10000])
def test_fixed_step_runs_match_reference_loop(solver, name, budget):
    prob, cfg, z0, y0 = _instance(name)
    run, reference = _SOLVERS[solver]
    gda_steps = {} if solver == "subgda" else {"eta_x": 0.05, "eta_y": 0.05}
    scfg = SolverConfig(max_iter=budget, gtol=1e-6, record_trace=False, **gda_steps)
    _assert_same_outcome(_outcome(run, prob, cfg, scfg, z0, y0),
                         _outcome(reference, prob, cfg, scfg, z0, y0))


@pytest.mark.parametrize("solver", sorted(_SOLVERS))
@pytest.mark.parametrize("name", _INSTANCES, ids=str)
def test_mid_block_convergence_and_trace_match_reference_loop(solver, name):
    prob, cfg, z0, y0 = _instance(name)
    run, reference = _SOLVERS[solver]
    gda_steps = {} if solver == "subgda" else {"eta_x": 0.05, "eta_y": 0.05}
    # a loose tolerance: most of these runs stop inside a block
    scfg = SolverConfig(max_iter=3 * P, gtol=0.05, **gda_steps)
    got = _outcome(run, prob, cfg, scfg, z0, y0)
    _assert_same_outcome(got, _outcome(reference, prob, cfg, scfg, z0, y0))
    assert len(got.trace["stat"]) == got.iter + 1


def test_reference_cases_stop_inside_blocks():
    # the mid-block cases above are not all stopped by a block's last iterate
    stops = []
    for name in _INSTANCES:
        prob, cfg, z0, y0 = _instance(name)
        scfg = SolverConfig(max_iter=3 * P, gtol=0.05, eta_x=0.05, eta_y=0.05)
        res = solve_gda_baseline(prob, cfg, scfg, z0, y0)
        stops.append((res.converged, res.iter % P))
    assert any(conv and 0 < r < P - 1 for conv, r in stops), stops


@pytest.mark.parametrize("name", [(3, 3, 1.0, 2), "example1"], ids=str)
def test_non_finite_mid_block_raises_as_reference_loop(name):
    prob, cfg, z0, y0 = _instance(name)
    inside = []
    for s in (5.0, 20.0, 1e3):
        scfg = SolverConfig(max_iter=10000, eta_x=s, eta_y=s, record_trace=False)
        got = _outcome(solve_gda_baseline, prob, cfg, scfg, z0, y0)
        steps = []
        step = _reference_gda_step(prob, cfg, lambda k, rows: steps.append(k) or (s, s))
        want = _outcome(_reference_loop, prob, cfg, scfg, z0, y0, step)
        _assert_same_outcome(got, want)
        if isinstance(want, tuple) and want[0] is NonFiniteValue:
            inside.append(len(steps) % P not in (0, 1))  # the raising iterate's place
    assert any(inside)


@pytest.mark.parametrize("name", [(3, 3, 1.0, 2), "example1"], ids=str)
def test_stacked_rows_leaving_mid_block_match_reference_loop(name):
    prob, cfg, z0, y0 = _instance(name)
    column = np.array([[1e-3], [1e-2], [0.05], [0.1], [0.3], [5.0], [50.0]])
    k = len(column)
    scfg = SolverConfig(max_iter=700, gtol=1e-4, record_trace=False)
    steps = lambda j, rows: (column[rows], column[rows])  # noqa: E731
    starts = (np.tile(z0, (k, 1)), np.tile(y0, (k, 1)))
    got = _outcome(solvers._iterate_first_order, prob, cfg, scfg, *starts,
                   solvers._gda_step(prob, column, column))
    want = _outcome(_reference_loop, prob, cfg, scfg, *starts,
                    _reference_gda_step(prob, cfg, steps))
    _assert_same_outcome(got, want)
    # rows end at different iterates, not all on a block's last one
    block = max(1, P // k)
    assert len(set(got.iter.tolist())) > 2
    assert any(i % block != 0 for i in got.iter.tolist())


@pytest.mark.parametrize("name", [(3, 3, 1.0, 2), "example1"], ids=str)
def test_stacked_subgda_rows_match_reference_loop(name):
    # example 1's oracle takes no stacks: prox_step calls it row by row
    prob, cfg, z0, y0 = _instance(name)
    k = 5
    shift = np.linspace(0.0, 0.4, k)[:, None]
    starts = (z0 + shift, y0 - shift)
    scfg = SolverConfig(max_iter=400, gtol=0.02, eta_x=0.05, record_trace=False)
    got = _outcome(solve_subgda, prob, cfg, scfg, *starts)
    _assert_same_outcome(got, _outcome(_reference_subgda, prob, cfg, scfg, *starts))
    if name != "example1":  # rows that end at different iterates, inside blocks
        assert len(set(got.iter.tolist())) > 2
        assert any(i % (P // k) != 0 for i in got.iter.tolist())
    for i in range(k):
        one = solve_subgda(prob, cfg, scfg, starts[0][i], starts[1][i])
        assert (one.iter, one.stat, one.fval) == (got.iter[i], got.stat[i], got.fval[i])


_GRAD_Y_POISON = (0.5, 0.9)  # grad_y f is inf where x[0] is strictly between these


def _grad_y_poisoned(box_y):
    """The synthetic (3, 3, 1.0, 2) problem whose grad_y f is inf where
    x[0] lies in the open band _GRAD_Y_POISON, with Y free or a box."""
    prob = make_synthetic(3, 3, 1.0, 2).lifted.problem
    clean = prob.f.grad_y
    low, high = _GRAD_Y_POISON

    def grad_y(x, y):
        inside = (low < x[..., 0]) & (x[..., 0] < high)
        return np.where(inside[..., None], np.inf, clean(x, y))

    Y = BoxSet(-2.0 * np.ones(3), 2.0 * np.ones(3)) if box_y else prob.Y
    # without the bundle, whose grad_y f is the clean one
    return replace(prob, f=replace(prob.f, grad_y=grad_y, first_order=None), Y=Y)


@pytest.mark.parametrize("box_y", [False, True], ids=["free_y", "box_y"])
def test_stacked_subgda_row_with_non_finite_grad_y_leaves_alone(box_y):
    # row 0 starts at x = 0 and its x[0] crosses the band mid-run; row 1
    # starts at x[0] = 1 and stays out of it
    prob = _grad_y_poisoned(box_y)
    cfg = EnvelopeConfig.for_problem(prob)
    starts = (np.array([np.zeros(6), [1.0, 0.5, 0.5, 0.0, 0.0, 0.0]]),
              np.array([np.zeros(3), [-0.2, -0.7, -0.5]]))
    scfg = SolverConfig(max_iter=400, gtol=1e-6, eta_x=0.05, record_trace=False)
    got = _outcome(solve_subgda, prob, cfg, scfg, *starts)
    _assert_same_outcome(got, _outcome(_reference_subgda, prob, cfg, scfg, *starts))
    assert got.failure == ("NonFiniteValue", None)
    assert got.stat[0] == np.inf and 0 < got.iter[0] < got.iter[1]
    assert got.x[0][0] <= _GRAD_Y_POISON[0]  # the iterate before the band
    with pytest.raises(NonFiniteValue, match="grad_y f"):
        solve_subgda(prob, cfg, scfg, starts[0][0], starts[1][0])
    one = solve_subgda(prob, cfg, scfg, starts[0][1], starts[1][1])
    assert np.array_equal(got.x[1], one.x) and np.array_equal(got.y[1], one.y)
    assert (got.fval[1], got.iter[1], got.stat[1], got.converged[1]) == (
        one.fval, one.iter, one.stat, one.converged)


def _halving_rules(prob, cfg, change):
    """A fixed-step rule that halves x and applies ``change(k, x)``, and the
    same rule for the reference loop."""

    def points(k, it, rows):
        x = change(k, 0.5 * it.x)
        return x if isinstance(x, str) else solvers.Points(x, it.y.copy())

    def evaluated(k, ev, rows):
        nxt = points(k, ev, rows)
        return nxt if isinstance(nxt, str) else evaluate(prob, cfg, nxt.x, nxt.y)

    return points, evaluated


def _halving_problem():
    f = FunctionOracle(
        eval=lambda x, y: float(0.5 * x @ x - 0.5 * y @ y),
        grad_x=lambda x, y: np.asarray(x, float).copy(),
        grad_y=lambda x, y: -np.asarray(y, float),
        lipschitz_grad=1.0,
        strong_concavity=1.0,
        hvp_yy=lambda x, y, v: -np.asarray(v, float),
        hvp_xy=lambda x, y, v: np.zeros_like(np.asarray(x, float)),
    )
    prob = MinimaxProblem(f=f, X=WholeSpace(1), Y=WholeSpace(1))
    return prob, EnvelopeConfig.for_problem(prob)


def test_stacked_row_going_non_finite_at_a_block_start():
    # two rows test P // 2 iterates per block; row 1 jumps to inf at
    # iterate P // 2 + 1, the first of the second block, and keeps iterate P // 2
    prob, cfg = _halving_problem()
    jump = P // 2

    def change(k, x):
        x = x.copy()
        if k == jump:
            x[1] = np.inf
        return x

    points, evaluated = _halving_rules(prob, cfg, change)
    scfg = SolverConfig(max_iter=3 * P, gtol=1e-300, record_trace=False)
    x0, y0 = np.array([[1.0], [2.0]]), np.zeros((2, 1))
    with np.errstate(invalid="ignore"):
        got = solvers._iterate_first_order(prob, cfg, scfg, x0, y0, points)
        want = _reference_loop(prob, cfg, scfg, x0, y0, evaluated)
    _assert_same_outcome(got, want)
    assert got.failure == (None, "NonFiniteValue") and got.iter.tolist() == [3 * P, jump]


def test_stacked_row_non_finite_where_the_residual_passes():
    # f is inf at x = 0, where the residual is 0: row 1 reaches it at
    # iterate 4, leaves as non-finite with iterate 3 and has not converged
    prob, cfg = _halving_problem()
    value = prob.f.eval
    prob = replace(prob, f=replace(
        prob.f, eval=lambda x, y: np.inf if x[0] == 0.0 else value(x, y)))

    def change(k, x):
        x = x.copy()
        if k == 3:
            x[1] = 0.0
        return x

    points, evaluated = _halving_rules(prob, cfg, change)
    scfg = SolverConfig(max_iter=3 * P, gtol=1e-300, record_trace=False)
    x0, y0 = np.array([[1.0], [2.0]]), np.zeros((2, 1))
    with np.errstate(invalid="ignore"):
        got = solvers._iterate_first_order(prob, cfg, scfg, x0, y0, points)
        want = _reference_loop(prob, cfg, scfg, x0, y0, evaluated)
    _assert_same_outcome(got, want)
    assert got.failure == (None, "NonFiniteValue") and got.iter.tolist() == [3 * P, 3]
    assert got.converged.tolist() == [False, False] and got.stat[1] == np.inf


def test_failure_name_mid_block_matches_reference_loop():
    prob, cfg = _halving_problem()
    points, evaluated = _halving_rules(prob, cfg, lambda k, x: "Stop" if k == 5 else x)
    scfg = SolverConfig(max_iter=P, gtol=1e-300)
    args = (prob, cfg, scfg, np.array([1.0]), np.array([0.0]))
    got = solvers._iterate_first_order(*args, points)
    _assert_same_outcome(got, _reference_loop(*args, evaluated))
    assert got.failure == "Stop" and got.iter == 5 and len(got.trace["stat"]) == 6


@pytest.mark.parametrize("make", [lambda: make_synthetic(10, 10, 0.5, 1), make_example1],
                         ids=["synthetic", "example1"])
def test_pilot_residual_maps_match_reference_loop(make):
    inst = make()
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    z0, y0 = inst.lifted.default_start()
    grid = DEFAULT_GDA_GRID + (2.0, 5.0, 20.0)
    scfg = SolverConfig(max_iter=300, record_trace=False)
    _, scores = select_gda_step(prob, cfg, scfg, z0, y0, grid=grid)
    column = np.array(sorted(grid))[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _reference_loop(
            prob, cfg, scfg, np.tile(z0, (len(grid), 1)), np.tile(y0, (len(grid), 1)),
            _reference_gda_step(prob, cfg, lambda k, rows: (column[rows], column[rows])),
        )
    assert list(scores.values()) == ref.stat.tolist()


# ---------------------------------------------------------------------------
# descent check helper


def test_gamma_descent_check():
    assert gamma_descent_check([])
    assert gamma_descent_check([3.0])
    assert gamma_descent_check([3.0, 2.0, 2.0, 1.5])
    assert gamma_descent_check([1.0, 1.0 + 1e-9])  # inside the default slack
    assert not gamma_descent_check([1.0, 1.1])


# ---------------------------------------------------------------------------
# cross-solver comparison on one benchmark instance


def test_spg_beats_gda_on_benchmark_instance():
    inst = make_synthetic(10, 10, 1.0, 1)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    z0, y0 = inst.lifted.default_start()
    scfg = SolverConfig(record_trace=False)
    spg = solve_spg(prob, cfg, scfg, z0, y0)
    assert spg.converged and spg.iter < 5000
    from pfbe.diagnostics import feasibility_mcc

    x_part, _ = inst.lifted.split(spg.x)
    assert feasibility_mcc(inst.lifted.base, x_part, spg.y) <= 1e-6
    best, _ = select_gda_step(prob, cfg, scfg, z0, y0, pilot_iters=1000)
    gda = solve_gda_baseline(
        prob, cfg, SolverConfig(eta_x=best, eta_y=best, record_trace=False), z0, y0
    )
    assert gda.iter >= 2 * spg.iter
