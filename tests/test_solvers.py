"""First-order solvers: spectral prox-gradient, two-timescale, GDA.

Convergence targets are the hand-analyzed stationary points of the 1-D
bilinear instance (global at the origin) and the two named points of
the polynomial-constraint example. Single iterates are compared against
hand-stepped updates; failure paths are driven by a deliberately
inconsistent oracle.
"""

from dataclasses import replace

import numpy as np
import pytest

from pfbe import solvers
from pfbe.core import (
    FunctionOracle,
    MinimaxProblem,
    NonFiniteValue,
    PreconditionViolation,
    UnsupportedSet,
)
from pfbe.envelope import EnvelopeConfig
from pfbe.problems import make_example1, make_synthetic, synthetic_from_data
from pfbe.sets import BoxSet, ProjectableSet, WholeSpace
from pfbe.solvers import (
    DEFAULT_GDA_GRID,
    SolverConfig,
    gamma_descent_check,
    select_gda_step,
    solve_gda_baseline,
    solve_spg,
    solve_subgda,
)


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
    with pytest.raises(ValueError):
        SolverConfig(step_min=0.0)
    with pytest.raises(ValueError):
        SolverConfig(step_min=1.0, step_max=0.5)


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
    assert res.feas == 0.0  # projected iterates never leave the set
    assert res.failure is None
    assert not res.used_fd_hvp


def test_spg_starts_at_solution():
    inst, prob, cfg = _one_d()
    res = solve_spg(prob, cfg, SolverConfig(), np.zeros(2), np.zeros(1))
    assert res.converged and res.iter == 0


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
    res = solve_spg(prob, cfg, SolverConfig(max_iter=20000), *inst.default_start())
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
    cfg = EnvelopeConfig(eta=1.0, alpha=2.0, mu=1.0)
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


def test_spg_non_finite_trial_is_a_rejected_step():
    prob, cfg = _exp_saddle()
    x0, y0 = np.array([0.0]), np.array([5.0])
    short = solve_spg(prob, cfg, SolverConfig(step_init=1.0), x0, y0)
    assert short.converged and short.iter == 15
    # the first trial at step 1e3 overflows f; it must be halved, not raised
    long = solve_spg(prob, cfg, SolverConfig(step_init=1e3), x0, y0)
    assert long.converged
    assert abs(long.x[0] - short.x[0]) <= 1e-6


def test_spg_stalled_when_prox_step_leaves_iterate_unchanged():
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
    scfg = SolverConfig(step_init=1e-10, step_min=1e-10, step_max=1e-10)
    res = solve_spg(prob, cfg, scfg, np.array([1.0]), np.array([0.0]))
    assert res.failure == "Stalled"
    assert not res.converged
    assert res.iter == 0
    assert res.stat == pytest.approx(1.0, rel=1e-6)
    assert res.x[0] == 1.0 and res.y[0] == 0.0


# ---------------------------------------------------------------------------
# oracle budget: one envelope evaluation per point


def _counted_one_d():
    inst, prob, cfg = _one_d()
    counts = {"eval": 0, "grad_x": 0, "grad_y": 0}

    def counted(name):
        inner = getattr(prob.f, name)

        def call(*args):
            counts[name] += 1
            return inner(*args)

        return call

    f = replace(prob.f, **{name: counted(name) for name in counts})
    return replace(prob, f=f), cfg, counts


def test_gda_reuses_monitored_gradients():
    prob, cfg, counts = _counted_one_d()
    k = 7
    scfg = SolverConfig(max_iter=k, eta_x=0.05, eta_y=0.05, gtol=1e-12)
    res = solve_gda_baseline(prob, cfg, scfg, np.array([0.5, 0.25]), np.array([0.1]))
    assert res.iter == k
    assert counts == {"eval": k + 1, "grad_x": k + 1, "grad_y": k + 1}


def test_subgda_reuses_monitored_grad_x():
    prob, cfg, counts = _counted_one_d()
    k = 7
    res = solve_subgda(
        prob, cfg, SolverConfig(max_iter=k), np.array([0.5, 0.25]), np.array([0.1])
    )
    assert res.iter == k
    # grad_y also runs once per step for R(x+, y), a point never fully evaluated
    assert counts == {"eval": k + 1, "grad_x": k + 1, "grad_y": 2 * k + 1}


def test_spg_evaluates_each_point_once(monkeypatch):
    prob, cfg, counts = _counted_one_d()
    trials = []
    evaluate = solvers.evaluate

    def counting_evaluate(problem, cfg, x, y, need_grad=True):
        if not need_grad:
            trials.append(1)
        return evaluate(problem, cfg, x, y, need_grad=need_grad)

    monkeypatch.setattr(solvers, "evaluate", counting_evaluate)
    scfg = SolverConfig(gtol=1e-9, step_init=10.0)
    res = solve_spg(prob, cfg, scfg, np.array([0.9, 1.0]), np.array([-0.4]))
    assert res.converged and res.iter >= 1
    assert len(trials) > res.iter  # at least one rejected trial
    # one value evaluation per trial plus the start; gradients only at
    # the start and at each accepted trial
    assert counts["eval"] == len(trials) + 1
    assert counts["grad_y"] == len(trials) + 1
    assert counts["grad_x"] == res.iter + 1


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
    with pytest.raises(PreconditionViolation):
        solve_subgda(prob, cfg, scfg, np.array([0.5, 0.25]), np.array([0.1]))


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
    )
    prob = MinimaxProblem(f=f, X=TwoPoints(), Y=WholeSpace(1))
    cfg = EnvelopeConfig(eta=0.25, alpha=8.0, mu=1.0)
    with pytest.raises(UnsupportedSet):
        solve_subgda(prob, cfg, SolverConfig(), np.array([1.0]), np.array([0.0]))


def test_subgda_step_schedules_accepted():
    inst, prob, cfg = _one_d()
    scfg = SolverConfig(
        max_iter=50, eta_x=lambda k: 0.05 / (1 + k), eta_y=lambda k: cfg.eta / (2 + k)
    )
    res = solve_subgda(prob, cfg, scfg, np.array([0.5, 0.25]), np.array([0.1]))
    assert res.iter == 50  # schedule shrinks too fast to converge


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
    cfg = EnvelopeConfig(eta=1.0, alpha=2.0, mu=1.0)
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


def test_negative_x_step_rejected():
    # x-steps go through composite_prox, which rejects a negative prox
    # step for eta_x as it does for eta_y
    inst, prob, cfg = _one_d()
    z0, y0 = np.array([1.0, 0.0]), np.array([0.0])
    for scfg in (SolverConfig(max_iter=1, eta_x=-0.1), SolverConfig(max_iter=1, eta_y=-0.1)):
        with pytest.raises(ValueError):
            solve_gda_baseline(prob, cfg, scfg, z0, y0)
    with pytest.raises(ValueError):
        solve_subgda(prob, cfg, SolverConfig(max_iter=1, eta_x=-0.1), z0, y0)


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
    z0, y0 = inst.default_start()
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
    z0, y0 = inst.default_start()
    scfg = SolverConfig(max_iter=300, gtol=1e-4, record_trace=False)
    column = np.array([[1e-2], [0.1], [5.0]])
    step = solvers._gda_step(prob, cfg, lambda k, rows: (column[rows], column[rows]))
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
        assert (res.fval[i], res.iter[i], res.stat[i], res.feas[i]) == (
            one.fval, one.iter, one.stat, one.feas)
    with pytest.raises(NonFiniteValue), np.errstate(over="ignore", invalid="ignore"):
        solve_gda_baseline(prob, cfg, replace(scfg, eta_x=5.0, eta_y=5.0), z0, y0)


# ---------------------------------------------------------------------------
# descent check helper


def test_gamma_descent_check():
    assert gamma_descent_check([])
    assert gamma_descent_check([3.0])
    assert gamma_descent_check([3.0, 2.0, 2.0, 1.5])
    assert gamma_descent_check([1.0, 1.0 + 1e-9])  # inside the default slack
    assert not gamma_descent_check([1.0, 1.1])
    assert not gamma_descent_check([1.0, 1.1], slack=0.05)
    assert gamma_descent_check([1.0, 1.1], slack=0.2)


# ---------------------------------------------------------------------------
# cross-solver comparison on one benchmark instance


def test_spg_beats_gda_on_benchmark_instance():
    inst = make_synthetic(10, 10, 1.0, 1)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    z0, y0 = inst.default_start()
    scfg = SolverConfig(record_trace=False)
    spg = solve_spg(prob, cfg, scfg, z0, y0)
    assert spg.converged and spg.iter < 5000
    from pfbe.diagnostics import feasibility_mcc

    x_part, _ = inst.lifted.split(spg.x)
    assert feasibility_mcc(inst.coupled, x_part, spg.y) <= 1e-6
    best, _ = select_gda_step(prob, cfg, scfg, z0, y0, pilot_iters=1000)
    gda = solve_gda_baseline(
        prob, cfg, SolverConfig(eta_x=best, eta_y=best, record_trace=False), z0, y0
    )
    assert gda.iter >= 2 * spg.iter
