"""End-to-end acceptance battery for the envelope-penalized minimax toolkit.

Each test covers one acceptance criterion and prints a single
``[PASS]``/``[FAIL]`` line naming the criterion, so the battery output
reads as a checklist. Tolerances and runtime budgets are stated inline;
design constants (fixture matrices, stationary points, grid windows)
were derived by hand and cross-checked against independent closed forms
before being frozen here.
"""

import json
import time

import numpy as np

from pfbe.cli import main as cli_main
from pfbe.core import FunctionOracle, MinimaxProblem
from pfbe.diagnostics import (
    eps_minimax_mm,
    feasibility_mcc,
    stationarity_gamma,
    transfer_constant,
)
from pfbe.envelope import EnvelopeConfig, evaluate, near_kink
from pfbe.lagrangian import kkt_residual_mol
from pfbe.problems import make_example1, make_synthetic, synthetic_from_data
from pfbe.sets import BoxSet, WholeSpace
from pfbe.solvers import (
    SolverConfig,
    gamma_descent_check,
    select_gda_step,
    solve_gda_baseline,
    solve_spg,
    solve_subgda,
)
from support import grid_value_function


def _verdict(num: int, ok: bool, detail: str) -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")
    return ok


# ----------------------------------------------------------------------
# criterion 1: the 1-D polynomial-constraint example behaves as derived
# ----------------------------------------------------------------------


def test_criterion_1_example1_fidelity():
    started = time.perf_counter()
    inst = make_example1()

    # the non-minimax stationary point of the lifted problem is exact
    kkt = kkt_residual_mol(
        inst.lifted, np.array([1.0]), np.array([2.0 / 3.0, 1.0 / 3.0]), np.array([1.0])
    )

    # brute force recovers the closed-form value function -x^2/2 on [1, 10];
    # aligned x/y grids make the scan exact up to rounding
    grid = np.linspace(1.0, 10.0, 361)
    phi, _ = grid_value_function(inst.coupled, grid, grid)
    brute_err = float(np.max(np.abs(phi - (-0.5 * grid**2))))
    resolution = float(grid[1] - grid[0])
    elapsed = time.perf_counter() - started

    ok = kkt.max <= 1e-10 and brute_err <= 2.0 * resolution and elapsed < 5.0
    assert _verdict(
        1,
        ok,
        f"example fidelity (kkt={kkt.max:.1e}, brute err={brute_err:.1e} "
        f"vs {2.0 * resolution:.1e}, {elapsed:.2f}s)",
    )


# ----------------------------------------------------------------------
# criterion 2: exact stationarity equivalence, classified analytically
# ----------------------------------------------------------------------

_Q = np.array([[2.0, 0.5], [0.5, 1.0]])
_G0 = np.array([0.3, -0.7])
_X_INTERIOR = np.array([0.25, -0.5])
_A_INTERIOR = -(_Q @ _X_INTERIOR)
_X_CORNER = np.array([1.0, 1.0])
# gradient (-1, -2) at the corner points into the normal cone: stationary
_A_CORNER = np.array([-1.0, -2.0]) - _Q @ _X_CORNER


def _decoupled_quadratic(a: np.ndarray) -> MinimaxProblem:
    f = FunctionOracle(
        eval=lambda x, y: float(a @ x + 0.5 * x @ _Q @ x - 0.5 * np.dot(y - _G0, y - _G0)),
        grad_x=lambda x, y: a + _Q @ x,
        grad_y=lambda x, y: _G0 - np.asarray(y, float),
        hvp_xy=lambda x, y, v: np.zeros(2),
        hvp_yy=lambda x, y, v: -np.asarray(v, float),
        lipschitz_grad=float(max(np.linalg.norm(_Q, 2), 1.0)),
        strong_concavity=1.0,
    )
    return MinimaxProblem(f=f, X=BoxSet(-np.ones(2), np.ones(2)), Y=WholeSpace(2))


def _quadratic_is_stationary(a: np.ndarray, x: np.ndarray, y: np.ndarray) -> bool:
    # projected-gradient conditions of the plain minimax problem, closed form
    gx = a + _Q @ x
    rx = x - np.clip(x - gx, -1.0, 1.0)
    return bool(max(np.max(np.abs(rx)), np.max(np.abs(y - _G0))) <= 1e-13)


def _bilinear_is_stationary(z: np.ndarray, y: np.ndarray) -> bool:
    # lifted 1-D instance: grad_z = (1 + y - lam, -(x + y - 1)), inner grad x - lam - y
    x, lam = float(z[0]), float(z[1])
    rx = x - min(max(x - (1.0 + float(y[0]) - lam), 0.0), 1.0)
    rl = lam - max(lam + (x + float(y[0]) - 1.0), 0.0)
    ry = x - lam - float(y[0])
    return max(abs(rx), abs(rl), abs(ry)) <= 1e-13


def _equivalence_sweep(problem, cfg, points, classify):
    checked = 0
    for x, y in points:
        gs = stationarity_gamma(problem, cfg, x, y)
        ex, ey = eps_minimax_mm(problem, cfg, x, y)
        ms = max(ex, ey)
        if gs <= 1e-10:
            assert ms <= 1e-9, f"gamma-stationary point with minimax residual {ms}"
        if ms <= 1e-10:
            assert gs <= 1e-9, f"minimax-stationary point with gamma residual {gs}"
        if classify(x, y):
            assert gs <= 1e-10 and ms <= 1e-10
        checked += 1
    return checked


def test_criterion_2_exact_stationarity_equivalence():
    total = 0

    # fixture A: decoupled quadratic over a box, interior and corner solutions
    rng = np.random.default_rng(2024)
    for a, x_star in ((_A_INTERIOR, _X_INTERIOR), (_A_CORNER, _X_CORNER)):
        prob = _decoupled_quadratic(a)
        cfg = EnvelopeConfig.for_problem(prob)
        pts = [(x_star.copy(), _G0.copy())]
        for _ in range(5):  # inward nudges exercise the small-residual regime
            pts.append(
                (
                    x_star - 1e-12 * np.abs(rng.standard_normal(2)),
                    _G0 + 1e-12 * rng.standard_normal(2),
                )
            )
        randoms = [
            (rng.uniform(-1.0, 1.0, 2), rng.normal(0.0, 1.5, 2)) for _ in range(500)
        ]
        for x, y in randoms:  # the sampler never lands near the solutions
            assert not _quadratic_is_stationary(a, x, y)
            gs = stationarity_gamma(prob, cfg, x, y)
            assert gs > 1e-9
        total += _equivalence_sweep(
            prob, cfg, pts + randoms, lambda x, y, a=a: _quadratic_is_stationary(a, x, y)
        )

    # fixture B: the lifted 1-D bilinear instance, stationary only at the origin
    inst = synthetic_from_data([[1.0]], [1.0], 1.0)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    pts = [(np.zeros(2), np.zeros(1))]
    for _ in range(5):
        pts.append(
            (1e-12 * np.abs(rng.standard_normal(2)), 1e-12 * rng.standard_normal(1))
        )
    randoms = [
        (np.array([rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0)]), rng.uniform(-1.0, 1.0, 1))
        for _ in range(1000)
    ]
    for z, y in randoms:
        assert not _bilinear_is_stationary(z, y)
        assert stationarity_gamma(prob, cfg, z, y) > 1e-9
    total += _equivalence_sweep(prob, cfg, pts + randoms, _bilinear_is_stationary)

    assert _verdict(
        2, total >= 2000, f"stationarity equivalence on {total} classified points"
    )


# ----------------------------------------------------------------------
# criterion 3: residual transfer bound across benchmark solves
# ----------------------------------------------------------------------


def test_criterion_3_transfer_bound_across_solves():
    # every solver/instance/seed combination; iteration budgets are
    # trimmed because the bound is a property of the returned point,
    # not of convergence
    violations = 0
    solves = 0
    worst = 0.0
    for n in (1, 10, 50):
        for c in (0.5, 1.0, 2.0):
            for seed in (1, 2, 3):
                inst = make_synthetic(n, n, c, seed)
                prob = inst.lifted.problem
                cfg = EnvelopeConfig.for_problem(prob)
                z0, y0 = inst.default_start()
                const = transfer_constant(prob, cfg)
                results = [
                    solve_spg(prob, cfg, SolverConfig(), z0, y0),
                    solve_subgda(prob, cfg, SolverConfig(max_iter=1500), z0, y0),
                ]
                step, _ = select_gda_step(
                    prob, cfg, SolverConfig(max_iter=1500), z0, y0, pilot_iters=300
                )
                results.append(
                    solve_gda_baseline(
                        prob, cfg, SolverConfig(max_iter=1500, eta_x=step, eta_y=step), z0, y0
                    )
                )
                for res in results:
                    raw = stationarity_gamma(prob, cfg, res.x, res.y)
                    ex, ey = eps_minimax_mm(prob, cfg, res.x, res.y)
                    bound = const * raw * 1.1
                    solves += 1
                    if ex > bound or ey > bound:
                        violations += 1
                    if raw > 0.0:
                        worst = max(worst, ex / (const * raw), ey / (const * raw))
    ok = solves == 81 and violations == 0
    assert _verdict(
        3,
        ok,
        f"transfer bound on {solves} solves, {violations} violations "
        f"(worst ratio {worst:.2f} of allowed 1.10)",
    )


# ----------------------------------------------------------------------
# criterion 4: sandwich inequalities for the partial envelope
# ----------------------------------------------------------------------


def _sandwich_min_slack(problem, points: int, seed: int) -> float:
    ell = problem.lipschitz
    cfg = EnvelopeConfig(eta=0.5 / ell, alpha=EnvelopeConfig.threshold(0.5 / ell, problem.mu))
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(points):
        z = 2.0 * rng.standard_normal(problem.dim_x)
        y = 2.0 * rng.standard_normal(problem.dim_y)
        ev = evaluate(problem, cfg, z, y, need_grad=False)
        rr = float(ev.R @ ev.R)
        lower = ev.f_val - problem.r2.value(np.asarray(y, float)) + 0.5 * cfg.eta * rr
        upper = (
            float(problem.f.eval(z, ev.T))
            - problem.r2.value(ev.T)
            - 0.5 * cfg.eta * (1.0 - cfg.eta * ell) * rr
        )
        worst = min(worst, ev.psi - lower, upper - ev.psi)
    return worst


def test_criterion_4_sandwich_inequalities():
    started = time.perf_counter()
    problems = [
        make_example1().lifted.problem,
        make_synthetic(3, 3, 1.0, 11).lifted.problem,
        make_synthetic(10, 10, 0.5, 12).lifted.problem,
        make_synthetic(5, 2, 2.0, 13).lifted.problem,
        make_synthetic(2, 5, 1.0, 14).lifted.problem,
    ]
    worst = min(
        _sandwich_min_slack(p, 2000, 100 + i) for i, p in enumerate(problems)
    )
    elapsed = time.perf_counter() - started
    ok = worst >= -1e-10 and elapsed < 30.0
    assert _verdict(
        4, ok, f"sandwich slack >= {worst:.1e} at 10000 points ({elapsed:.2f}s)"
    )


# ----------------------------------------------------------------------
# criterion 5: grid minimum of the penalized objective matches the
#              grid minimum of the exact inner-max value
# ----------------------------------------------------------------------


def test_criterion_5_grid_minimum_identity():
    started = time.perf_counter()
    inst = synthetic_from_data([[1.0]], [1.0], 1.0)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)

    def gamma_closed(x, lam, y):
        f = x + x * y - 0.5 * y * y - lam * (x + y - 1.0)
        gy = x - y - lam
        return f + 0.5 * cfg.alpha * cfg.eta * gy * gy

    def value_closed(x, lam):
        # inner maximizer y* = x - lam substituted into the coupling
        return x + 0.5 * x * x + 0.5 * lam * lam - 2.0 * x * lam + lam

    # validate both closed forms against the package oracles before use
    rng = np.random.default_rng(70)
    for _ in range(100):
        xv, lv, yv = rng.uniform(0, 1), rng.uniform(0, 2), rng.uniform(-1, 1)
        ev = evaluate(prob, cfg, np.array([xv, lv]), np.array([yv]), need_grad=False)
        assert abs(ev.gamma - gamma_closed(xv, lv, yv)) <= 1e-12
        assert (
            abs(float(prob.f.eval(np.array([xv, lv]), np.array([xv - lv]))) - value_closed(xv, lv))
            <= 1e-12
        )

    xs = np.linspace(0.0, 1.0, 201)
    ls = np.linspace(0.0, 2.0, 401)
    ys = np.linspace(-1.0, 1.0, 401)
    lam_grid, y_grid = np.meshgrid(ls, ys, indexing="ij")
    gamma_min = np.inf
    for xv in xs:  # chunk over x to keep the grid tensor small
        gamma_min = min(gamma_min, float(gamma_closed(xv, lam_grid, y_grid).min()))
    x_grid, lam_only = np.meshgrid(xs, ls, indexing="ij")
    value_min = float(value_closed(x_grid, lam_only).min())
    gap = abs(gamma_min - value_min)
    elapsed = time.perf_counter() - started

    ok = gap <= 1e-3 and elapsed < 60.0
    assert _verdict(
        5,
        ok,
        f"grid minima agree (penalized {gamma_min:.3e}, exact {value_min:.3e}, "
        f"gap {gap:.1e}, {elapsed:.2f}s)",
    )


# ----------------------------------------------------------------------
# criterion 6: benchmark targets for the spectral method, with the
#              tuned descent-ascent baseline as the iteration yardstick
# ----------------------------------------------------------------------


def test_criterion_6_solver_benchmark_targets():
    wins = 0
    rows = []
    for n in (10, 20, 50):
        for seed in (1, 2, 3):
            inst = make_synthetic(n, n, 1.0, seed)
            prob = inst.lifted.problem
            cfg = EnvelopeConfig.for_problem(prob)
            z0, y0 = inst.default_start()

            started = time.perf_counter()
            spg = solve_spg(prob, cfg, SolverConfig(), z0, y0)
            spg_time = time.perf_counter() - started
            x_base, _ = inst.lifted.split(spg.x)
            feas = feasibility_mcc(inst.coupled, x_base, spg.y)
            assert spg.converged and spg.stat <= 1e-7
            assert feas <= 1e-6
            assert spg.iter < 5000
            assert spg_time < 30.0

            scfg = SolverConfig()
            step, _ = select_gda_step(prob, cfg, scfg, z0, y0, pilot_iters=1000)
            gda = solve_gda_baseline(
                prob, cfg, SolverConfig(eta_x=step, eta_y=step), z0, y0
            )
            needed = gda.iter if gda.converged else scfg.max_iter
            wins += needed >= 2 * spg.iter
            rows.append((n, seed, spg.iter, needed))

    ok = wins >= 7
    assert _verdict(
        6,
        ok,
        f"solver targets met on 9/9 instances; baseline needed >= 2x iterations "
        f"on {wins}/9",
    )


# ----------------------------------------------------------------------
# criterion 7: envelope gradients against central finite differences
# ----------------------------------------------------------------------


def _fd_gradient_failures(problem, n_points: int, seed: int) -> tuple[int, float]:
    cfg = EnvelopeConfig.for_problem(problem)
    rng = np.random.default_rng(seed)
    h = 1e-6
    failures = 0
    worst = 0.0
    accepted = 0
    attempts = 0
    while accepted < n_points:
        attempts += 1
        assert attempts < 20 * n_points, "sampler starved of non-kink points"
        z = rng.standard_normal(problem.dim_x)
        y = rng.standard_normal(problem.dim_y)
        ev = evaluate(problem, cfg, z, y)
        if near_kink(problem, ev):
            continue
        accepted += 1
        grad = np.concatenate([ev.grad_x, ev.grad_y])
        fd = np.zeros_like(grad)
        for i in range(problem.dim_x):
            e = np.zeros(problem.dim_x)
            e[i] = h
            hi = evaluate(problem, cfg, z + e, y, need_grad=False).xi
            lo = evaluate(problem, cfg, z - e, y, need_grad=False).xi
            fd[i] = (hi - lo) / (2.0 * h)
        for j in range(problem.dim_y):
            e = np.zeros(problem.dim_y)
            e[j] = h
            hi = evaluate(problem, cfg, z, y + e, need_grad=False).xi
            lo = evaluate(problem, cfg, z, y - e, need_grad=False).xi
            fd[problem.dim_x + j] = (hi - lo) / (2.0 * h)
        rel = float(np.linalg.norm(grad - fd) / (1.0 + np.linalg.norm(fd)))
        worst = max(worst, rel)
        failures += rel > 1e-5
    return failures, worst


def test_criterion_7_gradient_matches_finite_differences():
    families = [
        ("polynomial-constraint", make_example1().lifted.problem, 201),
        ("synthetic 5x3", make_synthetic(5, 3, 1.0, 21).lifted.problem, 202),
        ("synthetic 4x6", make_synthetic(4, 6, 0.5, 22).lifted.problem, 203),
    ]
    failures = 0
    worst = 0.0
    for _, prob, seed in families:
        f, w = _fd_gradient_failures(prob, 100, seed)
        failures += f
        worst = max(worst, w)
    ok = failures == 0
    assert _verdict(
        7,
        ok,
        f"gradients match finite differences at 100 points x {len(families)} "
        f"families (worst rel {worst:.1e}, {failures} failures)",
    )


# ----------------------------------------------------------------------
# criterion 8: theory-mode two-timescale run descends monotonically
# ----------------------------------------------------------------------


def test_criterion_8_two_timescale_monotone_descent():
    inst = make_synthetic(5, 5, 1.0, 1)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    z0, y0 = inst.default_start()
    # gtol far below reach forces the full iteration budget
    res = solve_subgda(
        prob, cfg, SolverConfig(max_iter=10000, gtol=1e-300, record_trace=True), z0, y0
    )
    trace = np.asarray(res.trace["gamma"])
    slack = 1e-8 * (1.0 + abs(float(trace[0])))
    max_rise = float(np.diff(trace).max())
    ok = trace.shape[0] == 10001 and gamma_descent_check(trace)
    assert _verdict(
        8,
        ok,
        f"monotone descent over {trace.shape[0] - 1} steps "
        f"(max rise {max_rise:.1e} vs slack {slack:.1e})",
    )


# ----------------------------------------------------------------------
# criterion 9: repeated sweeps with fixed seeds are byte-identical
# ----------------------------------------------------------------------


def _strip_time_column(csv_text: str) -> str:
    lines = csv_text.strip().split("\n")
    return "\n".join(line.rsplit(",", 1)[0] for line in lines)


def test_criterion_9_sweep_determinism(tmp_path):
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    (config_dir / "a.json").write_text(
        json.dumps(
            {
                "problem": "synthetic",
                "n": 4,
                "p": 4,
                "c": 1.0,
                "seed": 11,
                "solver": ["spg", "subgda"],
                "max_iter": 500,
            }
        )
    )
    (config_dir / "b.json").write_text(
        json.dumps({"problem": "example1", "solver": "spg", "seed": 3})
    )

    outputs = []
    for run in range(2):
        out = tmp_path / f"sweep-{run}.csv"
        rc = cli_main(["sweep", "--config-dir", str(config_dir), "--out", str(out)])
        assert rc == 0
        outputs.append(out.read_text())

    stripped = [_strip_time_column(text) for text in outputs]
    ok = (
        stripped[0] == stripped[1]
        and stripped[0].startswith("solver,n,p,c,seed,fval,iter,stat,feas")
        and len(stripped[0].split("\n")) == 4  # header + three rows
    )
    assert _verdict(
        9, ok, "repeated sweeps byte-identical after dropping the timing column"
    )
