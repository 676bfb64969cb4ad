"""Self-contained invariant battery behind ``pfbe check``.

Each check recomputes its reference from scratch (hand formulas,
finite differences, or brute force) and compares against the library.
Prints one pass/fail line per check; returns the number of failures.
"""

from __future__ import annotations

import numpy as np

from .core import fd_gradient, fd_hvp
from .diagnostics import (
    check_polar_convexity,
    eps_minimax_mm,
    feasibility_mcc,
    stationarity_gamma,
)
from .envelope import EnvelopeConfig, evaluate, near_kink
from .lagrangian import kkt_residual_mol, multiplier_bound_monitor
from .problems import make_example1, make_synthetic, synthetic_from_data
from .rng import LANE_MIN_DRAWS, LANE_STEPS, NormalStream
from .sets import BoxSet, OrthantCone, WholeSpace, ZeroCone
from .solvers import SolverConfig, gamma_descent_check, solve_spg, solve_subgda


def _check_rng_reproducibility():
    # odd, on the lane path, and ending inside a partial lane; the second
    # stream enters array() with a pending spare
    k = LANE_MIN_DRAWS + 2 * LANE_STEPS + 1
    for seed, earlier in ((7, 0), (2**64 - 1, 1)):
        fast, ref = NormalStream(seed), NormalStream(seed)
        for _ in range(earlier):
            assert fast.next() == ref.next()
        got = fast.array(k)
        want = np.array([ref.next() for _ in range(k)])
        assert got.tobytes() == want.tobytes(), f"seed {seed}: array({k}) differs from next()"
        after = [fast.next() for _ in range(3)]
        assert after == [ref.next() for _ in range(3)], "stream diverges after array"
    a = make_synthetic(4, 3, 1.0, seed=7)
    b = make_synthetic(4, 3, 1.0, seed=7)
    assert np.array_equal(a.B, b.B) and np.array_equal(a.b, b.b), "instances differ"
    assert abs(np.linalg.norm(a.b) - 1.0) < 1e-12, "b not unit norm"
    return f"array({k}) equals {k} scalar draws bit for bit; seed 7 regenerates, ||b|| = 1"


def _check_moreau():
    rng = np.random.default_rng(0)
    worst = 0.0
    for K in (OrthantCone(6, sign=-1), WholeSpace(6), ZeroCone(6)):
        polar = K.polar()
        for _ in range(50):
            z = rng.normal(size=6) * 10
            zk, zp = K.project(z), polar.project(z)
            worst = max(worst, float(np.linalg.norm(zk + zp - z)), abs(float(zk @ zp)))
    assert worst <= 1e-10, f"moreau violation {worst}"
    return f"decomposition + orthogonality within {worst:.1e}"


def _check_projection_optimality():
    rng = np.random.default_rng(1)
    box = BoxSet(-np.ones(4), np.ones(4))
    mixed = BoxSet([-1.0, 0.0, -np.inf], [np.inf, 2.0, 0.5])  # finite and infinite bounds
    worst = -np.inf
    for _ in range(50):
        for S, d in ((box, 4), (mixed, 3)):
            z = rng.normal(size=d) * 5
            pz = S.project(z)
            v = S.project(rng.normal(size=d) * 5)  # arbitrary feasible point
            worst = max(worst, float((z - pz) @ (v - pz)))
    assert worst <= 1e-10, f"variational inequality violated by {worst}"
    return f"projection variational inequality slack {worst:.1e}"


def _check_oracles_fd():
    rng = np.random.default_rng(2)
    for inst in (make_synthetic(3, 2, 1.0, seed=3), make_example1()):
        base = inst.lifted.base
        g, n, p = base.g, base.dim_x, base.dim_y
        for _ in range(10):
            x = rng.uniform(0.5, 2.0, size=n)
            y = rng.normal(size=p)
            gx, gy = fd_gradient(g.eval, x, y)
            assert np.allclose(g.grad_x(x, y), gx, rtol=1e-5, atol=1e-7)
            assert np.allclose(g.grad_y(x, y), gy, rtol=1e-5, atol=1e-7)
            v = rng.normal(size=p)
            assert np.allclose(g.hvp_yy(x, y, v), fd_hvp(g.grad_y, x, y, v), rtol=1e-6, atol=1e-8)
            assert np.allclose(g.hvp_xy(x, y, v), fd_hvp(g.grad_x, x, y, v), rtol=1e-6, atol=1e-8)
    return "analytic gradients and HVPs match finite differences"


def _check_concavity_witness():
    rng = np.random.default_rng(3)
    inst = make_synthetic(4, 5, 1.0, seed=4)
    g = inst.lifted.base.g
    for _ in range(25):
        x = rng.uniform(size=4)
        y = rng.normal(size=5)
        d = rng.normal(size=5)
        quad = float(d @ g.hvp_yy(x, y, d))
        assert quad <= -g.strong_concavity * float(d @ d) + 1e-10
    return "curvature witness <= -mu ||d||^2 on random directions"


def _check_polar_convexity():
    rng = np.random.default_rng(4)
    inst = make_example1()
    polar = inst.lifted.polar_cone
    samples = [
        (
            rng.uniform(1, 10, size=1),
            polar.project(rng.normal(size=2) * 3),
            rng.normal(size=1) * 5,
            rng.normal(size=1) * 5,
        )
        for _ in range(50)
    ]
    assert check_polar_convexity(inst.lifted.base, samples)
    return "polar-weighted constraint is midpoint convex in y"


def _check_multiplier_gradient():
    inst = make_synthetic(3, 3, 1.0, seed=5)
    lifted = inst.lifted
    z = lifted.join(np.array([0.2, 0.8, 0.5]), np.array([0.1, 0.0, 2.0]))
    y = np.array([0.3, -0.4, 1.2])
    grad = lifted.problem.f.grad_x(z, y)
    cval = inst.lifted.base.c.eval_c(z[:3], y)
    assert np.array_equal(grad[3:], -cval), "multiplier gradient is not -c"
    return "lifted multiplier gradient equals -c(x, y) exactly"


def _check_envelope_gradient_fd():
    inst = make_synthetic(3, 2, 1.0, seed=6)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    rng = np.random.default_rng(7)
    checked = 0

    def xi(zz, yy):
        return evaluate(prob, cfg, zz, yy, need_grad=False).xi

    for _ in range(20):
        z = rng.normal(size=prob.dim_x) * 0.5 + 0.5
        y = rng.normal(size=prob.dim_y)
        ev = evaluate(prob, cfg, z, y)
        if near_kink(prob, ev):
            continue
        for exact, fd in zip((ev.grad_x, ev.grad_y), fd_gradient(xi, z, y)):
            assert np.all(np.abs(fd - exact) <= 1e-5 * (1 + np.abs(fd)))
        checked += 1
    assert checked >= 10, "too many kink skips"
    return f"smooth-part gradient matches FD at {checked} points"


def _check_sandwich():
    inst = make_synthetic(4, 3, 1.0, seed=8)
    prob = inst.lifted.problem
    L = prob.lipschitz
    eta = 0.5 / L
    cfg = EnvelopeConfig(eta=eta, alpha=EnvelopeConfig.threshold(eta, prob.mu))
    rng = np.random.default_rng(9)
    for _ in range(100):
        z = rng.normal(size=prob.dim_x)
        y = rng.normal(size=prob.dim_y)
        ev = evaluate(prob, cfg, z, y, need_grad=False)
        rr = float(ev.R @ ev.R)
        f_m_r2 = ev.f_val - prob.r2.value(y)
        lower = f_m_r2 + 0.5 * eta * rr
        assert ev.psi >= lower - 1e-10, "first sandwich bound violated"
        fT = float(prob.f.eval(z, ev.T)) - prob.r2.value(ev.T)
        assert fT >= ev.psi + 0.5 * eta * (1 - eta * L) * rr - 1e-10, "second bound violated"
    return "sandwich bounds hold at 100 random points"


def _check_equivalence_spot():
    inst = synthetic_from_data(np.array([[1.0]]), np.array([1.0]), 1.0)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig(eta=1.0, alpha=100.0)
    z_star = np.zeros(2)  # x = 0, lam = 0
    y_star = np.zeros(1)
    stat = stationarity_gamma(prob, cfg, z_star, y_star)
    eps = eps_minimax_mm(prob, cfg, z_star, y_star)
    assert stat <= 1e-10 and max(eps) <= 1e-9, f"stationary point rejected: {stat}, {eps}"
    z_off = np.array([0.7, 0.3])
    y_off = np.array([0.9])
    stat_off = stationarity_gamma(prob, cfg, z_off, y_off)
    eps_off = eps_minimax_mm(prob, cfg, z_off, y_off)
    assert stat_off > 1e-6 and max(eps_off) > 1e-6, "off point misclassified"
    return "residuals vanish exactly at the known stationary point, not off it"


def _check_example1_kkt():
    inst = make_example1()
    for x, lam, y in (inst.spurious_point(), inst.minimax_point()):
        res = kkt_residual_mol(inst.lifted, x, lam, y)
        assert res.max <= 1e-10, f"KKT residual {res}"
    x, lam, y = inst.spurious_point()
    ratio = multiplier_bound_monitor(inst.lifted, x, lam, y)
    assert abs(ratio - np.sqrt(5.0) / 6.0) <= 1e-12, f"monitor {ratio}"
    feas = feasibility_mcc(inst.lifted.base, x, y)
    assert feas == 0.0
    return "both lifted stationary points verified; monitor = sqrt(5)/6"


def _check_subgda_hand_step():
    inst = synthetic_from_data(np.array([[1.0]]), np.array([1.0]), 1.0)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig(eta=1.0, alpha=2.0)
    scfg = SolverConfig(max_iter=1, gtol=1e-300, eta_x=0.1, eta_y=0.1)
    res = solve_subgda(prob, cfg, scfg, np.array([1.0, 0.0]), np.array([0.0]))
    # hand iterate: x1 = clip(1 - 0.1*(b + By - lam)) = 0.9; lam1 = max(0, 0 - 0.1*(-(x+y-1)))
    # = max(0, -0.1*0) = 0; R(x1, y0) = x1 - y0 - lam1 = 0.9; y1 = 0 + 0.1*0.9
    expect = (0.9, 0.0, 0.09)
    got = (res.x[0], res.x[1], res.y[0])
    assert max(abs(a - b) for a, b in zip(got, expect)) <= 1e-12, f"iterate {got}"
    return "first iterate matches the hand computation to 1e-12"


def _check_solver_descent():
    inst = make_synthetic(2, 2, 1.0, seed=10)
    prob = inst.lifted.problem
    cfg = EnvelopeConfig.for_problem(prob)
    scfg = SolverConfig(max_iter=3000, gtol=1e-8)
    res = solve_spg(prob, cfg, scfg, *inst.lifted.default_start())
    assert res.converged, f"SPG stalled at stat={res.stat}"
    sub_cfg = SolverConfig(max_iter=400, gtol=1e-300, eta_x=1e-4)
    sub = solve_subgda(prob, cfg, sub_cfg, *inst.lifted.default_start())
    assert gamma_descent_check(sub.trace["gamma"]), "two-timescale trace not descending"
    return f"SPG converged in {res.iter} iters; small-step trace is monotone"


CHECKS = (
    ("rng-reproducibility", _check_rng_reproducibility),
    ("moreau-decomposition", _check_moreau),
    ("projection-optimality", _check_projection_optimality),
    ("oracle-derivatives", _check_oracles_fd),
    ("concavity-witness", _check_concavity_witness),
    ("polar-convexity", _check_polar_convexity),
    ("multiplier-gradient", _check_multiplier_gradient),
    ("envelope-gradient-fd", _check_envelope_gradient_fd),
    ("sandwich-bounds", _check_sandwich),
    ("equivalence-spot", _check_equivalence_spot),
    ("lifted-kkt-points", _check_example1_kkt),
    ("two-timescale-hand-step", _check_subgda_hand_step),
    ("solver-descent", _check_solver_descent),
)


def run_battery() -> int:
    """Run every check; print a line per result; return failure count."""
    failures = 0
    for name, fn in CHECKS:
        try:
            print(f"[PASS] {name}: {fn()}")
        except AssertionError as exc:
            failures += 1
            print(f"[FAIL] {name}: {exc}")
        except Exception as exc:  # noqa: BLE001 - battery reports, never crashes
            failures += 1
            print(f"[FAIL] {name}: unexpected {type(exc).__name__}: {exc}")
    total = len(CHECKS)
    print(f"{total - failures}/{total} checks passed")
    return failures
