"""Instance generators: the random bilinear family and the 1-D example.

Spectral-norm checks use dense numpy linear algebra as the oracle; the
power-iteration result must agree to high relative accuracy. Oracle
formulas are compared against their dense matrix counterparts on
seeded random points.
"""

import numpy as np
import pytest

from pfbe import problems
from pfbe.problems import (
    Example1Instance,
    SyntheticInstance,
    make_example1,
    make_synthetic,
    spectral_norm_power,
    synthetic_from_data,
)
from pfbe.rng import NormalStream


def _dense_base_hessian(B):
    # Hessian of g(x, y) = b.x + x.By - |y|^2/2 in the joint (x, y) variable
    n, p = B.shape
    H = np.zeros((n + p, n + p))
    H[:n, n:] = B
    H[n:, :n] = B.T
    H[n:, n:] = -np.eye(p)
    return H


def _dense_lifted_hessian(B):
    # Hessian of L(x, lam, y) = g(x, y) - lam . c(x, y) in (x, lam, y)
    n, p = B.shape
    m = min(n, p)
    E = np.zeros((n, m))
    E[:m, :m] = np.eye(m)
    F = np.zeros((p, m))
    F[:m, :m] = np.eye(m)
    d = n + m + p
    H = np.zeros((d, d))
    H[:n, n:n + m] = -E
    H[n:n + m, :n] = -E.T
    H[:n, n + m:] = B
    H[n + m:, :n] = B.T
    H[n:n + m, n + m:] = -F.T
    H[n + m:, n:n + m] = -F
    H[n + m:, n + m:] = -np.eye(p)
    return H


# ---------------------------------------------------------------------------
# generator determinism and pinned draw order


def test_make_synthetic_deterministic():
    a = make_synthetic(6, 4, 1.0, 42)
    b = make_synthetic(6, 4, 1.0, 42)
    assert np.array_equal(a.B, b.B)
    assert np.array_equal(a.b, b.b)
    c = make_synthetic(6, 4, 1.0, 43)
    assert not np.array_equal(a.B, c.B)


def test_make_synthetic_draw_order():
    # pinned: B row-major first, then b, then b scaled to the unit sphere
    inst = make_synthetic(3, 5, 2.0, 77)
    stream = NormalStream(77)
    B = stream.array(3, 5)
    braw = stream.array(3)
    assert np.array_equal(inst.B, B)
    assert np.array_equal(inst.b, braw / np.linalg.norm(braw))


def test_make_synthetic_fields():
    inst = make_synthetic(4, 7, 0.5, 3)
    assert inst.n == 4 and inst.p == 7 and inst.lifted.m == 4
    assert inst.c == 0.5 and inst.seed == 3
    assert inst.lifted.problem.mu == inst.coupled.g.strong_concavity == 1.0
    assert abs(np.linalg.norm(inst.b) - 1.0) <= 1e-14
    assert inst.coupled.dim_x == 4
    assert inst.coupled.dim_y == 7
    assert inst.coupled.dim_c == 4
    assert inst.lifted.problem.dim_x == 4 + 4  # x block plus multipliers
    assert inst.lifted.problem.dim_y == 7


def test_make_synthetic_rejects_bad_sizes_and_seeds():
    with pytest.raises(ValueError):
        make_synthetic(0, 3)
    with pytest.raises(ValueError):
        make_synthetic(3, 0)
    with pytest.raises(ValueError):
        make_synthetic(3, 3, 1.0, -1)


def test_synthetic_from_data_no_normalization():
    inst = synthetic_from_data([[1.0]], [2.0], 1.0)
    assert inst.b.tolist() == [2.0]
    with pytest.raises(ValueError):
        synthetic_from_data([1.0, 2.0], [1.0], 1.0)


# ---------------------------------------------------------------------------
# oracle formulas against dense linear algebra


def test_synthetic_oracle_formulas():
    inst = make_synthetic(5, 3, 1.5, 11)
    B, b, m = inst.B, inst.b, inst.lifted.m
    g = inst.coupled.g
    con = inst.coupled.c
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = rng.uniform(0, 1, size=5)
        y = rng.standard_normal(3)
        lam = rng.uniform(0, 2, size=m)
        v = rng.standard_normal(3)
        assert np.isclose(
            float(g.eval(x, y)), b @ x + x @ B @ y - 0.5 * y @ y, rtol=1e-14, atol=1e-14
        )
        assert np.allclose(g.grad_x(x, y), b + B @ y, atol=1e-14)
        assert np.allclose(g.grad_y(x, y), B.T @ x - y, atol=1e-14)
        assert np.allclose(g.hvp_yy(x, y, v), -v, atol=0)
        assert np.allclose(g.hvp_xy(x, y, v), B @ v, atol=1e-14)
        assert np.allclose(con.eval_c(x, y), x[:m] + y[:m] - 1.5, atol=1e-14)
        # adjoint products of the linear constraint
        full_lam_x = np.concatenate([lam, np.zeros(5 - m)])
        assert np.allclose(con.jvp_x(x, y, lam), full_lam_x, atol=0)
        assert np.allclose(con.jvp_y(x, y, lam), lam, atol=0)
        assert np.allclose(con.dc_y(x, y, v), v[:m], atol=0)
    assert con.linear_in_y


def test_inner_argmax_zeroes_lifted_y_gradient():
    inst = make_synthetic(4, 6, 1.0, 21)
    lifted = inst.lifted
    rng = np.random.default_rng(22)
    for _ in range(25):
        x = rng.uniform(0, 1, size=4)
        lam = rng.uniform(0, 3, size=inst.lifted.m)
        ystar = inst.B.T @ x - np.concatenate([lam, np.zeros(inst.p - inst.lifted.m)])
        z = lifted.join(x, lam)
        gy = lifted.problem.f.grad_y(z, ystar)
        assert np.linalg.norm(gy) <= 1e-12


def test_spectral_norm_power_matches_dense():
    for n, p, seed in [(3, 3, 1), (5, 2, 2), (2, 6, 3), (8, 8, 4)]:
        inst = make_synthetic(n, p, 1.0, seed)
        dense_g = np.linalg.norm(_dense_base_hessian(inst.B), 2)
        dense_l = np.linalg.norm(_dense_lifted_hessian(inst.B), 2)
        # g declares the lifted constant, which bounds its own by interlacing
        assert dense_g <= inst.coupled.g.lipschitz_grad
        assert abs(inst.lifted.problem.lipschitz - dense_l) <= 1e-9 * dense_l


def test_base_lipschitz_closed_form():
    # eigenvalues of [[0, B], [B^T, -I]] give L = (1 + sqrt(1 + 4 s^2)) / 2
    # with s the top singular value of B
    inst = make_synthetic(6, 5, 1.0, 9)
    s = np.linalg.norm(inst.B, 2)
    expect = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * s * s))
    dense_g = np.linalg.norm(_dense_base_hessian(inst.B), 2)
    assert abs(dense_g - expect) <= 1e-9 * expect
    assert dense_g <= inst.coupled.g.lipschitz_grad


def test_one_power_iteration_per_instance(monkeypatch):
    calls = []
    real = problems.spectral_norm_power
    monkeypatch.setattr(
        problems, "spectral_norm_power", lambda *args: calls.append(args[1]) or real(*args)
    )
    for n, p in [(3, 3), (5, 2), (2, 6)]:
        calls.clear()
        inst = make_synthetic(n, p, 1.0, 7)
        assert calls == [n + inst.lifted.m + p]  # the lifted Hessian's dimension
        assert inst.coupled.g.lipschitz_grad == inst.lifted.problem.lipschitz


def test_spectral_norm_power_simple_matrix():
    A = np.array([[3.0, 0.0], [0.0, -4.0]])
    got = spectral_norm_power(lambda v: A @ v, 2)
    assert abs(got - 4.0) <= 1e-10


def test_default_start_feasible():
    inst = make_synthetic(3, 4, 1.0, 5)
    z0, y0 = inst.default_start()
    assert inst.lifted.problem.X.contains(z0)
    assert inst.lifted.problem.Y.contains(y0)
    x0, lam0 = inst.lifted.split(z0)
    assert inst.coupled.X.contains(x0)
    assert inst.lifted.polar_cone.contains(lam0)


# ---------------------------------------------------------------------------
# the 1-D polynomial-constraint example


def test_example1_oracles_hand_values():
    inst = make_example1()
    g = inst.coupled.g
    con = inst.coupled.c
    x, y = np.array([2.0]), np.array([3.0])
    # g = -(y - 2x)^2 / 2 = -(3 - 4)^2 / 2
    assert float(g.eval(x, y)) == -0.5
    assert g.grad_x(x, y).tolist() == [2.0 * (3.0 - 4.0)]
    assert g.grad_y(x, y).tolist() == [-(3.0 - 4.0)]
    # c = (y - x, y - x^4)
    assert con.eval_c(x, y).tolist() == [1.0, 3.0 - 16.0]
    lam = np.array([0.5, 0.25])
    # grad_x <lam, c> = -lam1 - 4 x^3 lam2
    assert con.jvp_x(x, y, lam).tolist() == [-0.5 - 4.0 * 8.0 * 0.25]
    assert con.jvp_y(x, y, lam).tolist() == [0.75]
    assert con.dc_y(x, y, np.array([2.0])).tolist() == [2.0, 2.0]


def test_example1_gradient_lipschitz_is_hessian_norm():
    # Hessian of g is [[-4, 2], [2, -1]]: eigenvalues 0 and -5
    inst = make_example1()
    H = np.array([[-4.0, 2.0], [2.0, -1.0]])
    assert inst.coupled.g.lipschitz_grad == np.linalg.norm(H, 2) == 5.0


def test_example1_named_points_feasible():
    inst = make_example1()
    for x, lam, y in (inst.spurious_point(), inst.minimax_point()):
        assert inst.coupled.X.contains(x)
        assert inst.lifted.polar_cone.contains(lam)
        # y attains the binding constraint: c(x, y) <= 0 with equality in c1
        cval = inst.coupled.c.eval_c(x, y)
        assert cval[0] == 0.0
        assert np.all(cval <= 1e-12)


def test_example1_minimax_point_attains_value_min():
    inst = make_example1()
    x, _, y = inst.minimax_point()
    # the value function -x^2/2 is least on [1, 10] at x = 10
    xs = np.linspace(1.0, 10.0, 1001)
    assert -0.5 * x[0] ** 2 == (-0.5 * xs**2).min()
    assert float(inst.coupled.g.eval(x, y)) == -50.0


def test_example1_structure():
    inst = make_example1()
    assert inst.coupled.dim_x == 1
    assert inst.coupled.dim_y == 1
    assert inst.coupled.dim_c == 2
    assert inst.lifted.problem.mu == inst.coupled.g.strong_concavity == 1.0
    assert inst.lifted.problem.dim_x == 3
    z0, y0 = inst.default_start()
    assert inst.lifted.problem.X.contains(z0)
    assert inst.lifted.problem.Y.contains(y0)
