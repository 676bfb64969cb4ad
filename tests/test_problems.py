"""Instance generators: the random bilinear family and the 1-D example.

Spectral-norm checks use dense numpy linear algebra as the oracle; the
power-iteration result must agree to high relative accuracy. Oracle
formulas are compared against their dense matrix counterparts on
seeded random points.
"""

from dataclasses import fields

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
    assert inst.B.shape == (4, 7) and inst.lifted.m == 4
    assert np.array_equal(inst.lifted.base.c.eval_c(np.zeros(4), np.zeros(7)), np.full(4, -0.5))
    assert inst.lifted.problem.mu == inst.lifted.base.g.strong_concavity == 1.0
    assert abs(np.linalg.norm(inst.b) - 1.0) <= 1e-14
    assert inst.lifted.base.dim_x == 4
    assert inst.lifted.base.dim_y == 7
    assert inst.lifted.base.dim_c == 4
    assert inst.lifted.problem.dim_x == 4 + 4  # x block plus multipliers
    assert inst.lifted.problem.dim_y == 7


def test_an_instance_is_its_draw_and_its_lifted_problem():
    # the coupled problem and the start are read from the lifted problem
    assert [f.name for f in fields(SyntheticInstance)] == ["B", "b", "lifted"]
    assert [f.name for f in fields(Example1Instance)] == ["lifted"]


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
    for shape in ((2, 0), (0, 2), (0, 0)):
        with pytest.raises(ValueError, match=rf"^B must have no empty dimension, got shape "
                                             rf"\({shape[0]}, {shape[1]}\)$"):
            synthetic_from_data(np.zeros(shape), np.ones(shape[0]), 1.0)


@pytest.mark.parametrize("bad", ["B", "b"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_synthetic_from_data_rejects_non_finite_data(monkeypatch, bad, value):
    def no_power_run(*args):
        raise AssertionError("the power iteration ran on bad data")

    monkeypatch.setattr(problems, "spectral_norm_power", no_power_run)
    data = {"B": np.eye(2), "b": np.zeros(2)}
    data[bad].flat[0] = value
    with pytest.raises(ValueError, match=f"^{bad} must be finite"):
        synthetic_from_data(data["B"], data["b"], 1.0)


# ---------------------------------------------------------------------------
# oracle formulas against dense linear algebra


def test_synthetic_oracle_formulas():
    inst = make_synthetic(5, 3, 1.5, 11)
    B, b, m = inst.B, inst.b, inst.lifted.m
    g = inst.lifted.base.g
    con = inst.lifted.base.c
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
        # the constraint is affine in y with a constant coefficient
        assert np.array_equal(con.hvp_xy_lam(x, y, lam, v), np.zeros(5))
        assert np.array_equal(con.hvp_yy_lam(x, y, lam, v), np.zeros(3))


@pytest.mark.parametrize("rows", [1, 3, 20])
@pytest.mark.parametrize("n, p", [(1, 1), (2, 5), (33, 20), (50, 50)])
def test_stacked_products_give_each_row_its_1d_bits(n, p, rows):
    # every stacked oracle call rests on these two products keeping, row by
    # row, the bits of the one-point call
    rng = np.random.default_rng(n * p + rows)
    B = rng.standard_normal((n, p))
    for A in (B, B.T):
        V = rng.standard_normal((rows, A.shape[1]))
        out = np.matvec(A, V)
        assert out.shape == (rows, A.shape[0])
        for r in range(rows):
            assert out[r].tobytes() == np.matvec(A, V[r]).tobytes()
    U, W = rng.standard_normal((2, rows, n + p))
    for u, w in ((U, W), (U[0], W), (U, W[0])):  # a 1-D operand pairs with every row
        out = np.vecdot(u, w)
        assert out.shape == (rows,) and out.dtype == np.float64
        for r, (ur, wr) in enumerate(zip(*np.broadcast_arrays(u, w))):
            one = np.vecdot(ur, wr)  # two 1-D vectors: a 0-d float64
            assert type(one) is np.float64
            assert one.tobytes() == out[r].tobytes() == np.float64(float(ur @ wr)).tobytes()


@pytest.mark.parametrize("n", [10, 50, 200, 400])
def test_a_stack_of_matrices_gives_each_row_its_1d_bits(n):
    # batched seeds would stack one B per row: np.matvec of a stack of
    # matrices, and of their transposes, keeps each row's one-matrix bits
    rows = 3
    rng = np.random.default_rng(n)
    A = rng.standard_normal((rows, n, n))
    V = rng.standard_normal((rows, n))
    out, out_t = np.matvec(A, V), np.matvec(A.mT, V)
    assert out.shape == out_t.shape == (rows, n)
    for i in range(rows):
        assert out[i].tobytes() == (A[i] @ V[i]).tobytes()
        assert out_t[i].tobytes() == (A[i].T @ V[i]).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 64, 129, 600, 1200])
def test_dot_of_two_vectors_has_the_bits_of_their_matmul(d):
    # SPG's Barzilai-Borwein products at n = p = 200 and 400 take vectors of
    # n + m + p = 600 and 1200 entries
    rng = np.random.default_rng(d)
    for u, v in rng.standard_normal((10, 2, d)):
        assert np.vecdot(u, v).tobytes() == np.float64(float(u @ v)).tobytes()


def _along(fn, x, y, v, *rest, h=1e-3):
    """``d/dt fn(x, y + t v, *rest)`` at ``t = 0`` by a central difference;
    both built-in constraints are affine in y, so a long step loses nothing
    to truncation and little to the rounding of ``x^4``."""
    return (np.asarray(fn(x, y + h * v, *rest)) - np.asarray(fn(x, y - h * v, *rest))) / (2 * h)


def _builtin_constraint_points(case, rng):
    """``(constraint, x, y, lam, v)`` at a point and at a 3-row stack."""
    for rows in ((), (3,)):
        if case == "example1":
            yield (make_example1().lifted.base.c, rng.uniform(1, 10, rows + (1,)),
                   rng.normal(size=rows + (1,)), rng.uniform(0, 3, rows + (2,)),
                   rng.normal(size=rows + (1,)))
            continue
        n, p = case
        inst = make_synthetic(n, p, 1.0, n + p)
        yield (inst.lifted.base.c, rng.uniform(0, 1, rows + (n,)), rng.normal(size=rows + (p,)),
               rng.uniform(0, 2, rows + (inst.lifted.m,)), rng.normal(size=rows + (p,)))


@pytest.mark.parametrize("case", [(5, 5), (4, 3), (3, 4), "example1"], ids=str)
def test_builtin_constraint_products_against_central_differences(case):
    # dc_y differentiates c, hvp_xy_lam jvp_x and hvp_yy_lam jvp_y, each along v
    rng = np.random.default_rng(31)
    for con, x, y, lam, v in _builtin_constraint_points(case, rng):
        for exact, fd in (
            (con.dc_y(x, y, v), _along(con.eval_c, x, y, v)),
            (con.hvp_xy_lam(x, y, lam, v), _along(con.jvp_x, x, y, v, lam)),
            (con.hvp_yy_lam(x, y, lam, v), _along(con.jvp_y, x, y, v, lam)),
        ):
            assert np.shape(exact) == fd.shape
            assert np.allclose(exact, fd, rtol=1e-7, atol=1e-7)


def test_inner_argmax_zeroes_lifted_y_gradient():
    inst = make_synthetic(4, 6, 1.0, 21)
    lifted = inst.lifted
    rng = np.random.default_rng(22)
    for _ in range(25):
        x = rng.uniform(0, 1, size=4)
        lam = rng.uniform(0, 3, size=inst.lifted.m)
        ystar = inst.B.T @ x - np.concatenate([lam, np.zeros(lifted.base.dim_y - lifted.m)])
        z = lifted.join(x, lam)
        gy = lifted.problem.f.grad_y(z, ystar)
        assert np.linalg.norm(gy) <= 1e-12


def test_spectral_norm_power_matches_dense():
    for n, p, seed in [(3, 3, 1), (5, 2, 2), (2, 6, 3), (8, 8, 4)]:
        inst = make_synthetic(n, p, 1.0, seed)
        dense_g = np.linalg.norm(_dense_base_hessian(inst.B), 2)
        dense_l = np.linalg.norm(_dense_lifted_hessian(inst.B), 2)
        # g declares the lifted constant, which bounds its own by interlacing
        assert dense_g <= inst.lifted.base.g.lipschitz_grad
        assert abs(inst.lifted.problem.lipschitz - dense_l) <= 1e-9 * dense_l


def test_base_lipschitz_closed_form():
    # eigenvalues of [[0, B], [B^T, -I]] give L = (1 + sqrt(1 + 4 s^2)) / 2
    # with s the top singular value of B
    inst = make_synthetic(6, 5, 1.0, 9)
    s = np.linalg.norm(inst.B, 2)
    expect = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * s * s))
    dense_g = np.linalg.norm(_dense_base_hessian(inst.B), 2)
    assert abs(dense_g - expect) <= 1e-9 * expect
    assert dense_g <= inst.lifted.base.g.lipschitz_grad


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
        assert inst.lifted.base.g.lipschitz_grad == inst.lifted.problem.lipschitz


def test_spectral_norm_power_simple_matrix():
    A = np.array([[3.0, 0.0], [0.0, -4.0]])
    got = spectral_norm_power(lambda v: A @ v, 2)
    assert abs(got - 4.0) <= 1e-10
    assert spectral_norm_power(lambda v: 0.0 * v, 3) == 0.0
    assert spectral_norm_power(lambda v: v, 0) == 0.0


def test_default_start_feasible():
    inst = make_synthetic(3, 4, 1.0, 5)
    z0, y0 = inst.lifted.default_start()
    assert inst.lifted.problem.X.contains(z0)
    assert inst.lifted.problem.Y.contains(y0)
    x0, lam0 = inst.lifted.split(z0)
    assert inst.lifted.base.X.contains(x0)
    assert inst.lifted.polar_cone.contains(lam0)


# ---------------------------------------------------------------------------
# the 1-D polynomial-constraint example


def test_example1_oracles_hand_values():
    inst = make_example1()
    g = inst.lifted.base.g
    con = inst.lifted.base.c
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


def test_example1_callables_give_each_row_of_a_stack_its_1d_bits():
    base = make_example1().lifted.base
    g, con = base.g, base.c
    rng = np.random.default_rng(40)
    k = 200
    x, y, v = (rng.uniform(1, 10, (k, 1)) for _ in range(3))
    lam = rng.uniform(1, 10, (k, 2))
    calls = {
        "eval": (g.eval, (x, y)), "grad_x": (g.grad_x, (x, y)), "grad_y": (g.grad_y, (x, y)),
        "hvp_yy": (g.hvp_yy, (x, y, v)), "hvp_xy": (g.hvp_xy, (x, y, v)),
        "eval_c": (con.eval_c, (x, y)), "jvp_x": (con.jvp_x, (x, y, lam)),
        "jvp_y": (con.jvp_y, (x, y, lam)), "dc_y": (con.dc_y, (x, y, v)),
        "hvp_xy_lam": (con.hvp_xy_lam, (x, y, lam, v)),
        "hvp_yy_lam": (con.hvp_yy_lam, (x, y, lam, v)),
    }
    for name, (fn, args) in calls.items():
        stack = np.asarray(fn(*args))
        assert stack.shape[0] == k, name
        for i in range(k):
            one = np.asarray(fn(*(a[i] for a in args)))
            assert stack[i].shape == one.shape and stack[i].tobytes() == one.tobytes(), name


def test_example1_gradient_lipschitz_is_hessian_norm():
    # Hessian of g is [[-4, 2], [2, -1]]: eigenvalues 0 and -5
    inst = make_example1()
    H = np.array([[-4.0, 2.0], [2.0, -1.0]])
    assert inst.lifted.base.g.lipschitz_grad == np.linalg.norm(H, 2) == 5.0


def test_example1_named_points_feasible():
    inst = make_example1()
    for x, lam, y in (inst.spurious_point(), inst.minimax_point()):
        assert inst.lifted.base.X.contains(x)
        assert inst.lifted.polar_cone.contains(lam)
        # y attains the binding constraint: c(x, y) <= 0 with equality in c1
        cval = inst.lifted.base.c.eval_c(x, y)
        assert cval[0] == 0.0
        assert np.all(cval <= 1e-12)


def test_example1_minimax_point_attains_value_min():
    inst = make_example1()
    x, _, y = inst.minimax_point()
    # the value function -x^2/2 is least on [1, 10] at x = 10
    xs = np.linspace(1.0, 10.0, 1001)
    assert -0.5 * x[0] ** 2 == (-0.5 * xs**2).min()
    assert float(inst.lifted.base.g.eval(x, y)) == -50.0


def test_example1_structure():
    inst = make_example1()
    assert inst.lifted.base.dim_x == 1
    assert inst.lifted.base.dim_y == 1
    assert inst.lifted.base.dim_c == 2
    assert inst.lifted.problem.mu == inst.lifted.base.g.strong_concavity == 1.0
    assert inst.lifted.problem.dim_x == 3
    z0, y0 = inst.lifted.default_start()
    assert inst.lifted.problem.X.contains(z0)
    assert inst.lifted.problem.Y.contains(y0)
