"""Built-in problem instances: the random synthetic family and the
one-dimensional polynomial-constraint example.

Synthetic family (sizes ``n``, ``p``, level ``c``):

    min over x in [0,1]^n  max over {y in R^p : x_i + y_i <= c, i < m}
        <b, x> + <x, B y> - ||y||^2 / 2,     m = min(n, p)

with ``B`` standard normal (row-major draw order) and ``b`` standard
normal scaled to the unit sphere, both from the pinned deterministic
stream, so instances regenerate identically from the seed. One power
iteration per instance gives the gradient Lipschitz constant of the
lifted coupling, which ``g`` declares too: deleting the multiplier rows
and columns of the lifted Hessian leaves g's, so by interlacing it bounds
g's.

The polynomial example (``n = p = 1``):

    min over x in [1,10]  max over {y : y <= x, y <= x^4}   -(y - 2x)^2 / 2

has value function ``-x^2/2`` and true minimax point ``(10, 10)``, but
its lifted formulation also admits a spurious stationary point at
``x = 1`` with multiplier ``(2/3, 1/3)``: lifted stationarity without a
qualification can sit away from any constrained minimax point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ConstraintOracle,
    CoupledProblem,
    DegenerateNormalization,
    FunctionOracle,
    Vector,
    as_vector,
    check_int,
    check_real,
)
from .lagrangian import LiftedProblem, lift
from .rng import NormalStream
from .sets import BoxSet, OrthantCone, WholeSpace

POWER_MAX_ITER = 500
POWER_TOL = 1e-13


def spectral_norm_power(matvec: Callable[[Vector], Vector], dim: int) -> float:
    """Spectral norm of a symmetric operator by power iteration on its square.

    Deterministic start (normalized ones vector); iterating on the
    squared operator avoids sign oscillation between extreme eigenvalue
    pairs of equal magnitude. A zero operator, one of dimension 0
    included, has norm 0.

    The result approaches the norm from below, so it is a lower bound, not
    an upper one. It can also stop at ``POWER_MAX_ITER`` before the
    ``POWER_TOL`` test passes: it does so on 5 of the 6 ``spg-large``
    draws of the benchmark (n = 400 seeds 1-3, n = 200 seeds 1 and 3),
    where the synthetic ``L_lift`` lies up to 2.5e-6 relative below the
    norm. ROADMAP item 20 owns a declared ``L`` that bounds the true one.
    """
    w = np.ones(dim) / np.sqrt(dim)
    prev = 0.0
    nz = 0.0
    for _ in range(POWER_MAX_ITER):
        z = matvec(matvec(w))
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            return 0.0
        w = z / nz
        if abs(nz - prev) <= POWER_TOL * max(1.0, nz):
            break
        prev = nz
    return float(np.sqrt(nz))


def _pad(v: Vector, dim: int) -> Vector:
    """``v`` zero-padded to ``dim`` entries, row by row for a stack; ``v``
    itself when it has them."""
    if v.shape[-1] == dim:
        return v
    out = np.zeros(v.shape[:-1] + (dim,))
    out[..., : v.shape[-1]] = v
    return out


def _zero_hvp_xy_lam(x, y, lam, v) -> Vector:
    """``hvp_xy_lam`` of ``c = A y + a(x)``, ``A`` constant: zeros like ``x``."""
    return np.zeros(np.shape(x))


def _zero_hvp_yy_lam(x, y, lam, v) -> Vector:
    """``hvp_yy_lam`` of ``c`` affine in ``y``: zeros like ``v``."""
    return np.zeros(np.shape(v))


@dataclass(frozen=True, eq=False)
class SyntheticInstance:
    """One generated bilinearly-coupled instance with its lifted problem;
    ``lifted`` and ``lifted.base.g`` both declare the lifted coupling's
    gradient Lipschitz constant."""

    B: np.ndarray
    b: np.ndarray
    lifted: LiftedProblem


def _synthetic_oracles(
    B: np.ndarray, b: np.ndarray, c_value: float, L_lift: float
) -> tuple[FunctionOracle, ConstraintOracle]:
    """The coupling ``g`` and the constraint ``c``; each callable takes a
    point or a stack, and ``c``'s products may return a view of theirs."""
    n, p = B.shape
    m = min(n, p)
    # np.matvec gives each row of a stack the bits of the 1-D product; v @ B.T does not

    def g_eval(x, y):
        return np.vecdot(b, x) + np.vecdot(x, np.matvec(B, y)) - 0.5 * np.vecdot(y, y)

    def g_grad_x(x, y):
        return b + np.matvec(B, y)

    def g_grad_y(x, y):
        return np.matvec(B.T, x) - y

    def g_first_order(x, y):  # one B y for the value and grad_x
        By = np.matvec(B, y)
        return np.vecdot(b, x) + np.vecdot(x, By) - 0.5 * np.vecdot(y, y), b + By, g_grad_y(x, y)

    def g_hvp_yy(x, y, v):
        return -v

    def g_hvp_xy(x, y, v):
        return np.matvec(B, v)

    def c_eval(x, y):
        return x[..., :m] + y[..., :m] - c_value

    def c_jvp_x(x, y, lam):
        return _pad(lam, n)

    def c_jvp_y(x, y, lam):
        return _pad(lam, p)

    def c_dc_y(x, y, v):
        return v[..., :m]

    g = FunctionOracle(
        eval=g_eval,
        grad_x=g_grad_x,
        grad_y=g_grad_y,
        lipschitz_grad=L_lift,
        strong_concavity=1.0,
        hvp_yy=g_hvp_yy,
        hvp_xy=g_hvp_xy,
        first_order=g_first_order,
    )
    con = ConstraintOracle(
        dim=m,
        eval_c=c_eval,
        jvp_x=c_jvp_x,
        jvp_y=c_jvp_y,
        dc_y=c_dc_y,
        hvp_xy_lam=_zero_hvp_xy_lam,
        hvp_yy_lam=_zero_hvp_yy_lam,
    )
    return g, con


def _synthetic_hessian_matvec(B: np.ndarray) -> Callable[[Vector], Vector]:
    """Matvec of the full symmetric quadratic block over (x, lam, y)."""
    n, p = B.shape
    m = min(n, p)

    def matvec(v: Vector) -> Vector:
        vx, vl, vy = v[:n], v[n : n + m], v[n + m :]
        out_x = B @ vy - _pad(vl, n)
        out_l = -(vx[:m] + vy[:m])
        out_y = B.T @ vx - _pad(vl, p) - vy
        return np.concatenate([out_x, out_l, out_y])

    return matvec


def synthetic_from_data(B, b, c_value: float) -> SyntheticInstance:
    """Build the synthetic instance from explicit finite ``B`` and ``b`` (as
    given, no normalization), e.g. for pinned tiny cases, at the finite
    level ``c_value``."""
    check_real("c_value", c_value)
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError("B must be a matrix")
    if B.size == 0:
        raise ValueError(f"B must have no empty dimension, got shape {B.shape}")
    n, p = B.shape
    b = as_vector(b, n, "b")
    for name, data in (("B", B), ("b", b)):
        if not np.isfinite(data).all():
            raise ValueError(f"{name} must be finite")
    m = min(n, p)
    # g declares it too: by interlacing it bounds g's constant
    L_lift = spectral_norm_power(_synthetic_hessian_matvec(B), n + m + p)
    g, con = _synthetic_oracles(B, b, c_value, L_lift)
    coupled = CoupledProblem(
        g=g,
        c=con,
        X=BoxSet(np.zeros(n), np.ones(n)),
        Y=WholeSpace(p),
        K=OrthantCone(m, sign=-1),
    )
    return SyntheticInstance(B=B, b=b, lifted=lift(coupled, lipschitz_grad=L_lift))


def make_synthetic(n: int, p: int, c_value: float = 1.0, seed: int = 1) -> SyntheticInstance:
    """Generate the random instance for ``(n, p, c, seed)``.

    Draw order (pinned): ``B`` row-major, then ``b``, then ``b`` is
    scaled to the unit sphere. Identical seeds regenerate identical
    instances bit for bit.
    """
    check_int("n", n, 1)
    check_int("p", p, 1)
    stream = NormalStream(seed)
    B = stream.array(n, p)
    b = stream.array(n)
    nb = float(np.linalg.norm(b))
    if nb < 1e-300:
        raise DegenerateNormalization("draw of b has zero norm")
    b = b / nb
    return synthetic_from_data(B, b, c_value)


@dataclass(frozen=True, eq=False)
class Example1Instance:
    """The 1-D polynomial-constraint example and its lifted problem."""

    lifted: LiftedProblem

    def spurious_point(self) -> tuple[Vector, Vector, Vector]:
        """Lifted stationary point at the qualification failure (x = 1)."""
        return (
            np.array([1.0]),
            np.array([2.0 / 3.0, 1.0 / 3.0]),
            np.array([1.0]),
        )

    def minimax_point(self) -> tuple[Vector, Vector, Vector]:
        """The true constrained minimax point with its recovered multiplier."""
        return (np.array([10.0]), np.array([10.0, 0.0]), np.array([10.0]))


def make_example1() -> Example1Instance:
    """Build ``min_{x in [1,10]} max_{y <= x, y <= x^4} -(y - 2x)^2 / 2``."""

    # [..., :1] keeps the last axis: a point and a stack's row run the same kernels
    def g_eval(x, y):
        d = y[..., :1] - 2.0 * x[..., :1]
        return -0.5 * np.vecdot(d, d)

    def g_grad_x(x, y):
        return 2.0 * (y[..., :1] - 2.0 * x[..., :1])

    def g_grad_y(x, y):
        return -(y[..., :1] - 2.0 * x[..., :1])

    def g_hvp_yy(x, y, v):
        return -np.asarray(v, dtype=np.float64)

    def g_hvp_xy(x, y, v):
        return 2.0 * np.asarray(v, dtype=np.float64)

    def c_eval(x, y):
        return np.concatenate([y[..., :1] - x[..., :1], y[..., :1] - x[..., :1] ** 4], axis=-1)

    def c_jvp_x(x, y, lam):
        return -lam[..., :1] - 4.0 * x[..., :1] ** 3 * lam[..., 1:]

    def c_jvp_y(x, y, lam):
        return lam[..., :1] + lam[..., 1:]

    def c_dc_y(x, y, v):
        return np.concatenate([v[..., :1], v[..., :1]], axis=-1)

    g = FunctionOracle(
        eval=g_eval,
        grad_x=g_grad_x,
        grad_y=g_grad_y,
        lipschitz_grad=5.0,  # || [[-4, 2], [2, -1]] ||, g's Hessian
        strong_concavity=1.0,
        hvp_yy=g_hvp_yy,
        hvp_xy=g_hvp_xy,
    )
    con = ConstraintOracle(
        dim=2,
        eval_c=c_eval,
        jvp_x=c_jvp_x,
        jvp_y=c_jvp_y,
        dc_y=c_dc_y,
        hvp_xy_lam=_zero_hvp_xy_lam,
        hvp_yy_lam=_zero_hvp_yy_lam,
    )
    coupled = CoupledProblem(
        g=g,
        c=con,
        X=BoxSet([1.0], [10.0]),
        Y=WholeSpace(1),
        K=OrthantCone(2, sign=-1),
    )
    # no global constant exists for the lift (the x-lam cross term grows
    # like 4 x^3); this bound covers x in [1, 10] and multipliers up to
    # the recovered value 10 at the solution set
    return Example1Instance(lifted=lift(coupled, lipschitz_grad=5000.0))
