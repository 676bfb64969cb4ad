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
from typing import Callable, Optional

import numpy as np

from .core import (
    ConstraintOracle,
    CoupledProblem,
    DegenerateNormalization,
    FunctionOracle,
    Vector,
    as_vector,
    row_dot,
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
    pairs of equal magnitude.
    """
    if dim == 0:
        return 0.0
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
    """``v`` zero-padded to ``dim`` entries, row by row for a stack."""
    out = np.zeros(v.shape[:-1] + (dim,))
    out[..., : v.shape[-1]] = v
    return out


def _matvec(A: np.ndarray, v: Vector) -> Vector:
    """``A @ v`` for a vector, and for each row of a stack (the stacked
    matrix-vector products keep the bits of the 1-D one; ``v @ A.T`` would
    not)."""
    return A @ v if v.ndim == 1 else (A @ v[..., None])[..., 0]


@dataclass(frozen=True, eq=False)
class SyntheticInstance:
    """One generated bilinearly-coupled instance with its lifted problem;
    ``lifted`` and ``coupled.g`` both declare the lifted coupling's
    gradient Lipschitz constant."""

    n: int
    p: int
    c: float
    seed: Optional[int]
    B: np.ndarray
    b: np.ndarray
    coupled: CoupledProblem
    lifted: LiftedProblem

    def default_start(self) -> tuple[Vector, Vector]:
        return self.lifted.default_start()


def _synthetic_oracles(B: np.ndarray, b: np.ndarray, c_value: float):
    """The coupling and constraint callables; each takes a point or a stack."""
    n, p = B.shape
    m = min(n, p)

    def g_eval(x, y):
        return row_dot(b, x) + row_dot(x, _matvec(B, y)) - 0.5 * row_dot(y, y)

    def g_grad_x(x, y):
        return b + _matvec(B, y)

    def g_grad_y(x, y):
        return _matvec(B.T, x) - y

    def g_hvp_yy(x, y, v):
        return -np.asarray(v, dtype=np.float64)

    def g_hvp_xy(x, y, v):
        return _matvec(B, v)

    def c_eval(x, y):
        return x[..., :m] + y[..., :m] - c_value

    def c_jvp_x(x, y, lam):
        return _pad(np.asarray(lam, dtype=np.float64), n)

    def c_jvp_y(x, y, lam):
        return _pad(np.asarray(lam, dtype=np.float64), p)

    def c_dc_y(x, y, v):
        return np.asarray(v, dtype=np.float64)[..., :m].copy()

    return g_eval, g_grad_x, g_grad_y, g_hvp_yy, g_hvp_xy, c_eval, c_jvp_x, c_jvp_y, c_dc_y


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


def synthetic_from_data(B, b, c_value: float, seed: Optional[int] = None) -> SyntheticInstance:
    """Build the synthetic instance from explicit ``B`` and ``b`` (as given,
    no normalization), e.g. for pinned tiny cases."""
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError("B must be a matrix")
    n, p = B.shape
    b = as_vector(b, n, "b")
    m = min(n, p)

    (g_eval, g_grad_x, g_grad_y, g_hvp_yy, g_hvp_xy,
     c_eval, c_jvp_x, c_jvp_y, c_dc_y) = _synthetic_oracles(B, b, c_value)

    # g declares it too: by interlacing it bounds g's constant
    L_lift = spectral_norm_power(_synthetic_hessian_matvec(B), n + m + p)

    g = FunctionOracle(
        eval=g_eval,
        grad_x=g_grad_x,
        grad_y=g_grad_y,
        lipschitz_grad=L_lift,
        strong_concavity=1.0,
        hvp_yy=g_hvp_yy,
        hvp_xy=g_hvp_xy,
        stacks=True,
    )
    con = ConstraintOracle(
        dim=m,
        eval_c=c_eval,
        jvp_x=c_jvp_x,
        jvp_y=c_jvp_y,
        dc_y=c_dc_y,
        linear_in_y=True,
        stacks=True,
    )
    coupled = CoupledProblem(
        g=g,
        c=con,
        X=BoxSet(np.zeros(n), np.ones(n)),
        Y=WholeSpace(p),
        K=OrthantCone(m, sign=-1),
    )
    lifted = lift(coupled, lipschitz_grad=L_lift)
    return SyntheticInstance(
        n=n, p=p, c=float(c_value), seed=seed, B=B, b=b, coupled=coupled, lifted=lifted
    )


def make_synthetic(n: int, p: int, c_value: float = 1.0, seed: int = 1) -> SyntheticInstance:
    """Generate the random instance for ``(n, p, c, seed)``.

    Draw order (pinned): ``B`` row-major, then ``b``, then ``b`` is
    scaled to the unit sphere. Identical seeds regenerate identical
    instances bit for bit.
    """
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    stream = NormalStream(seed)
    B = stream.array(n, p)
    b = stream.array(n)
    nb = float(np.linalg.norm(b))
    if nb < 1e-300:
        raise DegenerateNormalization("draw of b has zero norm")
    b = b / nb
    return synthetic_from_data(B, b, c_value, seed=seed)


@dataclass(frozen=True, eq=False)
class Example1Instance:
    """The 1-D polynomial-constraint example and its lifted problem."""

    coupled: CoupledProblem
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

    def default_start(self) -> tuple[Vector, Vector]:
        return self.lifted.default_start()


def make_example1() -> Example1Instance:
    """Build ``min_{x in [1,10]} max_{y <= x, y <= x^4} -(y - 2x)^2 / 2``."""

    def g_eval(x, y):
        return float(-0.5 * (y[0] - 2.0 * x[0]) ** 2)

    def g_grad_x(x, y):
        return np.array([2.0 * (y[0] - 2.0 * x[0])])

    def g_grad_y(x, y):
        return np.array([-(y[0] - 2.0 * x[0])])

    def g_hvp_yy(x, y, v):
        return -np.asarray(v, dtype=np.float64)

    def g_hvp_xy(x, y, v):
        return 2.0 * np.asarray(v, dtype=np.float64)

    def c_eval(x, y):
        return np.array([y[0] - x[0], y[0] - x[0] ** 4])

    def c_jvp_x(x, y, lam):
        return np.array([-lam[0] - 4.0 * x[0] ** 3 * lam[1]])

    def c_jvp_y(x, y, lam):
        return np.array([lam[0] + lam[1]])

    def c_dc_y(x, y, v):
        return np.array([v[0], v[0]])

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
        linear_in_y=True,
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
    lifted = lift(coupled, lipschitz_grad=5000.0)
    return Example1Instance(coupled=coupled, lifted=lifted)
