"""Partial forward-backward envelope of the concave block, and its penalization.

For a minimax objective ``h(x, y) = f(x, y) + r1(x) - r2(y)`` with ``f``
strongly concave in ``y`` (modulus ``mu``), the envelope with step ``eta`` is

    psi(x, y) = max_v  f(x,y) + <grad_y f(x,y), v - y> - r2(v) - ||v - y||^2 / (2 eta)

with ``v`` ranging over ``Y``. The maximizer ``T(x, y)`` is a single prox
of ``eta * r2 + indicator(Y)`` at ``y + eta * grad_y f`` and
``R(x, y) = (T - y) / eta`` is the forward-backward residual. The
penalized objective minimized by the solvers is

    Gamma(x, y) = alpha * psi - (alpha - 1) * f + r1(x) + (alpha - 1) * r2(y)

whose smooth part ``Xi = alpha * psi - (alpha - 1) * f`` is differentiable
wherever the prox is; its gradient needs two Hessian-vector products
along ``R``, which every :class:`~pfbe.core.FunctionOracle` supplies exactly:

    grad_x Xi = grad_x f + alpha * eta * hvp_xy(R)
    grad_y Xi = alpha * (R + eta * hvp_yy(R)) - (alpha - 1) * grad_y f

The penalty weight must satisfy ``alpha >= max(1, 2 / (eta * mu))`` for
the stationary-point equivalence to hold; every solve checks it against
the problem's ``mu``.

:func:`evaluate` is a value evaluation (one call of ``f``, ``grad_x f``
and ``grad_y f``, bundled when the oracle has ``first_order``, and one
prox) followed, when gradients are asked for, by :func:`with_gradients`,
which completes an existing evaluation with the two Hessian-vector
products. A line search can thus evaluate trial points without the
products and complete only the one it accepts.
:func:`prox_grad_residual` is the unit-step prox-gradient residual of
``Gamma`` that the solvers monitor and the diagnostics report;
:func:`minimax_residual` is the unit-step residual of the minimax problem
itself, which the diagnostics take at ``(x, T)`` and the Lagrangian
lifting splits into its x, multiplier and y blocks.

Every function here also takes a stack of points, ``x`` and ``y`` with
one point per row, and gives each row the bits it would get alone; the
scalar fields of :class:`EnvelopeEval` then hold one value per row. An
oracle that does not declare ``stacks`` is called row by row. A nan or
inf in ``f``, ``grad_y f``, ``grad_x f`` or a Hessian-vector product
always reaches ``gamma`` or the gradient of ``Xi``, so finiteness is
checked once per value evaluation and once per gradient completion. At
one point it raises :class:`NonFiniteValue`, naming the first non-finite
quantity; in a stack it only clears that row in ``EnvelopeEval.finite``,
so that one diverging row cannot stop the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    FunctionOracle,
    MinimaxProblem,
    NonFiniteValue,
    Vector,
    check_finite,
    check_real,
    row_dot,
)
from .sets import composite_prox

KINK_TOL = 1e-6
NORM_FLOOR = 1e-15  # reference norms below this leave a residual unnormalized


@dataclass(frozen=True)
class EnvelopeConfig:
    """Envelope step ``eta`` and penalty ``alpha``.

    Raises ``ValueError`` at construction unless ``eta`` is a positive
    finite real number and ``alpha`` a finite real number ``>= 1`` (a bool
    is neither). The full threshold ``alpha >= max(1, 2 / (eta * mu))``
    needs the modulus ``mu`` of a problem: :meth:`for_problem` checks it,
    and so does every solve.
    """

    eta: float
    alpha: float

    def __post_init__(self):
        check_real("eta", self.eta, 0, strict=True)
        check_real("alpha", self.alpha, 1)

    @staticmethod
    def threshold(eta: float, mu: float) -> float:
        return max(1.0, 2.0 / (eta * mu))

    def check_threshold(self, mu: float) -> None:
        """Raise ``ValueError`` unless ``alpha >= max(1, 2 / (eta * mu))``."""
        thresh = self.threshold(self.eta, mu)
        if not (self.alpha >= thresh * (1.0 - 1e-12)):
            raise ValueError(
                f"alpha={self.alpha} below the envelope threshold "
                f"max(1, 2/(eta*mu)) = {thresh}"
            )

    @classmethod
    def for_problem(
        cls,
        problem: MinimaxProblem,
        eta: Optional[float] = None,
        alpha: Optional[float] = None,
    ) -> "EnvelopeConfig":
        """Defaults: ``eta = min(1, 1/(2 L))`` and ``alpha`` at the threshold,
        which a given ``alpha`` must meet."""
        if eta is None:
            eta = min(1.0, 1.0 / (2.0 * problem.lipschitz))
        eta = check_real("eta", eta, 0, strict=True)  # before the threshold divides by it
        if alpha is None:
            alpha = cls.threshold(eta, problem.mu)
        cfg = cls(eta=eta, alpha=alpha)
        cfg.check_threshold(problem.mu)
        return cfg


@dataclass(frozen=True)
class EnvelopeEval:
    """All envelope quantities at one point, computed from one evaluation of
    ``f``, ``grad_x f`` (kept in ``grad_x_f``) and ``grad_y f`` and a single
    prox call (whether ``T`` touches a kink of the projection is
    :func:`near_kink`); ``R_sq`` is ``||R||^2``. The gradient of ``Xi``
    (``grad_x``, ``grad_y``) is None until :func:`with_gradients` fills it,
    which adds two Hessian-vector products along ``R``.

    For a stack of points, ``finite`` marks the rows whose quantities are
    all finite; it is None for one point, which raises instead."""

    x: Vector
    y: Vector
    f_val: float
    grad_y_f: Vector
    T: Vector
    R: Vector
    psi: float
    xi: float
    gamma: float
    grad_x_f: Vector
    R_sq: float
    grad_x: Optional[Vector] = None
    grad_y: Optional[Vector] = None
    finite: Optional[np.ndarray] = None


def oracle_call(f: FunctionOracle, fn, *args):
    """``fn(*args)`` as float64 at one point or at each row of a stack; an
    oracle that does not take stacks is called row by row."""
    if args[0].ndim == 1 or f.stacks:
        return np.asarray(fn(*args), dtype=np.float64)
    return np.array([fn(*row) for row in zip(*args)], dtype=np.float64)


def _first_order(f: FunctionOracle, x, y):
    """``(f, grad_x f, grad_y f)`` at a point (``f`` a float) or a stack: one
    call of the oracle's bundle when it has one that takes these points,
    else the three separate calls, which give the same bits."""
    if f.first_order is not None and (x.ndim == 1 or f.stacks):
        fv, gx, gy = f.first_order(x, y)
    else:
        fv = f.eval(x, y) if x.ndim == 1 else oracle_call(f, f.eval, x, y)
        gx, gy = oracle_call(f, f.grad_x, x, y), oracle_call(f, f.grad_y, x, y)
    fv = float(fv) if x.ndim == 1 else np.asarray(fv, dtype=np.float64)
    return fv, np.asarray(gx, dtype=np.float64), np.asarray(gy, dtype=np.float64)


def _finite_rows(finite: Optional[np.ndarray], checked, *named) -> Optional[np.ndarray]:
    """``finite`` with the rows cleared where a value of ``checked`` has a
    nan or inf. Each of the ``(what, value)`` pairs ``named`` that is not
    finite makes a value of ``checked`` non-finite; at one point (``finite``
    is None) the first such pair raises NonFiniteValue."""
    if finite is None:
        try:
            for value in checked:
                check_finite(value)
        except NonFiniteValue:
            for what, value in named:
                check_finite(value, what)
            raise
        return None
    for value in checked:
        ok = np.isfinite(value)
        finite = finite & (ok if ok.ndim == 1 else ok.all(axis=-1))
    return finite


def _along_residual(f: FunctionOracle, hvp, x, y, R, moving, dim: int):
    """The exact Hessian-vector product ``hvp`` of ``f`` along ``R``, zero
    where ``R`` is (``moving`` is False); an oracle that does not take
    stacks is called on each moving row of a stack in turn."""
    if R.ndim == 1:
        return np.asarray(hvp(x, y, R), dtype=np.float64) if moving else np.zeros(dim)
    if f.stacks:
        return np.where(moving[:, None], np.asarray(hvp(x, y, R), dtype=np.float64), 0.0)
    out = np.zeros((len(R), dim))
    for i in np.flatnonzero(moving):
        out[i] = hvp(x[i], y[i], R[i])
    return out


def evaluate(
    problem: MinimaxProblem,
    cfg: EnvelopeConfig,
    x,
    y,
    need_grad: bool = True,
) -> EnvelopeEval:
    """Evaluate the envelope at a point or a stack of points, completed
    with the smooth-part gradient unless ``need_grad`` is False."""
    x, y = problem.check_point(x, y)
    f = problem.f
    eta, alpha = cfg.eta, cfg.alpha
    finite = None if x.ndim == 1 else np.ones(len(x), dtype=bool)

    f_val, gx, gy = _first_order(f, x, y)
    T = composite_prox(problem.r2, problem.Y, y + eta * gy, eta)
    R = (T - y) / eta
    r2_T = problem.r2.value(T)
    R_sq = row_dot(R, R)
    psi = f_val + eta * row_dot(gy, R) - r2_T - 0.5 * eta * R_sq
    xi = alpha * psi - (alpha - 1.0) * f_val
    gamma = xi + problem.r1.value(x) + (alpha - 1.0) * problem.r2.value(y)
    # a nan or inf f reaches xi (inf - inf, or 0 * inf at alpha = 1); one in
    # grad_y f reaches psi through <grad_y f, R>, even where the prox clips T
    finite = _finite_rows(
        finite, (gamma,), ("f value", f_val), ("grad_y f", gy), ("gamma", gamma)
    )
    ev = EnvelopeEval(
        x=x,
        y=y,
        f_val=f_val,
        grad_y_f=gy,
        T=T,
        R=R,
        psi=psi,
        xi=xi,
        gamma=gamma,
        grad_x_f=gx,
        R_sq=R_sq,
        finite=finite,
    )
    return with_gradients(problem, cfg, ev) if need_grad else ev


def with_gradients(
    problem: MinimaxProblem, cfg: EnvelopeConfig, ev: EnvelopeEval
) -> EnvelopeEval:
    """``ev`` completed with the gradient of ``Xi``."""
    f, x, y, R, gx = problem.f, ev.x, ev.y, ev.R, ev.grad_x_f
    eta, alpha = cfg.eta, cfg.alpha
    moving = ev.R_sq != 0.0
    hxy_r = _along_residual(f, f.hvp_xy, x, y, R, moving, problem.dim_x)
    hyy_r = _along_residual(f, f.hvp_yy, x, y, R, moving, problem.dim_y)
    grad_x = gx + alpha * eta * hxy_r
    grad_y = alpha * (R + eta * hyy_r) - (alpha - 1.0) * ev.grad_y_f
    finite = _finite_rows(
        ev.finite, (grad_x, grad_y),
        ("grad_x f", gx), ("grad_x Xi", grad_x), ("grad_y Xi", grad_y),
    )
    return EnvelopeEval(
        x=x, y=y, f_val=ev.f_val, grad_y_f=ev.grad_y_f, T=ev.T, R=R,
        psi=ev.psi, xi=ev.xi, gamma=ev.gamma, grad_x_f=gx, R_sq=ev.R_sq,
        grad_x=grad_x, grad_y=grad_y, finite=finite,
    )


def near_kink(problem: MinimaxProblem, ev: EnvelopeEval) -> bool:
    """Whether the maximizer ``T`` of a one-point evaluation sits within
    ``KINK_TOL`` of the boundary of ``Y``, where the prox, and so the
    gradient of ``Xi``, may not be differentiable. ``Y`` needs a
    ``near_boundary`` method, as every set of :mod:`pfbe.sets` has (a
    box's); the whole space has no finite bound, so nothing is near it."""
    return problem.Y.near_boundary(ev.T, KINK_TOL)


def grad_norm(ev: EnvelopeEval) -> float:
    """Norm of the smooth-part gradient ``(grad_x Xi, grad_y Xi)`` of an
    evaluation completed with gradients; one norm per row of a stack."""
    sq = row_dot(ev.grad_x, ev.grad_x) + row_dot(ev.grad_y, ev.grad_y)
    return np.sqrt(sq) if isinstance(sq, np.ndarray) else math.sqrt(sq)


def prox_grad_residual(
    problem: MinimaxProblem,
    cfg: EnvelopeConfig,
    ev: EnvelopeEval,
    ref_norm: float = 1.0,
) -> float:
    """Unit-step prox-gradient residual of ``Gamma`` at an evaluated point.

    ``||P((x,y) - grad Xi) - (x,y)||`` where ``P`` absorbs
    ``r1 + indicator(X)`` on the x-block and ``(alpha-1) r2 + indicator(Y)``
    on the y-block, divided by ``ref_norm``. A reference below
    ``NORM_FLOOR`` degenerates and the unnormalized residual is returned.
    A stack gets one residual per row, and ``ref_norm`` may then hold one
    reference per row.
    """
    px = composite_prox(problem.r1, problem.X, ev.x - ev.grad_x, 1.0)
    py = composite_prox(problem.r2, problem.Y, ev.y - ev.grad_y, cfg.alpha - 1.0)
    # np.sum's reduction, called directly: the same bits, per row for a stack
    sq = np.add.reduce((px - ev.x) ** 2, axis=-1) + np.add.reduce((py - ev.y) ** 2, axis=-1)
    if sq.ndim == 0:
        res = math.sqrt(sq)
        return res if ref_norm < NORM_FLOOR else res / ref_norm
    return np.sqrt(sq) / np.where(ref_norm < NORM_FLOOR, 1.0, ref_norm)


def minimax_residual(problem: MinimaxProblem, x, y) -> tuple[Vector, Vector]:
    """Unit-step first-order residual of the minimax problem itself at ``(x, y)``:

    * ``prox_{r1 + ind_X}(x - grad_x f(x, y)) - x``
    * ``prox_{r2 + ind_Y}(y + grad_y f(x, y)) - y``

    Both blocks vanish exactly at a first-order minimax point. On a lifted
    problem the first block holds the x and the multiplier residuals.
    ``x`` and ``y`` are points, or stacks, as ``problem.check_point``
    returns them.
    """
    f = problem.f
    rx = composite_prox(problem.r1, problem.X, x - oracle_call(f, f.grad_x, x, y), 1.0) - x
    ry = composite_prox(problem.r2, problem.Y, y + oracle_call(f, f.grad_y, x, y), 1.0) - y
    return rx, ry


def prox_step(problem: MinimaxProblem, cfg: EnvelopeConfig, x, y) -> tuple[Vector, Vector]:
    """The envelope maximizer ``T(x, y)`` and residual ``R = (T - y)/eta``.

    A non-finite ``grad_y f`` raises :class:`NonFiniteValue` at one point;
    in a stack it makes ``T`` and ``R`` nan in its row only, which a box
    ``Y`` would otherwise clip back to finite values."""
    x, y = problem.check_point(x, y)
    gy = oracle_call(problem.f, problem.f.grad_y, x, y)
    if x.ndim == 1:
        check_finite(gy, "grad_y f")
    T = composite_prox(problem.r2, problem.Y, y + cfg.eta * gy, cfg.eta)
    if x.ndim > 1:
        T = np.where(np.isfinite(gy).all(axis=-1, keepdims=True), T, np.nan)
    R = (T - y) / cfg.eta
    return T, R
