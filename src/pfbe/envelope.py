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
along ``R``:

    grad_x Xi = grad_x f + alpha * eta * hvp_xy(R)
    grad_y Xi = alpha * (R + eta * hvp_yy(R)) - (alpha - 1) * grad_y f

The penalty weight must satisfy ``alpha >= max(1, 2 / (eta * mu))`` for
the stationary-point equivalence to hold; the config enforces it.

:func:`evaluate` is a value evaluation (one ``grad_y f``, one prox)
followed, when gradients are asked for, by :func:`with_gradients`, which
completes an existing evaluation with ``grad_x f`` (kept in
``EnvelopeEval.grad_x_f`` for step rules that need it) and the two
Hessian-vector products. A line search can thus evaluate trial points
without gradients and complete only the one it accepts.
:func:`prox_grad_residual` is the unit-step prox-gradient residual of
``Gamma`` that the solvers monitor and the diagnostics report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    MinimaxProblem,
    Vector,
    check_finite,
    fd_hvp_xy,
    fd_hvp_yy,
)
from .sets import composite_prox

KINK_TOL = 1e-6
NORM_FLOOR = 1e-15  # reference norms below this leave a residual unnormalized


@dataclass(frozen=True)
class EnvelopeConfig:
    """Envelope step ``eta``, penalty ``alpha``, and the modulus they obey.

    Raises ``ValueError`` at construction when
    ``alpha < max(1, 2 / (eta * mu))``.
    """

    eta: float
    alpha: float
    mu: float

    def __post_init__(self):
        if not (self.eta > 0 and np.isfinite(self.eta)):
            raise ValueError("eta must be positive and finite")
        if not (self.mu > 0 and np.isfinite(self.mu)):
            raise ValueError("mu must be positive and finite")
        thresh = self.threshold(self.eta, self.mu)
        if not (self.alpha >= thresh * (1.0 - 1e-12)):
            raise ValueError(
                f"alpha={self.alpha} below the envelope threshold "
                f"max(1, 2/(eta*mu)) = {thresh}"
            )

    @staticmethod
    def threshold(eta: float, mu: float) -> float:
        return max(1.0, 2.0 / (eta * mu))

    @classmethod
    def for_problem(
        cls,
        problem: MinimaxProblem,
        eta: Optional[float] = None,
        alpha: Optional[float] = None,
    ) -> "EnvelopeConfig":
        """Defaults: ``eta = min(1, 1/(2 L))`` and ``alpha`` at the threshold."""
        mu = problem.mu
        if eta is None:
            eta = min(1.0, 1.0 / (2.0 * problem.lipschitz))
        if alpha is None:
            alpha = cls.threshold(eta, mu)
        return cls(eta=float(eta), alpha=float(alpha), mu=float(mu))


@dataclass(frozen=True)
class EnvelopeEval:
    """All envelope quantities at one point, computed from a single
    ``grad_y f`` evaluation and a single prox call. The gradient fields
    (``grad_x_f``, the raw ``grad_x f``, and ``grad_x``/``grad_y`` of
    ``Xi``) are None until :func:`with_gradients` fills them, which adds
    one ``grad_x f`` and two Hessian-vector products along ``R``."""

    x: Vector
    y: Vector
    f_val: float
    grad_y_f: Vector
    T: Vector
    R: Vector
    psi: float
    xi: float
    gamma: float
    near_kink: bool
    grad_x_f: Optional[Vector] = None
    grad_x: Optional[Vector] = None
    grad_y: Optional[Vector] = None
    used_fd_hvp: bool = False

    @property
    def residual_norm(self) -> float:
        return float(np.linalg.norm(self.R))


def evaluate(
    problem: MinimaxProblem,
    cfg: EnvelopeConfig,
    x,
    y,
    need_grad: bool = True,
) -> EnvelopeEval:
    """Evaluate the envelope, completed with the smooth-part gradient
    unless ``need_grad`` is False."""
    x, y = problem.check_point(x, y)
    f = problem.f
    eta, alpha = cfg.eta, cfg.alpha

    f_val = float(f.eval(x, y))
    check_finite(f_val, "f value")
    gy = np.asarray(f.grad_y(x, y), dtype=np.float64)
    check_finite(gy, "grad_y f")

    T = composite_prox(problem.r2, problem.Y, y + eta * gy, eta)
    R = (T - y) / eta
    r2_T = problem.r2.value(T)
    psi = f_val + eta * float(gy @ R) - r2_T - 0.5 * eta * float(R @ R)
    xi = alpha * psi - (alpha - 1.0) * f_val
    gamma = xi + problem.r1.value(x) + (alpha - 1.0) * problem.r2.value(y)
    check_finite(gamma, "gamma")
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
        near_kink=problem.Y.near_boundary(T, KINK_TOL),
    )
    return with_gradients(problem, cfg, ev) if need_grad else ev


def with_gradients(
    problem: MinimaxProblem, cfg: EnvelopeConfig, ev: EnvelopeEval
) -> EnvelopeEval:
    """``ev`` completed with ``grad_x f`` and the gradient of ``Xi``."""
    f, x, y, R = problem.f, ev.x, ev.y, ev.R
    eta, alpha = cfg.eta, cfg.alpha
    gx = np.asarray(f.grad_x(x, y), dtype=np.float64)
    check_finite(gx, "grad_x f")
    used_fd = False
    if float(np.linalg.norm(R)) == 0.0:
        hxy_r = np.zeros(problem.dim_x)
        hyy_r = np.zeros(problem.dim_y)
    else:
        if f.hvp_xy is not None:
            hxy_r = np.asarray(f.hvp_xy(x, y, R), dtype=np.float64)
        else:
            hxy_r = fd_hvp_xy(f, x, y, R)
            used_fd = True
        if f.hvp_yy is not None:
            hyy_r = np.asarray(f.hvp_yy(x, y, R), dtype=np.float64)
        else:
            hyy_r = fd_hvp_yy(f, x, y, R)
            used_fd = True
    grad_x = gx + alpha * eta * hxy_r
    grad_y = alpha * (R + eta * hyy_r) - (alpha - 1.0) * ev.grad_y_f
    check_finite(grad_x, "grad_x Xi")
    check_finite(grad_y, "grad_y Xi")
    return replace(ev, grad_x_f=gx, grad_x=grad_x, grad_y=grad_y, used_fd_hvp=used_fd)


def grad_norm(ev: EnvelopeEval) -> float:
    """Norm of the smooth-part gradient ``(grad_x Xi, grad_y Xi)`` of an
    evaluation completed with gradients."""
    return float(np.sqrt(float(ev.grad_x @ ev.grad_x) + float(ev.grad_y @ ev.grad_y)))


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
    """
    px = composite_prox(problem.r1, problem.X, ev.x - ev.grad_x, 1.0)
    py = composite_prox(problem.r2, problem.Y, ev.y - ev.grad_y, cfg.alpha - 1.0)
    res = float(
        np.sqrt(float(np.sum((px - ev.x) ** 2)) + float(np.sum((py - ev.y) ** 2)))
    )
    return res if ref_norm < NORM_FLOOR else res / ref_norm


def prox_step(problem: MinimaxProblem, cfg: EnvelopeConfig, x, y) -> tuple[Vector, Vector]:
    """The envelope maximizer ``T(x, y)`` and residual ``R = (T - y)/eta``."""
    x, y = problem.check_point(x, y)
    gy = np.asarray(problem.f.grad_y(x, y), dtype=np.float64)
    check_finite(gy, "grad_y f")
    T = composite_prox(problem.r2, problem.Y, y + cfg.eta * gy, cfg.eta)
    R = (T - y) / cfg.eta
    return T, R
