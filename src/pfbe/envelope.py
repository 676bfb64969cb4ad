"""Partial forward-backward envelope of the concave block, and its penalization.

For a minimax objective ``h(x, y) = f(x, y) + r1(x) - r2(y)`` with ``f``
strongly concave in ``y`` (modulus ``mu``), the envelope with step ``eta`` is

    psi(x, y) = max_v  f(x,y) + <grad_y f(x,y), v - y> - r2(v) - ||v - y||^2 / (2 eta)

with ``v`` ranging over ``Y``. The maximizer ``T(x, y)`` is a single prox
of ``eta * r2 + indicator(Y)`` at ``y + eta * grad_y f`` and
``R(x, y) = (T - y) / eta`` is the forward-backward residual, both nan
wherever ``grad_y f`` is not finite. The penalized objective minimized by
the solvers is

    Gamma(x, y) = alpha * psi - (alpha - 1) * f + r1(x) + (alpha - 1) * r2(y)

whose smooth part ``Xi = alpha * psi - (alpha - 1) * f``, computed as
``f + alpha * (psi - f)`` without the cancellation of two terms of size
``alpha |f|`` near a solution, is differentiable wherever the prox is; its
gradient is linear in ``R`` and needs two Hessian-vector products along
it, which every :class:`~pfbe.core.FunctionOracle` supplies exactly. Both
are taken at every point and every row of a stack, ``R = 0`` included,
where an exact product, being linear in its direction, gives zeros:

    grad_x Xi = grad_x f + alpha * eta * hvp_xy(R)
    grad_y Xi = alpha * (R + eta * hvp_yy(R)) - (alpha - 1) * grad_y f

The penalty weight must satisfy ``alpha >= max(1, 2 / (eta * mu))`` for
the stationary-point equivalence to hold; every solve checks it against
the problem's ``mu``.

:func:`evaluate` is a value evaluation (one call of ``f``, ``grad_x f``
and ``grad_y f``, bundled when the oracle has ``first_order``, and one
prox) followed, when gradients are asked for, by :func:`with_gradients`,
which extends that evaluation in place with the two Hessian-vector
products, so one record serves both. A line search can thus evaluate
trial points without the products and complete only the one it accepts.
:func:`prox_grad_residual` is the unit-step prox-gradient residual of
``Gamma`` that the solvers monitor and the diagnostics report;
:func:`minimax_residual` is the unit-step residual of the minimax problem
itself, which the diagnostics take at ``(x, T)`` and the Lagrangian
lifting splits into its x, multiplier and y blocks.

Every function here also takes a stack of points, ``x`` and ``y`` with
one point per row, and gives each row the bits it would get alone; the
scalar fields of :class:`EnvelopeEval` then hold one value per row. It
passes a stack to the oracle unchecked and uses its results as returned:
a :class:`MinimaxProblem` probes the contract of :mod:`pfbe.core`, float64
results included, once, when it is built. A nan or inf in ``f``,
``grad_y f``, ``grad_x f`` or a Hessian-vector product always reaches
``gamma`` or the gradient of ``Xi``, so finiteness is checked once per
value evaluation and once per gradient completion. At
one point it raises :class:`NonFiniteValue`, naming the first non-finite
quantity; in a stack it only clears that row in ``EnvelopeEval.finite``,
so that one diverging row cannot stop the others.

These functions run at every iteration and leave numpy's warnings alone:
a direct call at a point that is not finite may warn, where a solve or a
diagnostic, run under :data:`pfbe.core.quiet_floats`, does not.
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
    as_values,
    check_finite,
    check_real,
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
        return max(1.0, 2.0 / (eta * mu)) if eta * mu else math.inf  # eta*mu underflowed to 0

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
        which a given ``alpha`` must meet; an ``eta`` so small that the
        threshold overflows raises ``ValueError`` naming it."""
        if eta is None:
            eta = min(1.0, 1.0 / (2.0 * problem.lipschitz))
        eta = check_real("eta", eta, 0, strict=True)  # before the threshold divides by it
        if alpha is None:  # a finite threshold: a tiny eta overflows 2/(eta*mu)
            alpha = check_real(f"2/(eta*mu) at eta={eta!r}", cls.threshold(eta, problem.mu))
        cfg = cls(eta=eta, alpha=alpha)
        cfg.check_threshold(problem.mu)
        return cfg


@dataclass(slots=True)
class EnvelopeEval:
    """All envelope quantities at one point, computed from one evaluation of
    ``f``, ``grad_x f`` (kept in ``grad_x_f``) and ``grad_y f`` and a single
    prox call (whether ``T`` touches a kink of the projection is
    :func:`near_kink`). ``T`` and ``R`` have the bits of :func:`prox_step`
    at the same point, so they are nan in every row whose ``grad_y f`` is
    not finite. The gradient of ``Xi``
    (``grad_x``, ``grad_y``) is None until :func:`with_gradients` extends
    the record in place with two Hessian-vector products along ``R``: the
    completed evaluation is the record that :func:`evaluate` built.

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
    grad_x: Optional[Vector]
    grad_y: Optional[Vector]
    finite: Optional[np.ndarray]


def _first_order(f: FunctionOracle, x, y):
    """``(f, grad_x f, grad_y f)`` at a point (``f`` a float) or a stack: one
    call of the oracle's bundle when it has one, else the three separate
    calls, which give the same bits."""
    if f.first_order is None:
        what, (fv, gx, gy) = "FunctionOracle.eval", (f.eval(x, y), f.grad_x(x, y), f.grad_y(x, y))
    else:
        what, (fv, gx, gy) = "FunctionOracle.first_order", f.first_order(x, y)
    return as_values(what, fv, x.ndim == 1), gx, gy


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


def _maximizer(problem: MinimaxProblem, eta: float, y, gy) -> tuple[Vector, Vector]:
    """``T`` and ``R`` from ``gy = grad_y f(x, y)``, both nan in every row
    where ``gy`` has a nan or inf, even where a box ``Y`` would clip an
    infinite ascent step back to finite values."""
    T = composite_prox(problem.r2, problem.Y, y + eta * gy, eta)
    finite = np.isfinite(gy)
    if np.count_nonzero(finite) != finite.size:  # a count is cheaper than .all()
        T = np.where(finite.all(axis=-1, keepdims=True), T, np.nan)
    return T, (T - y) / eta


def evaluate(
    problem: MinimaxProblem,
    cfg: EnvelopeConfig,
    x,
    y,
    need_grad: bool = True,
) -> EnvelopeEval:
    """Evaluate the envelope at a point or a stack of points into one
    record, which :func:`with_gradients` extends with the smooth-part
    gradient unless ``need_grad`` is False.

    ``T`` and ``R`` come from the rule of :func:`prox_step`: nan in every
    row whose ``grad_y f`` is not finite, a row that ``finite`` then
    clears (at one point, the call raises :class:`NonFiniteValue`)."""
    x, y = problem.check_point(x, y)
    f = problem.f
    eta, alpha = cfg.eta, cfg.alpha
    finite = None if x.ndim == 1 else np.ones(len(x), dtype=bool)

    f_val, gx, gy = _first_order(f, x, y)
    T, R = _maximizer(problem, eta, y, gy)
    r2_T = problem.r2.value(T)
    R_sq = np.vecdot(R, R)
    gap = eta * np.vecdot(gy, R) - r2_T - 0.5 * eta * R_sq
    psi = f_val + gap
    xi = f_val + alpha * gap
    gamma = xi + problem.r1.value(x) + (alpha - 1.0) * problem.r2.value(y)
    # a nan or inf f reaches xi (inf - inf, or 0 * inf at alpha = 1); one in
    # grad_y f makes R nan, and so psi
    finite = _finite_rows(
        finite, (gamma,), ("f value", f_val), ("grad_y f", gy), ("gamma", gamma)
    )
    ev = EnvelopeEval(
        x=x, y=y, f_val=f_val, grad_y_f=gy, T=T, R=R, psi=psi, xi=xi, gamma=gamma,
        grad_x_f=gx, grad_x=None, grad_y=None, finite=finite,
    )
    return with_gradients(problem, cfg, ev) if need_grad else ev


def with_gradients(
    problem: MinimaxProblem, cfg: EnvelopeConfig, ev: EnvelopeEval
) -> EnvelopeEval:
    """Extend ``ev`` in place with the gradient of ``Xi`` and return ``ev``.

    The two Hessian-vector products along ``R`` are taken once each, at a
    point or on a whole stack, whatever ``R`` holds. The products, the
    gradient and its finiteness come first, then
    ``grad_x``, ``grad_y`` and, for a stack, the narrowed ``finite`` are
    written into ``ev``. At one point a non-finite quantity raises
    :class:`NonFiniteValue` before anything is written."""
    f, x, y, R, gx = problem.f, ev.x, ev.y, ev.R, ev.grad_x_f
    eta, alpha = cfg.eta, cfg.alpha
    grad_x = gx + alpha * eta * f.hvp_xy(x, y, R)
    grad_y = alpha * (R + eta * f.hvp_yy(x, y, R)) - (alpha - 1.0) * ev.grad_y_f
    ev.finite = _finite_rows(
        ev.finite, (grad_x, grad_y),
        ("grad_x f", gx), ("grad_x Xi", grad_x), ("grad_y Xi", grad_y),
    )
    ev.grad_x, ev.grad_y = grad_x, grad_y
    return ev


def near_kink(problem: MinimaxProblem, ev: EnvelopeEval) -> bool:
    """Whether the maximizer ``T`` of a one-point evaluation sits within
    ``KINK_TOL`` of the boundary of ``Y``, where the prox, and so the
    gradient of ``Xi``, may not be differentiable, by the box's
    :meth:`BoxSet.near_boundary`; the whole space has no finite bound, so
    nothing is near it."""
    return problem.Y.near_boundary(ev.T, KINK_TOL)


def grad_norm(ev: EnvelopeEval) -> float:
    """Norm of the smooth-part gradient ``(grad_x Xi, grad_y Xi)`` of an
    evaluation completed with gradients; one norm per row of a stack."""
    return np.sqrt(np.vecdot(ev.grad_x, ev.grad_x) + np.vecdot(ev.grad_y, ev.grad_y))


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
    gx, gy = problem.f.grad_x(x, y), problem.f.grad_y(x, y)
    rx = composite_prox(problem.r1, problem.X, x - gx, 1.0) - x
    ry = composite_prox(problem.r2, problem.Y, y + gy, 1.0) - y
    return rx, ry


def prox_step(problem: MinimaxProblem, cfg: EnvelopeConfig, x, y) -> tuple[Vector, Vector]:
    """The envelope maximizer ``T(x, y)`` and residual ``R = (T - y)/eta``
    from one ``grad_y f`` call, with the bits of :func:`evaluate`'s ``T``
    and ``R``: nan at one point, or in its row of a stack, where ``grad_y
    f`` is not finite."""
    x, y = problem.check_point(x, y)
    return _maximizer(problem, cfg.eta, y, problem.f.grad_y(x, y))
