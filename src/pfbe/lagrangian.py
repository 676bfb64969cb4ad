"""Lagrangian lifting of coupled-constraint minimax problems.

A coupled problem ``min_X max_{y in Y, c(x,y) in K} g + r1`` is lifted to

    min over (x, lam) in X x polar(K)  of  max over y in Y  of
        L(x, lam, y) = g(x, y) - <lam, c(x, y)> + r1(x)

so the smooth coupling of the lifted minimax problem is
``L_P(x, lam, y) = g(x, y) - <lam, c(x, y)>``. The multiplier block of
the lifted x-gradient is exactly ``-c(x, y)`` by construction, and the
strong concavity modulus in ``y`` is never below the base modulus
(each ``y -> <lam, c(x, y)>`` is convex for ``lam`` in the polar cone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    BoxSet,
    CoupledProblem,
    FunctionOracle,
    MinimaxProblem,
    PreconditionViolation,
    ProxRegularizer,
    Vector,
    as_vector,
    zero_regularizer,
)
from .envelope import minimax_residual
from .sets import composite_prox

KKT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LiftedProblem:
    """Lifted minimax problem with bookkeeping for the (x, lam) split."""

    base: CoupledProblem
    problem: MinimaxProblem
    n: int
    m: int

    def split(self, z) -> tuple[Vector, Vector]:
        z = as_vector(z, self.n + self.m, "lifted decision")
        return z[: self.n], z[self.n:]

    def join(self, x, lam) -> Vector:
        x = as_vector(x, self.n, "x")
        lam = as_vector(lam, self.m, "lam")
        return np.concatenate([x, lam])

    @property
    def polar_cone(self):
        return self.base.K.polar()

    def default_start(self) -> tuple[Vector, Vector]:
        """Deterministic start: projected origin for x, zero multiplier and y."""
        x0 = self.base.X.project(np.zeros(self.n))
        lam0 = np.zeros(self.m)
        y0 = self.base.Y.project(np.zeros(self.base.dim_y))
        return self.join(x0, lam0), y0


def _lifted_r1(base_r1: ProxRegularizer, X, polar, n: int, X_lift) -> ProxRegularizer:
    def reg_eval(z):
        return base_r1.value(z[..., :n])

    def reg_prox(z, step):
        # separable prox: base prox in x, polar projection in lam
        xz = composite_prox(base_r1, X, z[..., :n], step)
        lz = polar.project(z[..., n:])
        return np.concatenate([xz, lz], axis=-1)

    return ProxRegularizer(
        eval=reg_eval,
        prox=reg_prox,
        is_zero=False,
        attached_set=X_lift,
    )


def lift(coupled: CoupledProblem, lipschitz_grad: float) -> LiftedProblem:
    """Build the lifted minimax problem over ``(x, lam)`` versus ``y``; the
    lifted problem has no concave-side regularizer (``r2`` is zero).

    Parameters
    ----------
    coupled : CoupledProblem
        The constrained base problem.
    lipschitz_grad : float
        Gradient Lipschitz constant of the lifted smooth part over the
        region of interest. No global constant exists for constraints
        that are nonlinear in ``x``, so the caller supplies it (built-in
        generators compute or document one).

    The lifted feasible set ``X x polar(K)`` is one :class:`BoxSet` of the
    concatenated bounds of ``X`` and of ``K.polar()``, which
    :class:`CoupledProblem` checked to be boxes when it was built.

    The lifted oracle takes a point or a stack, as :class:`CoupledProblem`
    probed ``coupled.g`` and ``coupled.c`` to, and checks nothing per call.
    It has a ``first_order`` bundle when ``coupled.g`` has one, which splits
    ``z`` and calls ``c.eval_c`` once for all three.
    Its Hessian-vector products are exact: ``hvp_yy`` is ``g.hvp_yy -
    c.hvp_yy_lam`` and ``hvp_xy`` stacks ``g.hvp_xy - c.hvp_xy_lam`` over
    the multiplier block ``-c.dc_y``, each from the oracles' own products,
    which :class:`ConstraintOracle` requires.
    """
    g, con = coupled.g, coupled.c
    n, m = coupled.dim_x, con.dim
    X, polar = coupled.X, coupled.K.polar()
    X_lift = BoxSet(np.concatenate([X.lo, polar.lo]), np.concatenate([X.hi, polar.hi]))

    # each partial result enters a float64 ufunc (or asarray), so an oracle
    # may return lists; the lift adds no view of z or y to what g and c give
    def lp_eval(z, y):
        x, lam = z[..., :n], z[..., n:]
        c = np.asarray(con.eval_c(x, y), dtype=np.float64)
        return np.subtract(g.eval(x, y), np.vecdot(lam, c), dtype=np.float64)

    def lp_grad_x(z, y):
        x, lam = z[..., :n], z[..., n:]
        gx = np.subtract(g.grad_x(x, y), con.jvp_x(x, y, lam), dtype=np.float64)
        return np.concatenate([gx, np.negative(con.eval_c(x, y), dtype=np.float64)], axis=-1)

    def lp_grad_y(z, y):
        x, lam = z[..., :n], z[..., n:]
        return np.subtract(g.grad_y(x, y), con.jvp_y(x, y, lam), dtype=np.float64)

    def lp_first_order(z, y):  # one split of z and one c for all three
        x, lam = z[..., :n], z[..., n:]
        gv, gx, gy = g.first_order(x, y)
        c = np.asarray(con.eval_c(x, y), dtype=np.float64)
        jx, jy = con.jvp_x(x, y, lam), con.jvp_y(x, y, lam)
        gx = np.subtract(gx, jx, dtype=np.float64)  # inf - inf where a solve rejects the point
        gx = np.concatenate([gx, np.negative(c, dtype=np.float64)], axis=-1)
        gy = np.subtract(gy, jy, dtype=np.float64)
        return np.subtract(gv, np.vecdot(lam, c), dtype=np.float64), gx, gy

    def hvp_yy(z, y, v):
        x, lam = z[..., :n], z[..., n:]
        return np.subtract(g.hvp_yy(x, y, v), con.hvp_yy_lam(x, y, lam, v), dtype=np.float64)

    def hvp_xy(z, y, v):
        x, lam = z[..., :n], z[..., n:]
        top = np.subtract(g.hvp_xy(x, y, v), con.hvp_xy_lam(x, y, lam, v), dtype=np.float64)
        return np.concatenate([top, np.negative(con.dc_y(x, y, v), dtype=np.float64)], axis=-1)

    oracle = FunctionOracle(
        eval=lp_eval,
        grad_x=lp_grad_x,
        grad_y=lp_grad_y,
        lipschitz_grad=lipschitz_grad,
        strong_concavity=g.strong_concavity,
        hvp_yy=hvp_yy,
        hvp_xy=hvp_xy,
        first_order=None if g.first_order is None else lp_first_order,
    )

    if coupled.r1.is_zero:
        r1_lift = zero_regularizer()
    else:
        r1_lift = _lifted_r1(coupled.r1, coupled.X, polar, n, X_lift)
    problem = MinimaxProblem(f=oracle, X=X_lift, Y=coupled.Y, r1=r1_lift)
    return LiftedProblem(base=coupled, problem=problem, n=n, m=m)


class KktResidual(NamedTuple):
    """Prox/projection residual norms of the lifted stationarity system."""

    x: float
    y: float
    lam: float

    @property
    def max(self) -> float:
        return max(self.x, self.y, self.lam)


def kkt_residual_mol(lifted: LiftedProblem, x, lam, y) -> KktResidual:
    """Residuals of the lifted first-order system at ``(x, lam, y)``.

    The three blocks, the norms of the lifted problem's
    :func:`pfbe.envelope.minimax_residual` at ``((x, lam), y)`` split by
    :meth:`LiftedProblem.split`:

    * ``x``:   ``0 in grad_x g - grad_x c . lam + d r1 + N_X``
    * ``y``:   ``0 in -(grad_y g - grad_y c . lam) + N_Y``
    * ``lam``: ``0 in -c(x, y) + N_polar(lam)``

    Preconditions: ``lam`` in the polar cone and ``y in Y`` within ``KKT_TOL``
    (:meth:`BoxSet.contains`, which a nan or inf fails); violations raise
    :class:`PreconditionViolation`.
    """
    base = lifted.base
    x = as_vector(x, lifted.n, "x")
    lam = as_vector(lam, lifted.m, "lam")
    y = as_vector(y, base.dim_y, "y")
    if not lifted.polar_cone.contains(lam, KKT_TOL):
        raise PreconditionViolation("multiplier lies outside the polar cone")
    if not base.Y.contains(y, KKT_TOL):
        raise PreconditionViolation("y lies outside Y")

    rz, ry = minimax_residual(lifted.problem, lifted.join(x, lam), y)
    rx, rlam = lifted.split(rz)
    return KktResidual(
        x=float(np.linalg.norm(rx)), y=float(np.linalg.norm(ry)), lam=float(np.linalg.norm(rlam))
    )


def multiplier_bound_monitor(lifted: LiftedProblem, x, lam, y) -> float:
    """Scale-free multiplier size, ``||lam|| / (1 + ||grad_y g(x, y)||)``.

    Large values signal drift toward the non-qualified regime where the
    lifted stationary point may not correspond to a constrained minimax
    point of the base problem.
    """
    base = lifted.base
    x = as_vector(x, lifted.n, "x")
    lam = as_vector(lam, lifted.m, "lam")
    y = as_vector(y, base.dim_y, "y")
    gy = np.asarray(base.g.grad_y(x, y), dtype=np.float64)
    return float(np.linalg.norm(lam) / (1.0 + np.linalg.norm(gy)))
