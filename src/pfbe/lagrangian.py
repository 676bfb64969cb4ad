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
    CoupledProblem,
    FunctionOracle,
    MinimaxProblem,
    PreconditionViolation,
    ProxRegularizer,
    Vector,
    as_vector,
    row_dot,
    zero_regularizer,
)
from .envelope import minimax_residual
from .sets import BoxSet, ProductSet, composite_prox

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


def _lifted_r1(base_r1: ProxRegularizer, X, polar, n: int, m: int, X_lift) -> ProxRegularizer:
    def reg_eval(z):
        return base_r1.value(z[:n])

    def reg_prox(z, step):
        z = as_vector(z, n + m, "lifted decision")
        # separable prox: base prox in x, polar projection in lam
        xz = composite_prox(base_r1, X, z[:n], step)
        lz = polar.project(z[n:])
        return np.concatenate([xz, lz])

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
    concatenated bounds when ``X`` and the polar cone are boxes (an
    orthant is one), and a :class:`ProductSet` of the two otherwise.

    The lifted oracle takes stacks of points when both ``coupled.g`` and
    ``coupled.c`` do. Its Hessian-vector products are exact or absent:
    ``hvp_yy`` needs ``g.hvp_yy`` and, unless ``c`` is ``linear_in_y``,
    ``c.hvp_yy_lam``; ``hvp_xy`` needs ``g.hvp_xy`` and either a
    ``linear_in_y`` constraint (its multiplier block ``-dc(x, y)[v]`` is
    then ``c.dc_y`` or the exact forward difference of ``c.eval_c``) or
    both ``c.hvp_xy_lam`` and ``c.dc_y``. An absent product is taken by
    the envelope's finite differences of the lifted gradient, which set
    ``used_fd_hvp``.
    """
    g, con = coupled.g, coupled.c
    n, m = coupled.dim_x, con.dim
    polar = coupled.K.polar()
    if isinstance(coupled.X, BoxSet) and isinstance(polar, BoxSet):  # an orthant is a box
        X = coupled.X
        X_lift = BoxSet(np.concatenate([X.lo, polar.lo]), np.concatenate([X.hi, polar.hi]))
    else:
        X_lift = ProductSet([coupled.X, polar])

    def split(z):
        return z[..., :n], z[..., n:]

    def lp_eval(z, y):
        x, lam = split(z)
        gval = np.asarray(g.eval(x, y), dtype=np.float64)
        return gval - row_dot(lam, np.asarray(con.eval_c(x, y), dtype=np.float64))

    def lp_grad_x(z, y):
        x, lam = split(z)
        gx = np.asarray(g.grad_x(x, y), dtype=np.float64) - np.asarray(
            con.jvp_x(x, y, lam), dtype=np.float64
        )
        glam = -np.asarray(con.eval_c(x, y), dtype=np.float64)
        return np.concatenate([gx, glam], axis=-1)

    def lp_grad_y(z, y):
        x, lam = split(z)
        return np.asarray(g.grad_y(x, y), dtype=np.float64) - np.asarray(
            con.jvp_y(x, y, lam), dtype=np.float64
        )

    hvp_yy = None
    if g.hvp_yy is not None and (con.linear_in_y or con.hvp_yy_lam is not None):

        def hvp_yy(z, y, v):
            x, lam = split(z)
            out = np.asarray(g.hvp_yy(x, y, v), dtype=np.float64)
            if not con.linear_in_y:
                out = out - np.asarray(con.hvp_yy_lam(x, y, lam, v), dtype=np.float64)
            return out

    hvp_xy = None
    if g.hvp_xy is not None and (
        con.linear_in_y or (con.hvp_xy_lam is not None and con.dc_y is not None)
    ):

        def hvp_xy(z, y, v):
            x, lam = split(z)
            top = np.asarray(g.hvp_xy(x, y, v), dtype=np.float64)
            if not con.linear_in_y:
                top = top - np.asarray(con.hvp_xy_lam(x, y, lam, v), dtype=np.float64)
            if con.dc_y is not None:
                dc = np.asarray(con.dc_y(x, y, v), dtype=np.float64)
            else:  # affine in y, so the forward difference is exact
                c0 = np.asarray(con.eval_c(x, y), dtype=np.float64)
                dc = np.asarray(con.eval_c(x, y + v), dtype=np.float64) - c0
            return np.concatenate([top, -dc], axis=-1)

    oracle = FunctionOracle(
        eval=lp_eval,
        grad_x=lp_grad_x,
        grad_y=lp_grad_y,
        lipschitz_grad=float(lipschitz_grad),
        strong_concavity=g.strong_concavity,
        hvp_yy=hvp_yy,
        hvp_xy=hvp_xy,
        stacks=g.stacks and con.stacks,
    )

    if coupled.r1.is_zero:
        r1_lift = zero_regularizer()
    else:
        r1_lift = _lifted_r1(coupled.r1, coupled.X, polar, n, m, X_lift)
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
    (:meth:`ProjectableSet.contains`, which a nan fails); violations raise
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
