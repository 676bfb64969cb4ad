"""Stationarity measures, transfer certificates, and a polar-convexity probe.

All residuals are unit-step prox/projection residuals, the computable
surrogates for the set-valued stationarity distances. The minimax
residual pair is :func:`pfbe.envelope.minimax_residual` evaluated at
``(x, T(x, y))``, mirroring how an approximate stationary point of the
penalized objective transfers to an approximate minimax point of the
underlying problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CoupledProblem, MinimaxProblem, Vector, as_vector, check_finite, quiet_floats
from .envelope import (
    NORM_FLOOR,
    EnvelopeConfig,
    evaluate,
    minimax_residual,
    prox_grad_residual,
    prox_step,
)
from .lagrangian import LiftedProblem, multiplier_bound_monitor
from .sets import composite_prox

# composite_prox is not called here; perfbench/tracing.py patches it on
# this module, so the name stays
__all__ = [
    "Certificate",
    "certify",
    "check_polar_convexity",
    "composite_prox",
    "eps_minimax_mm",
    "feasibility_mcc",
    "stationarity_gamma",
    "transfer_constant",
]

CERTIFY_TOL = 1e-6
POLAR_CONVEXITY_TOL = 1e-10


@quiet_floats
def stationarity_gamma(problem: MinimaxProblem, cfg: EnvelopeConfig, x, y) -> float:
    """Unnormalized prox-gradient residual of the penalized objective at
    ``(x, y)``: :func:`pfbe.envelope.prox_grad_residual` of its
    evaluation. The solvers' normalized ``stat`` divides it by
    :func:`pfbe.envelope.grad_norm` at the start point, which
    ``prox_grad_residual`` takes as ``ref_norm``. A point whose evaluation
    is not finite raises :class:`~pfbe.core.NonFiniteValue`, without a warning.
    """
    return prox_grad_residual(problem, cfg, evaluate(problem, cfg, x, y, need_grad=True))


@quiet_floats
def eps_minimax_mm(
    problem: MinimaxProblem, cfg: EnvelopeConfig, x, y
) -> tuple[float, float]:
    """Minimax residual pair at ``(x, T(x, y))``.

    Returns ``(eps_x, eps_y)`` where, with ``yT = T(x, y)``,

    * ``eps_x = ||prox_{r1 + ind_X}(x - grad_x f(x, yT)) - x||``
    * ``eps_y = ||prox_{r2 + ind_Y}(yT + grad_y f(x, yT)) - yT||``

    both at unit step: the norms of :func:`pfbe.envelope.minimax_residual`
    at ``(x, yT)``. A first-order minimax point returns ``(0, 0)``, and a
    point where ``grad_y f`` is not finite ``(nan, nan)``, without a
    warning: :func:`prox_step` gives it a nan ``T``. It takes one point, as
    :func:`feasibility_mcc` and :func:`certify` do: a stack raises
    :class:`~pfbe.core.DimensionError`.
    """
    x = as_vector(x, problem.dim_x, "x")
    y = as_vector(y, problem.dim_y, "y")
    yT, _ = prox_step(problem, cfg, x, y)
    return _norm_pair(problem, x, yT)


def _norm_pair(problem: MinimaxProblem, x: Vector, yT: Vector) -> tuple[float, float]:
    rx, ry = minimax_residual(problem, x, yT)
    return float(np.linalg.norm(rx)), float(np.linalg.norm(ry))


def transfer_constant(problem: MinimaxProblem, cfg: EnvelopeConfig) -> float:
    """Stationarity transfer factor ``1 + 2 L / mu + eta L``."""
    L = problem.lipschitz
    return 1.0 + 2.0 * L / problem.mu + cfg.eta * L


@quiet_floats
def feasibility_mcc(coupled: CoupledProblem, x, y) -> float:
    """Constraint violation ``||c(x, y) - proj_K(c(x, y))||``. A point where
    ``c`` is not finite returns nan, without a warning."""
    x = as_vector(x, coupled.dim_x, "x")
    y = as_vector(y, coupled.dim_y, "y")
    cval = np.asarray(coupled.c.eval_c(x, y), dtype=np.float64)
    return float(np.linalg.norm(cval - coupled.K.project(cval)))


@dataclass(frozen=True)
class Certificate:
    """Solution-quality summary for a lifted solve."""

    stat_gamma: float
    eps_x: float
    eps_y: float
    feasibility: float
    complementarity: float
    multiplier_ratio: float
    transfer_factor: float
    transfer_ok: bool
    passed: bool


@quiet_floats
def certify(lifted: LiftedProblem, cfg: EnvelopeConfig, x, lam, y) -> Certificate:
    """Build a :class:`Certificate` at a candidate lifted solution.

    ``passed`` requires the unnormalized penalized-stationarity residual,
    the base-problem feasibility, and the complementarity gap to all sit
    below ``CERTIFY_TOL``. ``transfer_ok`` checks the minimax residual pair
    against ``transfer_factor * stat`` with a 10% surrogate margin. Both
    come from one envelope evaluation: ``stat`` is
    :func:`stationarity_gamma` and the pair :func:`eps_minimax_mm`, taken
    at its maximizer ``T``. It raises as :func:`stationarity_gamma` does.
    """
    prob = lifted.problem
    ev = evaluate(prob, cfg, lifted.join(x, lam), y)
    stat = prox_grad_residual(prob, cfg, ev)
    eps_x, eps_y = _norm_pair(prob, ev.x, ev.T)
    feas = feasibility_mcc(lifted.base, x, y)
    cval = np.asarray(lifted.base.c.eval_c(as_vector(x), as_vector(y)), dtype=np.float64)
    comp = abs(float(np.vecdot(as_vector(lam), cval)))
    ratio = multiplier_bound_monitor(lifted, x, lam, y)
    factor = transfer_constant(prob, cfg)
    margin = 1.1
    transfer_ok = (eps_x <= margin * factor * stat + NORM_FLOOR) and (
        eps_y <= margin * factor * stat + NORM_FLOOR
    )
    passed = stat <= CERTIFY_TOL and feas <= CERTIFY_TOL and comp <= CERTIFY_TOL
    return Certificate(
        stat_gamma=stat,
        eps_x=eps_x,
        eps_y=eps_y,
        feasibility=feas,
        complementarity=comp,
        multiplier_ratio=ratio,
        transfer_factor=factor,
        transfer_ok=transfer_ok,
        passed=passed,
    )


@quiet_floats
def check_polar_convexity(coupled: CoupledProblem, sample_points) -> bool:
    """Midpoint-convexity check of ``y -> <lam, c(x, y)>`` for sampled data.

    ``sample_points`` yields ``(x, lam, y1, y2)`` tuples with ``lam`` in
    the polar cone. Returns True when every midpoint inequality holds
    within ``POLAR_CONVEXITY_TOL``. A sample whose ``<lam, c>`` at the
    midpoint or at either end is not finite raises
    :class:`~pfbe.core.NonFiniteValue` naming the sample, without a warning.
    """
    for i, (x, lam, y1, y2) in enumerate(sample_points):
        x = as_vector(x, coupled.dim_x, "x")
        lam = as_vector(lam, coupled.dim_c, "lam")
        y1 = as_vector(y1, coupled.dim_y, "y1")
        y2 = as_vector(y2, coupled.dim_y, "y2")
        ys = np.stack([0.5 * (y1 + y2), y1, y2])  # one call of c at the midpoint and both ends
        c = np.asarray(coupled.c.eval_c(np.tile(x, (3, 1)), ys), dtype=np.float64)
        mid, left, right = check_finite(
            np.vecdot(lam, c), f"<lam, c> of sample {i} at (midpoint, y1, y2)"
        )
        if mid > 0.5 * (left + right) + POLAR_CONVEXITY_TOL:
            return False
    return True
