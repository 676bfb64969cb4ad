"""Stationarity measures, transfer certificates, and brute-force references.

All residuals are unit-step prox/projection residuals, the computable
surrogates for the set-valued stationarity distances. The minimax
residual pair is evaluated at ``(x, T(x, y))``, mirroring how an
approximate stationary point of the penalized objective transfers to an
approximate minimax point of the underlying problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    CoupledProblem,
    DimensionError,
    MinimaxProblem,
    as_vector,
)
from .envelope import (
    NORM_FLOOR,
    EnvelopeConfig,
    evaluate,
    grad_norm,
    prox_grad_residual,
    prox_step,
)
from .lagrangian import LiftedProblem, multiplier_bound_monitor
from .sets import BoxSet, composite_prox


def gamma_grad_ref_norm(problem: MinimaxProblem, cfg: EnvelopeConfig, x0, y0) -> float:
    """Norm of the smooth-part gradient at the reference (start) point."""
    return grad_norm(evaluate(problem, cfg, x0, y0, need_grad=True))


def stationarity_gamma(
    problem: MinimaxProblem,
    cfg: EnvelopeConfig,
    x,
    y,
    normalized: bool = False,
    ref_norm: Optional[float] = None,
    ref_point=None,
) -> float:
    """Prox-gradient residual of the penalized objective at ``(x, y)``.

    The residual is :func:`pfbe.envelope.prox_grad_residual`. With
    ``normalized=True`` it is divided by the smooth gradient norm at the
    reference point (``ref_norm`` or ``ref_point``); a reference below
    ``NORM_FLOOR`` degenerates and the unnormalized value is
    returned instead.
    """
    ev = evaluate(problem, cfg, x, y, need_grad=True)
    if not normalized:
        return prox_grad_residual(problem, cfg, ev)
    if ref_norm is None:
        if ref_point is None:
            raise ValueError("normalized stationarity needs ref_norm or ref_point")
        ref_norm = gamma_grad_ref_norm(problem, cfg, *ref_point)
    return prox_grad_residual(problem, cfg, ev, float(ref_norm))


def eps_minimax_mm(
    problem: MinimaxProblem, cfg: EnvelopeConfig, x, y
) -> tuple[float, float]:
    """Minimax residual pair at ``(x, T(x, y))``.

    Returns ``(eps_x, eps_y)`` where, with ``yT = T(x, y)``,

    * ``eps_x = ||prox_{r1 + ind_X}(x - grad_x f(x, yT)) - x||``
    * ``eps_y = ||prox_{r2 + ind_Y}(yT + grad_y f(x, yT)) - yT||``

    both at unit step. A first-order minimax point returns ``(0, 0)``.
    """
    x, y = problem.check_point(x, y)
    yT, _ = prox_step(problem, cfg, x, y)
    gx = np.asarray(problem.f.grad_x(x, yT), dtype=np.float64)
    gy = np.asarray(problem.f.grad_y(x, yT), dtype=np.float64)
    eps_x = float(np.linalg.norm(composite_prox(problem.r1, problem.X, x - gx, 1.0) - x))
    eps_y = float(np.linalg.norm(composite_prox(problem.r2, problem.Y, yT + gy, 1.0) - yT))
    return eps_x, eps_y


def transfer_constant(problem: MinimaxProblem, cfg: EnvelopeConfig) -> float:
    """Stationarity transfer factor ``1 + 2 L / mu + eta L``."""
    L = problem.lipschitz
    return 1.0 + 2.0 * L / problem.mu + cfg.eta * L


def feasibility_mcc(coupled: CoupledProblem, x, y) -> float:
    """Constraint violation ``||c(x, y) - proj_K(c(x, y))||``."""
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
    tol: float
    passed: bool


def certify(
    lifted: LiftedProblem,
    cfg: EnvelopeConfig,
    x,
    lam,
    y,
    tol: float = 1e-6,
) -> Certificate:
    """Build a :class:`Certificate` at a candidate lifted solution.

    ``passed`` requires the unnormalized penalized-stationarity residual,
    the base-problem feasibility, and the complementarity gap to all sit
    below ``tol``. ``transfer_ok`` checks the minimax residual pair
    against ``transfer_factor * stat`` with a 10% surrogate margin.
    """
    prob = lifted.problem
    z = lifted.join(x, lam)
    stat = stationarity_gamma(prob, cfg, z, y, normalized=False)
    eps_x, eps_y = eps_minimax_mm(prob, cfg, z, y)
    feas = feasibility_mcc(lifted.base, x, y)
    cval = np.asarray(lifted.base.c.eval_c(as_vector(x), as_vector(y)), dtype=np.float64)
    comp = abs(float(as_vector(lam) @ cval))
    ratio = multiplier_bound_monitor(lifted, x, lam, y)
    factor = transfer_constant(prob, cfg)
    margin = 1.1
    transfer_ok = (eps_x <= margin * factor * stat + NORM_FLOOR) and (
        eps_y <= margin * factor * stat + NORM_FLOOR
    )
    passed = stat <= tol and feas <= tol and comp <= tol
    return Certificate(
        stat_gamma=stat,
        eps_x=eps_x,
        eps_y=eps_y,
        feasibility=feas,
        complementarity=comp,
        multiplier_ratio=ratio,
        transfer_factor=factor,
        transfer_ok=transfer_ok,
        tol=tol,
        passed=passed,
    )


@dataclass(frozen=True, eq=False)
class BruteForceTable:
    """Tabulated value function over an x-grid.

    ``x`` has shape ``(num_points, n)``; ``phi`` is the grid maximum of
    ``g + r1`` over feasible y-grid points (``-inf`` on infeasible
    slices); ``y_star`` the grid argmax; ``feasible`` marks slices with
    at least one feasible point; ``on_window_edge`` marks slices whose
    argmax touches the y-grid boundary (the window may truncate the
    true maximizer).
    """

    x: np.ndarray
    phi: np.ndarray
    y_star: np.ndarray
    feasible: np.ndarray
    on_window_edge: np.ndarray


def _axis_grids(set_, grids, points: int, what: str) -> list[np.ndarray]:
    dim = set_.dim
    if grids is not None:
        if isinstance(grids, (list, tuple)) and len(grids) == dim and not np.isscalar(grids[0]):
            return [np.asarray(g, dtype=np.float64) for g in grids]
        arr = np.asarray(grids, dtype=np.float64)
        if dim == 1 and arr.ndim == 1:
            return [arr]
        raise DimensionError(f"{what} grid must supply one axis per dimension ({dim})")
    if isinstance(set_, BoxSet) and np.all(np.isfinite(set_.lo)) and np.all(np.isfinite(set_.hi)):
        return [np.linspace(set_.lo[i], set_.hi[i], points) for i in range(dim)]
    raise ValueError(f"{what} grid required for unbounded or non-box sets")


def brute_force_value_function(
    coupled: CoupledProblem,
    x_grid=None,
    y_grid=None,
    points: int = 400,
    feas_tol: float = 1e-9,
) -> BruteForceTable:
    """Exhaustive value-function table for low-dimensional problems.

    Supports ``n <= 2`` and ``p <= 2``. Default grids are ``points``
    equispaced values per axis over finite box bounds; unbounded axes
    need explicit grids. Slices with no feasible y-grid point are
    recorded with ``phi = -inf`` and ``feasible = False``.
    """
    n, p = coupled.dim_x, coupled.dim_y
    if n > 2 or p > 2:
        raise DimensionError("brute force supports n <= 2 and p <= 2 only")
    x_axes = _axis_grids(coupled.X, x_grid, points, "x")
    y_axes = _axis_grids(coupled.Y, y_grid, points, "y")

    if p == 1:
        y_points = y_axes[0][:, None]
        edge_mask = np.zeros(y_points.shape[0], dtype=bool)
        edge_mask[0] = edge_mask[-1] = True
    else:
        g1, g2 = np.meshgrid(y_axes[0], y_axes[1], indexing="ij")
        y_points = np.column_stack([g1.ravel(), g2.ravel()])
        e1 = np.zeros(len(y_axes[0]), dtype=bool)
        e1[0] = e1[-1] = True
        e2 = np.zeros(len(y_axes[1]), dtype=bool)
        e2[0] = e2[-1] = True
        edge_mask = (e1[:, None] | e2[None, :]).ravel()

    if n == 1:
        x_points = x_axes[0][:, None]
    else:
        g1, g2 = np.meshgrid(x_axes[0], x_axes[1], indexing="ij")
        x_points = np.column_stack([g1.ravel(), g2.ravel()])

    num_x = x_points.shape[0]
    phi = np.full(num_x, -np.inf)
    y_star = np.full((num_x, p), np.nan)
    feasible = np.zeros(num_x, dtype=bool)
    on_edge = np.zeros(num_x, dtype=bool)

    K = coupled.K
    for i in range(num_x):
        xi = x_points[i]
        best = -np.inf
        best_j = -1
        for j in range(y_points.shape[0]):
            yj = y_points[j]
            cval = np.asarray(coupled.c.eval_c(xi, yj), dtype=np.float64)
            if float(np.linalg.norm(cval - K.project(cval))) > feas_tol:
                continue
            val = float(coupled.g.eval(xi, yj)) + coupled.r1.value(xi)
            if val > best:
                best = val
                best_j = j
        if best_j >= 0:
            feasible[i] = True
            phi[i] = best
            y_star[i] = y_points[best_j]
            on_edge[i] = bool(edge_mask[best_j])

    return BruteForceTable(
        x=x_points, phi=phi, y_star=y_star, feasible=feasible, on_window_edge=on_edge
    )


def check_polar_convexity(
    coupled: CoupledProblem,
    sample_points,
    tol: float = 1e-10,
) -> bool:
    """Midpoint-convexity check of ``y -> <lam, c(x, y)>`` for sampled data.

    ``sample_points`` yields ``(x, lam, y1, y2)`` tuples with ``lam`` in
    the polar cone. Returns True when every midpoint inequality holds
    within ``tol``.
    """
    for x, lam, y1, y2 in sample_points:
        x = as_vector(x, coupled.dim_x, "x")
        lam = as_vector(lam, coupled.dim_c, "lam")
        y1 = as_vector(y1, coupled.dim_y, "y1")
        y2 = as_vector(y2, coupled.dim_y, "y2")
        mid = 0.5 * (y1 + y2)
        val_mid = float(lam @ np.asarray(coupled.c.eval_c(x, mid), dtype=np.float64))
        val_avg = 0.5 * (
            float(lam @ np.asarray(coupled.c.eval_c(x, y1), dtype=np.float64))
            + float(lam @ np.asarray(coupled.c.eval_c(x, y2), dtype=np.float64))
        )
        if val_mid > val_avg + tol:
            return False
    return True
