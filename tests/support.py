"""What several test modules share: a grid scan of a one-dimensional
value function, a lift-free reference for the synthetic family, and the
rows of a stacked envelope evaluation."""

from dataclasses import fields, replace

import numpy as np


def grid_value_function(coupled, x_grid, y_grid):
    """Grid maximum of ``g + r1`` over the feasible y-grid points, at each
    point of the x-grid, for a coupled problem with ``n = p = 1``; a point
    is feasible when ``c(x, y)`` is within 1e-9 of ``K``.

    Returns ``(phi, y_star)``: the maximum and the first grid point that
    attains it. A slice with no feasible grid point has ``phi = -inf`` and
    ``y_star = nan``.
    """
    phi = np.full(len(x_grid), -np.inf)
    y_star = np.full(len(x_grid), np.nan)
    for i, xv in enumerate(x_grid):
        x = np.array([xv])
        for yv in y_grid:
            y = np.array([yv])
            cval = np.asarray(coupled.c.eval_c(x, y), dtype=np.float64)
            if np.linalg.norm(cval - coupled.K.project(cval)) > 1e-9:
                continue
            val = float(coupled.g.eval(x, y)) + coupled.r1.value(x)
            if val > phi[i]:
                phi[i], y_star[i] = val, yv
    return phi, y_star


def synthetic_reference(inst, c, x):
    """Lift-free first-order quantities at ``x`` of a synthetic instance
    made at level ``c``.

    With ``a = B^T x``, the inner maximum over ``{y : x_i + y_i <= c, i < m}``
    is separable: ``y*_i = min(a_i, c - x_i)`` for ``i < m`` and ``a_i``
    otherwise, with multiplier ``lam*_i = a_i - y*_i = max(0, a_i + x_i - c)``.
    The value function ``phi`` is then C^1 with ``grad phi = b + B y* -
    pad(lam*)``. Returns ``(residual, y*, lam*)``, where the residual
    ``||clip(x - grad phi, 0, 1) - x||`` is a first-order minimax residual of
    the constrained problem that uses only ``B``, ``b`` and ``c``.
    """
    m = inst.lifted.m
    a = inst.B.T @ x
    y_star = a.copy()
    y_star[:m] = np.minimum(a[:m], c - x[:m])
    lam_star = np.maximum(0.0, a[:m] + x[:m] - c)
    grad = inst.b + inst.B @ y_star
    grad[:m] -= lam_star
    return float(np.linalg.norm(np.clip(x - grad, 0.0, 1.0) - x)), y_star, lam_star


def eval_rows(ev, keep):
    """The stacked envelope evaluation ``ev`` restricted to the rows ``keep`` selects."""
    return replace(ev, **{
        f.name: getattr(ev, f.name)[keep]
        for f in fields(ev)
        if isinstance(getattr(ev, f.name), np.ndarray)
    })

