"""What several test modules share: a grid scan of a one-dimensional
value function, and the rows of a stacked envelope evaluation."""

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


def eval_rows(ev, keep):
    """The stacked envelope evaluation ``ev`` restricted to the rows ``keep`` selects."""
    return replace(ev, **{
        f.name: getattr(ev, f.name)[keep]
        for f in fields(ev)
        if isinstance(getattr(ev, f.name), np.ndarray)
    })

