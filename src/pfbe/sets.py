"""Projectable boxes and cones, plus the fused prox combination rule.

Every set here is an axis-aligned box: the whole space is ``(-inf, inf)^d``,
the origin ``[0, 0]^d`` and an orthant ``[0, inf)^d`` or ``(-inf, 0]^d``. So
each projection is the componentwise clip, Moreau identities
(``z = proj_K(z) + proj_polar(z)`` with orthogonal parts) hold to rounding,
and a product of two of these sets is again one box.
Projections and :func:`composite_prox` take a point or a stack of points
(one per row) and act along the last axis, each row with the bits of the
1-D call; ``near_boundary`` takes one point.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DimensionError,
    IncompleteOracle,
    ProjectableCone,
    ProjectableSet,
    ProxRegularizer,
    Vector,
    as_points,
    as_vector,
    check_int,
)


class BoxSet(ProjectableSet):
    """Axis-aligned box ``{z : lo <= z <= hi}``; bounds may be +-inf."""

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionError(f"box bounds disagree: {lo.shape} vs {hi.shape}")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("box bounds must not be nan")
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
        self.lo = lo
        self.hi = hi
        self.dim = lo.shape[0]

    def project(self, z: Vector) -> Vector:
        # the clip ufunc np.clip calls, without its dispatch; np.minimum and
        # np.maximum can pick the other zero of a signed-zero tie
        z = as_points(z, self.dim, "point")
        if self.dim == 1 and z.ndim > 1:
            # bounds broadcast down a (k, 1) stack keep -0.0 where the 1-D
            # call does not; filled out to the stack, they give its bits
            return z.clip(np.full(z.shape, self.lo[0]), np.full(z.shape, self.hi[0]))
        return z.clip(self.lo, self.hi)

    def near_boundary(self, z: Vector, tol: float) -> bool:
        z = as_vector(z, self.dim, "point")
        lo, hi = np.isfinite(self.lo), np.isfinite(self.hi)  # inf - inf would warn
        return bool((np.abs(z[lo] - self.lo[lo]) <= tol).any()
                    or (np.abs(z[hi] - self.hi[hi]) <= tol).any())

    def __repr__(self):
        return f"BoxSet(lo={self.lo!r}, hi={self.hi!r})"


class WholeSpace(BoxSet, ProjectableCone):
    """All of R^d: the box ``(-inf, inf)^d``. Polar cone is the origin."""

    def __init__(self, dim: int):
        dim = check_int("dim", dim, 0)
        super().__init__(np.full(dim, -np.inf), np.full(dim, np.inf))

    def project(self, z: Vector) -> Vector:
        # the clip to infinite bounds gives the same bits; this skips it on
        # every prox in Y
        return as_points(z, self.dim, "point")

    def polar(self) -> "ZeroCone":
        return ZeroCone(self.dim)

    def __repr__(self):
        return f"WholeSpace({self.dim})"


class ZeroCone(BoxSet, ProjectableCone):
    """The origin ``{0}``: the box ``[0, 0]^d``. Polar cone is the whole space."""

    def __init__(self, dim: int):
        dim = check_int("dim", dim, 0)
        super().__init__(np.zeros(dim), np.zeros(dim))

    def polar(self) -> WholeSpace:
        return WholeSpace(self.dim)

    def __repr__(self):
        return f"ZeroCone({self.dim})"


class OrthantCone(BoxSet, ProjectableCone):
    """Nonnegative (``sign=+1``) or nonpositive (``sign=-1``) orthant: the
    box with bounds ``[0, inf)`` or ``(-inf, 0]``, so it projects by the box
    clip and flags the same boundary as that box."""

    def __init__(self, dim: int, sign: int = 1):
        self.sign = check_int("sign", sign, -1)  # not a bool or a float
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        dim = check_int("dim", dim, 0)
        bounds = (0.0, np.inf) if self.sign > 0 else (-np.inf, 0.0)
        super().__init__(*(np.full(dim, bound) for bound in bounds))

    def polar(self) -> "OrthantCone":
        return OrthantCone(self.dim, -self.sign)

    def __repr__(self):
        kind = "nonneg" if self.sign > 0 else "nonpos"
        return f"OrthantCone({self.dim}, {kind})"


def composite_prox(reg: ProxRegularizer, set_: ProjectableSet, z, step: float) -> Vector:
    """Prox of ``step * reg + indicator(set_)`` at ``z``.

    Supported exactly when the regularizer is zero, the set is the whole
    space, or the regularizer carries a fused prox for this set
    (``reg.attached_set is set_``). Other combinations raise
    :class:`IncompleteOracle` rather than silently composing projections.
    A zero ``step`` drops the regularizer and projects.

    ``z`` may be a stack of points; ``step`` is then a float or a column
    with one step per row. A nonzero regularizer's prox is taken row by
    row, since its callable need not take stacks.
    """
    # a nan or negative step fails; np.minimum keeps a nan, and a step >= 0 gives 0.0
    if (not step >= 0.0) if isinstance(step, float) else np.count_nonzero(np.minimum(step, 0.0)):
        raise ValueError("prox step must be nonnegative")
    if reg.is_zero or np.all(step == 0.0):
        return set_.project(z)  # which checks z
    if not (reg.attached_set is set_ or isinstance(set_, WholeSpace)):
        raise IncompleteOracle(
            "no fused prox available for this regularizer/set pair; supply a "
            "ProxRegularizer with attached_set or use a whole-space set"
        )
    z = as_points(z, set_.dim, "point")
    if z.ndim > 1:
        steps = np.broadcast_to(step, z.shape[:-1] + (1,))[..., 0]
        return np.array(
            [composite_prox(reg, set_, row, float(s)) for row, s in zip(z, steps)]
        ).reshape(z.shape)
    return np.asarray(reg.prox(z, step), dtype=np.float64)

