"""Projectable set and cone variants, plus the fused prox combination rules.

All projections are exact componentwise formulas, so Moreau identities
(``z = proj_K(z) + proj_polar(z)`` with orthogonal parts) hold to rounding.
Projections and :func:`composite_prox` take a point or a stack of points
(one per row) and act along the last axis, each row with the bits of the
1-D call; ``near_boundary`` takes one point.
"""

from __future__ import annotations

import math

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
    row_dot,
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
        return as_points(z, self.dim, "point").clip(self.lo, self.hi)

    def near_boundary(self, z: Vector, tol: float) -> bool:
        z = as_vector(z, self.dim, "point")
        lo, hi = np.isfinite(self.lo), np.isfinite(self.hi)  # inf - inf would warn
        return bool((np.abs(z[lo] - self.lo[lo]) <= tol).any()
                    or (np.abs(z[hi] - self.hi[hi]) <= tol).any())

    def __repr__(self):
        return f"BoxSet(lo={self.lo!r}, hi={self.hi!r})"


class WholeSpace(ProjectableCone):
    """All of R^d; projection is the identity. Polar cone is the origin."""

    def __init__(self, dim: int):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        self.dim = int(dim)

    def project(self, z: Vector) -> Vector:
        return as_points(z, self.dim, "point")

    def polar(self) -> "ZeroCone":
        return ZeroCone(self.dim)

    def __repr__(self):
        return f"WholeSpace({self.dim})"


class ZeroCone(ProjectableCone):
    """The origin ``{0}``; polar cone is the whole space."""

    def __init__(self, dim: int):
        self.dim = int(dim)

    def project(self, z: Vector) -> Vector:
        return np.zeros_like(as_points(z, self.dim, "point"))

    def polar(self) -> WholeSpace:
        return WholeSpace(self.dim)

    def near_boundary(self, z: Vector, tol: float) -> bool:
        z = as_vector(z, self.dim, "point")
        return math.sqrt(row_dot(z, z)) <= tol

    def __repr__(self):
        return f"ZeroCone({self.dim})"


class OrthantCone(BoxSet, ProjectableCone):
    """Nonnegative (``sign=+1``) or nonpositive (``sign=-1``) orthant: the
    box with bounds ``[0, inf)`` or ``(-inf, 0]``, so it projects by the box
    clip and flags the same boundary as that box."""

    def __init__(self, dim: int, sign: int = 1):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.sign = int(sign)
        bounds = (0.0, np.inf) if sign > 0 else (-np.inf, 0.0)
        super().__init__(*(np.full(int(dim), bound) for bound in bounds))

    def polar(self) -> "OrthantCone":
        return OrthantCone(self.dim, -self.sign)

    def __repr__(self):
        kind = "nonneg" if self.sign > 0 else "nonpos"
        return f"OrthantCone({self.dim}, {kind})"


class BallSet(ProjectableSet):
    """Euclidean ball ``{z : ||z - center|| <= radius}``."""

    def __init__(self, center, radius: float):
        self.center = as_vector(center, what="center")
        if not (radius > 0 and np.isfinite(radius)):
            raise ValueError("radius must be positive and finite")
        self.radius = float(radius)
        self.dim = self.center.shape[0]

    def project(self, z: Vector) -> Vector:
        z = as_points(z, self.dim, "point")
        d = z - self.center
        nd = np.sqrt(row_dot(d, d))[..., None]  # one norm per row
        with np.errstate(divide="ignore", invalid="ignore"):
            onto = self.center + (self.radius / nd) * d
        return np.where(nd <= self.radius, z, onto)

    def near_boundary(self, z: Vector, tol: float) -> bool:
        d = as_vector(z, self.dim, "point") - self.center
        return abs(math.sqrt(row_dot(d, d)) - self.radius) <= tol

    def __repr__(self):
        return f"BallSet(dim={self.dim}, radius={self.radius})"


class ProductSet(ProjectableSet):
    """Cartesian product of sets, stored as one concatenated vector."""

    def __init__(self, parts):
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("product of zero sets")
        self.dims = tuple(s.dim for s in self.parts)
        self.dim = int(sum(self.dims))
        self.convex = all(s.convex for s in self.parts)
        ends = np.cumsum(self.dims).tolist()
        self._slices = tuple(slice(a, b) for a, b in zip([0] + ends, ends))

    def split(self, z: Vector) -> list[Vector]:
        z = as_points(z, self.dim, "point")
        return [z[..., sl] for sl in self._slices]

    def project(self, z: Vector) -> Vector:
        blocks = self.split(z)
        return np.concatenate([s.project(b) for s, b in zip(self.parts, blocks)], axis=-1)

    def near_boundary(self, z: Vector, tol: float) -> bool:
        blocks = self.split(as_vector(z, self.dim, "point"))
        return any(s.near_boundary(b, tol) for s, b in zip(self.parts, blocks))

    def __repr__(self):
        return f"ProductSet({list(self.parts)!r})"


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
    z = as_points(z, set_.dim, "point")
    if z.ndim > 1:
        if (np.asarray(step) < 0).any():
            raise ValueError("prox step must be nonnegative")
        if reg.is_zero:
            return set_.project(z)
        steps = np.broadcast_to(step, z.shape[:-1] + (1,))[..., 0]
        return np.array(
            [composite_prox(reg, set_, row, float(s)) for row, s in zip(z, steps)]
        ).reshape(z.shape)
    if step < 0:
        raise ValueError("prox step must be nonnegative")
    if reg.is_zero or step == 0.0:
        return set_.project(z)
    if reg.attached_set is set_:
        return np.asarray(reg.prox(z, step), dtype=np.float64)
    if isinstance(set_, WholeSpace):
        return np.asarray(reg.prox(z, step), dtype=np.float64)
    raise IncompleteOracle(
        "no fused prox available for this regularizer/set pair; supply a "
        "ProxRegularizer with attached_set or use a whole-space set"
    )


__all__ = [
    "BoxSet",
    "WholeSpace",
    "ZeroCone",
    "OrthantCone",
    "BallSet",
    "ProductSet",
    "composite_prox",
]
