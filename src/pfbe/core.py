"""Problem containers, first-order oracles, and finite-difference probes.

Conventions used across the package:

* a decision vector is a 1-D ``float64`` array; ``x`` is the minimization
  block (dimension ``n``), ``y`` the concave maximization block
  (dimension ``p``);
* the envelope, the projections and the built-in oracles also take a
  stack of points, a 2-D array with one point per row, and act on each
  row as on that 1-D point, bit for bit (:func:`row_dot` gives the
  per-row dot products that keep those bits);
* gradients follow the same block split, so ``grad_x`` maps to ``R^n``
  and ``grad_y`` to ``R^p``;
* mixed Hessian-vector products act on y-directions:
  ``hvp_xy(x, y, v) = d/dt grad_x(x, y + t*v) | t=0`` lands in ``R^n``
  and ``hvp_yy(x, y, v) = d/dt grad_y(x, y + t*v) | t=0`` in ``R^p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, TypeAlias

import numpy as np
from numpy.typing import NDArray

Vector: TypeAlias = NDArray[np.float64]

_FLOAT64 = np.dtype(np.float64)
_SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))
_CBRT_EPS = float(np.cbrt(np.finfo(np.float64).eps))


class PfbeError(Exception):
    """Base class for all package errors."""


class NonFiniteValue(PfbeError):
    """An oracle or iterate produced a nan/inf."""


class ZeroDirection(PfbeError):
    """A directional operation received the zero vector."""


class DimensionError(PfbeError):
    """Array shape disagrees with the declared problem dimensions."""


class IncompleteOracle(PfbeError):
    """A required oracle piece is missing (e.g. no fused prox for r2 + set)."""


class UnsupportedSet(PfbeError):
    """The requested operation is not defined for this set variant."""


class DegenerateNormalization(PfbeError):
    """Stationarity normalization constant is numerically zero."""


class PreconditionViolation(PfbeError):
    """An input violates a documented precondition (e.g. multiplier outside the cone)."""


def as_vector(z, dim: Optional[int] = None, what: str = "vector") -> Vector:
    """Coerce ``z`` to a 1-D float64 array, checking the dimension if given."""
    arr = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if arr.ndim != 1:
        raise DimensionError(f"{what} must be 1-D, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionError(f"{what} has dimension {arr.shape[0]}, expected {dim}")
    return arr


def as_points(z, dim: Optional[int] = None, what: str = "point") -> Vector:
    """Coerce ``z`` to a 1-D float64 point or a 2-D stack of points (one per
    row), checking the point dimension if given. A float64 array that
    already conforms is returned as it is."""
    if type(z) is np.ndarray and z.dtype is _FLOAT64 and 0 < z.ndim <= 2:
        if dim is None or z.shape[-1] == dim:
            return z
    arr = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if arr.ndim > 2:
        raise DimensionError(f"{what} must be 1-D or a 2-D stack, got shape {arr.shape}")
    if dim is not None and arr.shape[-1] != dim:
        raise DimensionError(f"{what} has dimension {arr.shape[-1]}, expected {dim}")
    return arr


def row_dot(u, v):
    """``u @ v`` along the last axis: a float for two 1-D arrays, one value
    per row otherwise (a 1-D operand pairs with every row of the other).

    Each row gets the bits of the 1-D ``u @ v``: the stacked ``@`` of
    ``(1, d)`` by ``(d, 1)`` blocks runs the same dot kernel, where
    ``einsum`` or ``np.sum(u * v, axis=-1)`` round differently.
    """
    if u.ndim == 1 and v.ndim == 1:
        return float(u @ v)
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def check_finite(value, what: str = "value"):
    """Raise :class:`NonFiniteValue` if ``value`` contains a nan or inf."""
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise NonFiniteValue(f"non-finite {what}: {value!r}")
    return value


class ProjectableSet:
    """Closed set with a euclidean projection oracle.

    Subclasses set ``dim`` and ``convex`` and implement :meth:`project`.
    """

    dim: int
    convex: bool = True

    def project(self, z: Vector) -> Vector:
        raise NotImplementedError

    def contains(self, z: Vector, tol: float = 1e-12) -> bool:
        z = as_vector(z, self.dim, "point")
        return float(np.linalg.norm(self.project(z) - z)) <= tol

    def near_boundary(self, z: Vector, tol: float) -> bool:
        """True when the point ``z`` sits within ``tol`` of the set's boundary.

        Used to flag prox outputs that touch a kink of the projection;
        the default is conservative (False) for sets without boundary.
        """
        return False


class ProjectableCone(ProjectableSet):
    """Closed convex cone; adds the polar cone."""

    def polar(self) -> "ProjectableCone":
        raise NotImplementedError


@dataclass(frozen=True)
class FunctionOracle:
    """Smooth coupling function with first-order (and optional second-order) oracles.

    Parameters
    ----------
    eval : callable
        ``(x, y) -> float``.
    grad_x, grad_y : callable
        Partial gradients, ``(x, y) -> array``.
    lipschitz_grad : float
        A Lipschitz constant for the full gradient map; must be positive.
    strong_concavity : float
        Strong concavity modulus of ``y -> eval(x, y)``; must be positive.
    hvp_yy, hvp_xy : callable, optional
        Exact Hessian-vector products along y-directions. When missing,
        consumers fall back to finite differences and flag the result.
    stacks : bool
        Whether every callable also takes stacks of points, 2-D arrays
        with one point per row (and, for the products, one direction per
        row), and returns one value, gradient or product per row with the
        bits of the call on that row alone. The built-in synthetic
        oracles and their lift declare it. When False (the default), the
        envelope calls the oracle on each row of a stack in turn.
    """

    eval: Callable[[Vector, Vector], float]
    grad_x: Callable[[Vector, Vector], Vector]
    grad_y: Callable[[Vector, Vector], Vector]
    lipschitz_grad: float
    strong_concavity: float
    hvp_yy: Optional[Callable[[Vector, Vector, Vector], Vector]] = None
    hvp_xy: Optional[Callable[[Vector, Vector, Vector], Vector]] = None
    stacks: bool = False

    def __post_init__(self):
        if not (self.lipschitz_grad > 0 and np.isfinite(self.lipschitz_grad)):
            raise ValueError("lipschitz_grad must be a positive finite float")
        if not (self.strong_concavity > 0 and np.isfinite(self.strong_concavity)):
            raise ValueError("strong_concavity must be a positive finite float")


@dataclass(frozen=True)
class ProxRegularizer:
    """Nonsmooth term with a proximal oracle.

    ``prox(z, step)`` solves ``argmin_v eval(v) + ||v - z||^2 / (2 step)``.
    When ``attached_set`` is given, the prox is the fused prox of
    ``eval + indicator(attached_set)`` and consumers must not project again.
    """

    eval: Callable[[Vector], float]
    prox: Callable[[Vector, float], Vector]
    is_zero: bool = False
    attached_set: Optional[ProjectableSet] = None

    def value(self, z: Vector) -> float:
        """``eval(z)``, or one value per row of a stack of points."""
        if self.is_zero:
            return 0.0
        if np.ndim(z) > 1:
            return np.array([float(self.eval(row)) for row in z])
        return float(self.eval(z))


def zero_regularizer() -> ProxRegularizer:
    """The identically-zero regularizer (prox = identity)."""
    return ProxRegularizer(
        eval=lambda z: 0.0,
        prox=lambda z, step: np.asarray(z, dtype=np.float64),
        is_zero=True,
    )


@dataclass(frozen=True)
class MinimaxProblem:
    """min over X of max over Y of ``f(x, y) + r1(x) - r2(y)``.

    ``f`` must be strongly concave in ``y`` with the declared modulus, and
    ``r1`` and ``r2`` convex; neither is verified.
    """

    f: FunctionOracle
    X: ProjectableSet
    Y: ProjectableSet
    r1: ProxRegularizer = field(default_factory=zero_regularizer)
    r2: ProxRegularizer = field(default_factory=zero_regularizer)

    @property
    def dim_x(self) -> int:
        return self.X.dim

    @property
    def dim_y(self) -> int:
        return self.Y.dim

    @property
    def mu(self) -> float:
        return self.f.strong_concavity

    @property
    def lipschitz(self) -> float:
        return self.f.lipschitz_grad

    def check_point(self, x, y) -> tuple[Vector, Vector]:
        """``(x, y)`` as float64 points, or as two stacks of as many rows."""
        x = as_points(x, self.dim_x, "x")
        y = as_points(y, self.dim_y, "y")
        if x.shape[:-1] != y.shape[:-1]:
            raise DimensionError(f"x and y stacks differ: {x.shape} vs {y.shape}")
        return x, y


@dataclass(frozen=True)
class ConstraintOracle:
    """Coupled constraint map ``c : R^n x R^p -> R^m`` with adjoint products.

    ``jvp_x(x, y, lam) = grad_x <lam, c(x, y)>`` and likewise ``jvp_y``.
    ``dc_y(x, y, v) = d/dt c(x, y + t v)`` is the forward derivative used
    by the lifted mixed Hessian block. For a constraint affine in ``y``
    the lift reconstructs it exactly from ``eval_c`` when it is missing;
    for any other constraint the lifted ``hvp_xy`` exists only when both
    ``dc_y`` and ``hvp_xy_lam`` are given, and otherwise the envelope
    falls back to finite differences (see :func:`pfbe.lagrangian.lift`).
    ``hvp_*_lam`` are the second derivatives of ``(x, y) -> <lam, c(x, y)>``
    along y-directions; they vanish when ``linear_in_y`` is set.
    ``stacks`` declares, as for :class:`FunctionOracle`, that every
    callable also takes stacks of points, row by row bit for bit.
    """

    dim: int
    eval_c: Callable[[Vector, Vector], Vector]
    jvp_x: Callable[[Vector, Vector, Vector], Vector]
    jvp_y: Callable[[Vector, Vector, Vector], Vector]
    dc_y: Optional[Callable[[Vector, Vector, Vector], Vector]] = None
    hvp_xy_lam: Optional[Callable[[Vector, Vector, Vector, Vector], Vector]] = None
    hvp_yy_lam: Optional[Callable[[Vector, Vector, Vector, Vector], Vector]] = None
    linear_in_y: bool = False
    stacks: bool = False


@dataclass(frozen=True)
class CoupledProblem:
    """min over X of max over {y in Y : c(x, y) in K} of ``g(x, y) + r1(x)``.

    ``K`` is a closed convex cone; ``y -> <lam, c(x, y)>`` must be convex
    for every ``lam`` in the polar cone (checked stochastically by the
    diagnostics, declared here).
    """

    g: FunctionOracle
    c: ConstraintOracle
    X: ProjectableSet
    Y: ProjectableSet
    K: ProjectableCone
    r1: ProxRegularizer = field(default_factory=zero_regularizer)

    @property
    def dim_x(self) -> int:
        return self.X.dim

    @property
    def dim_y(self) -> int:
        return self.Y.dim

    @property
    def dim_c(self) -> int:
        return self.c.dim


def fd_gradient(oracle: FunctionOracle, x, y) -> tuple[Vector, Vector]:
    """Central-difference gradient of ``oracle.eval`` in both blocks.

    The step is ``sqrt(eps) * (1 + ||block||)`` per block. Raises
    :class:`NonFiniteValue` if any probe evaluation is non-finite.
    """
    x = as_vector(x, what="x")
    y = as_vector(y, what="y")
    hx = _SQRT_EPS * (1.0 + float(np.linalg.norm(x)))
    hy = _SQRT_EPS * (1.0 + float(np.linalg.norm(y)))

    def probe(xp, yp) -> float:
        return float(check_finite(oracle.eval(xp, yp), "oracle value"))

    gx = np.zeros_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = hx
        gx[i] = (probe(x + e, y) - probe(x - e, y)) / (2.0 * hx)
    gy = np.zeros_like(y)
    for j in range(y.shape[0]):
        e = np.zeros_like(y)
        e[j] = hy
        gy[j] = (probe(x, y + e) - probe(x, y - e)) / (2.0 * hy)
    return gx, gy


def _fd_directional(grad_fn, x: Vector, y: Vector, v: Vector) -> Vector:
    norm_v = float(np.linalg.norm(v))
    if norm_v == 0.0:
        raise ZeroDirection("finite-difference HVP needs a nonzero direction")
    unit = v / norm_v
    h = _CBRT_EPS * (1.0 + float(np.linalg.norm(y)))
    gp = np.asarray(grad_fn(x, y + h * unit), dtype=np.float64)
    gm = np.asarray(grad_fn(x, y - h * unit), dtype=np.float64)
    check_finite(gp, "gradient probe")
    check_finite(gm, "gradient probe")
    return (gp - gm) / (2.0 * h) * norm_v


def fd_hvp_yy(oracle: FunctionOracle, x, y, v) -> Vector:
    """Central-difference ``hvp_yy`` along ``v`` (step ``~eps^(1/3)`` scaled)."""
    x = as_vector(x, what="x")
    y = as_vector(y, what="y")
    v = as_vector(v, y.shape[0], "direction")
    return _fd_directional(oracle.grad_y, x, y, v)


def fd_hvp_xy(oracle: FunctionOracle, x, y, v) -> Vector:
    """Central-difference ``hvp_xy`` along the y-direction ``v``."""
    x = as_vector(x, what="x")
    y = as_vector(y, what="y")
    v = as_vector(v, y.shape[0], "direction")
    return _fd_directional(oracle.grad_x, x, y, v)
