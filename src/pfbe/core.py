"""The one set type, problem containers, oracles, and the finite-difference
probes of ``pfbe check``.

Conventions used across the package:

* every set is a :class:`BoxSet`: ``X``, ``Y``, a cone ``K``, its polar
  (read from the bounds by :meth:`BoxSet.polar`) and the lifted
  ``X x polar(K)``; the problem containers reject any other set;
* a decision vector is a 1-D ``float64`` array; ``x`` is the minimization
  block (dimension ``n``), ``y`` the concave maximization block
  (dimension ``p``);
* gradients follow the same block split, so ``grad_x`` maps to ``R^n``
  and ``grad_y`` to ``R^p``;
* mixed Hessian-vector products act on y-directions:
  ``hvp_xy(x, y, v) = d/dt grad_x(x, y + t*v) | t=0`` lands in ``R^n``
  and ``hvp_yy(x, y, v) = d/dt grad_y(x, y + t*v) | t=0`` in ``R^p``;
* every callable of a :class:`FunctionOracle`, :class:`ConstraintOracle`
  or :class:`ProxRegularizer` takes a point or a stack (a 2-D array, one
  point per row) and returns one value, gradient or product per row with
  the bits of that row's own call (``np.vecdot`` keeps them for dot
  products, and gives two 1-D vectors the bits of ``float(u @ v)`` as an
  ``np.float64``); a ``prox`` takes a float step or a column of per-row
  steps. Each result is a float64 ``np.ndarray``, and a value at one point
  may also be a ``float``; the library does not coerce them. This is
  probed once, not per call: a :class:`MinimaxProblem` probes ``f``,
  ``r1`` and ``r2``, and a :class:`CoupledProblem` ``g``, ``c`` and
  ``r1``, when it is built;
* numpy's floating-point warnings are off only under :data:`quiet_floats`,
  the one rule, where a nan or inf is a documented outcome: in the probe,
  the solver loop and the diagnostics.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, TypeAlias

import numpy as np
from numpy.typing import NDArray

Vector: TypeAlias = NDArray[np.float64]

_FLOAT64 = np.dtype(np.float64)
_SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))
_CBRT_EPS = float(np.cbrt(np.finfo(np.float64).eps))


# a decorator only: numpy enters one errstate once, but each decorated call anew
quiet_floats = np.errstate(over="ignore", invalid="ignore", divide="ignore")


class PfbeError(Exception):
    """Base class for all package errors."""


class NonFiniteValue(PfbeError):
    """An oracle or iterate produced a nan/inf."""


class ZeroDirection(PfbeError):
    """A directional operation received the zero vector."""


class DimensionError(PfbeError):
    """Array shape disagrees with the declared problem dimensions."""


class IncompleteOracle(PfbeError):
    """A required oracle piece is missing (e.g. no fused prox, or no HVP)."""


class UnsupportedSet(PfbeError):
    """The requested operation is not defined for this set variant."""


class DegenerateNormalization(PfbeError):
    """A vector to be scaled to unit norm has norm numerically zero: raised by
    :func:`~pfbe.problems.make_synthetic` when its draw of ``b`` has zero
    norm. The stationarity residual's normalization raises nothing; it uses
    ``envelope.NORM_FLOOR``."""


class PreconditionViolation(PfbeError):
    """An input violates a documented precondition (e.g. multiplier outside the cone)."""


def check_int(name: str, value, low: int) -> int:
    """``value`` as an ``int``; raises ``ValueError`` naming ``name`` unless it
    is an integer ``>= low``. A bool is not one; a numpy integer is."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return int(value)


def check_real(name: str, value, low: Optional[float] = None, strict: bool = False) -> float:
    """``value`` as a ``float``; raises ``ValueError`` naming ``name`` unless it
    is a finite real number that is ``>= low``, or ``> low`` when ``strict``,
    if ``low`` is given. A bool is not one (it is an Integral); an integer
    beyond the float range is not finite."""
    try:
        finite = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                  and math.isfinite(value))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    if low is not None and not (value > low if strict else value >= low):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {low}, got {value!r}")
    return float(value)


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


def as_vector(z, dim: Optional[int] = None, what: str = "vector") -> Vector:
    """:func:`as_points` of ``z`` that must be one point: a 1-D float64 array."""
    arr = as_points(z, dim, what)
    if arr.ndim != 1:
        raise DimensionError(f"{what} must be 1-D, got shape {arr.shape}")
    return arr


def as_values(what: str, value, one: bool):
    """A value callable's result: a float at one point (``one``), else one
    float64 value per row. :class:`DimensionError` names ``what``, the
    callable, when a one-point result is not one number."""
    try:
        return float(value) if one else np.asarray(value, dtype=np.float64)
    except TypeError:  # float() takes one value only
        raise DimensionError(f"{what} returned shape {np.shape(value)}, expected ()") from None


# the probe stacks each callable takes and its results, by letter: x, y, a
# multiplier l, a y-direction v, a column of steps t, one step u; s one value
_FUNCTION_CALLS = (("eval", "xy", "s"), ("grad_x", "xy", "x"), ("grad_y", "xy", "y"),
                   ("hvp_yy", "xyv", "y"), ("hvp_xy", "xyv", "x"), ("first_order", "xy", "sxy"))
_CONSTRAINT_CALLS = (("eval_c", "xy", "l"), ("jvp_x", "xyl", "x"), ("jvp_y", "xyl", "y"),
                     ("dc_y", "xyv", "l"), ("hvp_xy_lam", "xylv", "x"),
                     ("hvp_yy_lam", "xylv", "y"))
_REGULARIZER_CALLS = {z: (("eval", z, "s"), ("prox", z + "t", z), ("prox", z + "u", z))
                      for z in "xy"}


@quiet_floats  # a probe point may overflow; its bytes still compare
def _probe(boxes: dict, *owners) -> None:
    """Probe the calling convention: call each callable that an ``(owner,
    obj, calls)`` of ``owners`` names, unless it is None or ``obj`` is a zero
    regularizer, on 2-row stacks and on each of their rows alone, and raise
    :class:`DimensionError` naming it unless each part of the result has one
    row per point with that row's bytes, and each part of a bundle the bytes
    of its separate call, called before it on the same stacks, and then
    unless each part is a float64 ``np.ndarray`` (a value at one point may
    also be a ``float``, so an ``np.float64``). The stack of each of
    ``boxes`` holds its projected origin and a point of it that differs in
    each free coordinate."""
    v = 1.0 / (2.0 + np.arange(boxes["y"].dim))  # two y-directions, and steps
    stacks = {"v": (np.stack([v, -v[::-1]]), v, -v[::-1]),
              "t": (np.array([[0.5], [0.25]]), 0.5, 0.25), "u": (0.5, 0.5, 0.5)}
    for name, box in boxes.items():
        z = box.project(np.zeros(box.dim))
        step = (1.0 + np.abs(z)) / (2.0 + np.arange(box.dim))  # distinct fractions of 1 + |z|
        up = box.project(z + step)
        pair = np.stack([z, np.where(up != z, up, box.project(z - step))])
        stacks[name] = (pair, *pair)
    cases = [(owner, name, getattr(obj, name), args, out) for owner, obj, calls in owners
             if not getattr(obj, "is_zero", False)  # no solve calls a zero regularizer
             for name, args, out in calls if getattr(obj, name) is not None]
    seen = {}  # the bytes of each call on the stacks, by owner, callable and stacks
    for owner, name, fn, args, out in cases:
        what = f"{owner}.{name}"
        got = [fn(*[stacks[a][i] for a in args]) for i in range(3)]
        parts = ("eval", "grad_x", "grad_y") if name == "first_order" else (name,)
        for part, call, results in zip(out, parts, zip(*got) if len(out) > 1 else [got]):
            stacked, row0, row1 = [np.asarray(r, dtype=np.float64) for r in results]
            shape = () if part == "s" else stacks[part][1].shape
            if (stacked.shape, row0.shape, row1.shape) != ((2,) + shape, shape, shape):
                raise DimensionError(f"{what} returned shapes {stacked.shape}, {row0.shape} "
                                     f"and {row1.shape} for a 2-row stack and its rows, "
                                     f"expected {(2,) + shape}, {shape} and {shape}")
            if stacked.tobytes() != row0.tobytes() + row1.tobytes():
                raise DimensionError(f"{what} returned rows on a 2-row stack whose bytes "
                                     f"differ from those of each row's own call")
            if seen.setdefault((owner, call, args), stacked.tobytes()) != stacked.tobytes():
                raise DimensionError(f"{what} returned a part whose bytes differ from "
                                     f"those of {owner}.{call}")
            for i, r in enumerate(results):  # a float64 array, or a float value at one point
                if not (isinstance(r, np.ndarray) and r.dtype == _FLOAT64
                        or i and part == "s" and isinstance(r, float)):
                    raise DimensionError(
                        f"{what} returned {getattr(r, 'dtype', type(r).__name__)} results, "
                        "expected float64 arrays, or a float for a value at one point")


def check_finite(value, what: str = "value"):
    """Raise :class:`NonFiniteValue` if ``value`` has a nan or inf, naming a number as a float."""
    # a count is cheaper than ndarray.all at the sizes of an iterate
    if not (math.isfinite(value) if isinstance(value, float)
            else np.count_nonzero(finite := np.isfinite(value)) == finite.size):
        raise NonFiniteValue(f"non-finite {what}: "
                             f"{float(value) if isinstance(value, float) else value!r}")
    return value


class BoxSet:
    """Axis-aligned box ``{z : lo <= z <= hi}``; bounds may be +-inf.

    The one set type: ``X``, ``Y``, a cone ``K`` and its polar are boxes.
    ``whole`` is True when every bound is infinite, so the box is all of
    ``R^dim``. A box is a cone when each coordinate is ``R``, ``{0}``,
    ``[0, inf)`` or ``(-inf, 0]``.
    """

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
        self.whole = bool(np.isneginf(lo).all() and np.isposinf(hi).all())

    def project(self, z: Vector) -> Vector:
        # the clip ufunc np.clip calls, without its dispatch; np.minimum and
        # np.maximum can pick the other zero of a signed-zero tie
        z = as_points(z, self.dim, "point")
        if self.whole:  # the clip to infinite bounds gives the same bits
            return z
        if self.dim == 1 and z.ndim > 1:
            # bounds broadcast down a (k, 1) stack keep -0.0 where the 1-D
            # call does not; filled out to the stack, they give its bits
            return z.clip(np.full(z.shape, self.lo[0]), np.full(z.shape, self.hi[0]))
        return z.clip(self.lo, self.hi)

    def contains(self, z: Vector, tol: float = 1e-12) -> bool:
        """True when ``z`` lies within ``tol`` of its projection; a point
        with a nan or inf fails, before ``inf - inf`` could warn."""
        z = as_vector(z, self.dim, "point")
        return bool(np.isfinite(z).all()) and float(np.linalg.norm(self.project(z) - z)) <= tol

    def near_boundary(self, z: Vector, tol: float) -> bool:
        """Whether one point lies within ``tol`` of a finite bound."""
        z = as_vector(z, self.dim, "point")
        lo, hi = np.isfinite(self.lo), np.isfinite(self.hi)  # inf - inf would warn
        return bool((np.abs(z[lo] - self.lo[lo]) <= tol).any()
                    or (np.abs(z[hi] - self.hi[hi]) <= tol).any())

    def polar(self) -> "BoxSet":
        """The polar cone ``{v : <v, z> <= 0 for every z in the box}``, read
        from the bounds: per coordinate ``[0, inf)`` and ``(-inf, 0]`` swap,
        and so do ``R`` and ``{0}``. A box that is not a cone raises
        :class:`UnsupportedSet`."""
        lo0, hi0 = self.lo == 0.0, self.hi == 0.0
        if not ((lo0 | np.isneginf(self.lo)).all() and (hi0 | np.isposinf(self.hi)).all()):
            raise UnsupportedSet(f"{self!r} is not a cone, so it has no polar cone")
        return BoxSet(np.where(lo0, -np.inf, 0.0), np.where(hi0, np.inf, 0.0))

    def __repr__(self):
        return f"BoxSet(lo={self.lo!r}, hi={self.hi!r})"


def _check_boxes(owner: str, **sets) -> None:
    """Raise :class:`UnsupportedSet` naming ``owner.<name>`` for a set that
    is not a :class:`BoxSet`."""
    for name, set_ in sets.items():
        if not isinstance(set_, BoxSet):
            raise UnsupportedSet(f"{owner}.{name} must be a BoxSet, got {type(set_).__name__}")


@dataclass(frozen=True)
class FunctionOracle:
    """Smooth coupling function with first- and second-order oracles.

    Every result is a float64 ``np.ndarray`` (a value at one point may be a
    ``float``), which the problem that takes the oracle checks once, when
    it is built.

    Parameters
    ----------
    eval : callable
        ``(x, y) -> float``, or a float64 array of one value per row.
    grad_x, grad_y : callable
        Partial gradients, ``(x, y) -> array``.
    lipschitz_grad : float
        A Lipschitz constant for the full gradient map; positive and finite.
    strong_concavity : float
        Strong concavity modulus of ``y -> eval(x, y)``; positive and finite.
    hvp_yy, hvp_xy : callable
        Exact Hessian-vector products along y-directions, ``(x, y, v) ->
        array``, which the envelope gradient needs. A product must be linear
        in ``v``, so it gives zeros along ``v = 0``: the envelope takes it
        along every residual, zero ones included. A value that is not
        callable raises :class:`IncompleteOracle` at construction.
    first_order : callable, optional
        ``(x, y) -> (eval, grad_x, grad_y)`` in one call, with the bits of
        the separate calls. The envelope takes all three from it at every
        evaluation, and from the separate calls when it is None (the
        default).
    """

    eval: Callable[[Vector, Vector], float]
    grad_x: Callable[[Vector, Vector], Vector]
    grad_y: Callable[[Vector, Vector], Vector]
    lipschitz_grad: float
    strong_concavity: float
    hvp_yy: Callable[[Vector, Vector, Vector], Vector]
    hvp_xy: Callable[[Vector, Vector, Vector], Vector]
    first_order: Optional[Callable[[Vector, Vector], tuple]] = None

    def __post_init__(self):
        for name in ("lipschitz_grad", "strong_concavity"):
            check_real(name, getattr(self, name), 0, strict=True)
        for name in ("hvp_yy", "hvp_xy"):
            if not callable(getattr(self, name)):
                raise IncompleteOracle(f"FunctionOracle.{name} must be callable")


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
    attached_set: Optional[BoxSet] = None

    def value(self, z: Vector) -> float:
        """``eval(z)``: a float at one point, one value per row of a stack."""
        return 0.0 if self.is_zero else as_values("ProxRegularizer.eval", self.eval(z),
                                                   np.ndim(z) == 1)


def zero_regularizer() -> ProxRegularizer:
    """The identically-zero regularizer (prox = identity)."""
    return ProxRegularizer(
        eval=lambda z: np.zeros(np.shape(z)[:-1]),
        prox=lambda z, step: np.asarray(z, dtype=np.float64),
        is_zero=True,
    )


@dataclass(frozen=True)
class MinimaxProblem:
    """min over X of max over Y of ``f(x, y) + r1(x) - r2(y)``.

    ``f`` must be strongly concave in ``y`` with the declared modulus, and
    ``r1`` and ``r2`` convex; neither is verified. A set that is not a
    :class:`BoxSet`, or a callable of ``f``, ``r1`` or ``r2`` that fails the
    probe of the calling convention, raises when the problem is built.
    """

    f: FunctionOracle
    X: BoxSet
    Y: BoxSet
    r1: ProxRegularizer = field(default_factory=zero_regularizer)
    r2: ProxRegularizer = field(default_factory=zero_regularizer)

    def __post_init__(self):
        _check_boxes("MinimaxProblem", X=self.X, Y=self.Y)
        _probe({"x": self.X, "y": self.Y}, ("FunctionOracle", self.f, _FUNCTION_CALLS),
               ("MinimaxProblem.r1", self.r1, _REGULARIZER_CALLS["x"]),
               ("MinimaxProblem.r2", self.r2, _REGULARIZER_CALLS["y"]))

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
    ``dc_y(x, y, v) = d/dt c(x, y + t v)``, and ``hvp_xy_lam`` and
    ``hvp_yy_lam`` are the derivatives of ``jvp_x`` and ``jvp_y`` along a
    y-direction ``v``: the exact products the lift needs. A value of the
    three that is not callable raises :class:`IncompleteOracle` at
    construction. Every result is a float64 ``np.ndarray``, which a
    :class:`CoupledProblem` checks once, when it is built.
    """

    dim: int
    eval_c: Callable[[Vector, Vector], Vector]
    jvp_x: Callable[[Vector, Vector, Vector], Vector]
    jvp_y: Callable[[Vector, Vector, Vector], Vector]
    dc_y: Callable[[Vector, Vector, Vector], Vector]
    hvp_xy_lam: Callable[[Vector, Vector, Vector, Vector], Vector]
    hvp_yy_lam: Callable[[Vector, Vector, Vector, Vector], Vector]

    def __post_init__(self):
        for name in ("dc_y", "hvp_xy_lam", "hvp_yy_lam"):
            if not callable(getattr(self, name)):
                raise IncompleteOracle(f"ConstraintOracle.{name} must be callable")


@dataclass(frozen=True)
class CoupledProblem:
    """min over X of max over {y in Y : c(x, y) in K} of ``g(x, y) + r1(x)``.

    ``K`` is a cone box of dimension ``c.dim``, and a set that is not a
    :class:`BoxSet`, a ``K`` that is not a cone or one of another dimension
    raises when the problem is built, as does a callable of ``g``, ``c`` or
    ``r1`` that fails the probe of the calling convention. ``y -> <lam,
    c(x, y)>`` must be convex for every ``lam`` in the polar cone (checked
    stochastically by the diagnostics, declared here).
    """

    g: FunctionOracle
    c: ConstraintOracle
    X: BoxSet
    Y: BoxSet
    K: BoxSet
    r1: ProxRegularizer = field(default_factory=zero_regularizer)

    def __post_init__(self):
        _check_boxes("CoupledProblem", X=self.X, Y=self.Y, K=self.K)
        polar = self.K.polar()  # which raises UnsupportedSet unless K is a cone
        if self.K.dim != self.c.dim:
            raise DimensionError(f"CoupledProblem.K has dimension {self.K.dim}, "
                                 f"but c maps to dimension {self.c.dim}")
        _probe({"x": self.X, "y": self.Y, "l": polar},
               ("CoupledProblem.g", self.g, _FUNCTION_CALLS),
               ("CoupledProblem.c", self.c, _CONSTRAINT_CALLS),
               ("CoupledProblem.r1", self.r1, _REGULARIZER_CALLS["x"]))

    @property
    def dim_x(self) -> int:
        return self.X.dim

    @property
    def dim_y(self) -> int:
        return self.Y.dim

    @property
    def dim_c(self) -> int:
        return self.c.dim


def fd_gradient(fn: Callable[[Vector, Vector], float], x, y) -> tuple[Vector, Vector]:
    """Central-difference gradient of a scalar function ``fn(x, y)`` in both
    blocks, such as an oracle's ``eval`` or the envelope's ``Xi``.

    The step is ``sqrt(eps) * (1 + ||block||)`` per block. Raises
    :class:`NonFiniteValue` if any probe value is non-finite.
    """
    x = as_vector(x, what="x")
    y = as_vector(y, what="y")
    hx = _SQRT_EPS * (1.0 + float(np.linalg.norm(x)))
    hy = _SQRT_EPS * (1.0 + float(np.linalg.norm(y)))

    def probe(xp, yp) -> float:
        return float(check_finite(fn(xp, yp), "function value"))

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


def fd_hvp(grad: Callable[[Vector, Vector], Vector], x, y, v) -> Vector:
    """Central-difference derivative of the gradient map ``grad(x, y)`` along
    the y-direction ``v``: ``hvp_yy`` for ``grad_y`` and ``hvp_xy`` for
    ``grad_x``. The step is ``cbrt(eps) * (1 + ||y||)`` along ``v / ||v||``;
    a zero ``v`` raises :class:`ZeroDirection`, and a non-finite probe
    :class:`NonFiniteValue`.
    """
    x = as_vector(x, what="x")
    y = as_vector(y, what="y")
    v = as_vector(v, y.shape[0], "direction")
    norm_v = float(np.linalg.norm(v))
    if norm_v == 0.0:
        raise ZeroDirection("finite-difference HVP needs a nonzero direction")
    unit = v / norm_v
    h = _CBRT_EPS * (1.0 + float(np.linalg.norm(y)))
    gp = np.asarray(grad(x, y + h * unit), dtype=np.float64)
    gm = np.asarray(grad(x, y - h * unit), dtype=np.float64)
    check_finite(gp, "gradient probe")
    check_finite(gm, "gradient probe")
    return (gp - gm) / (2.0 * h) * norm_v
