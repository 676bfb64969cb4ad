"""The named cones, and the fused prox combination rule.

Every set is a :class:`~pfbe.core.BoxSet`, imported here so that
``pfbe.sets.BoxSet`` resolves. The cones below are boxes built by checked
constructors: the whole space ``(-inf, inf)^d``, the origin ``[0, 0]^d``
and an orthant ``[0, inf)^d`` or ``(-inf, 0]^d``. Projections are the
componentwise clip, and a polar cone is read from the bounds, so Moreau
identities (``z = proj_K(z) + proj_polar(z)`` with orthogonal parts) hold
to the bit. Projections and :func:`composite_prox` take a point or a stack
of points (one per row) and act along the last axis, each row with the
bits of the 1-D call.
"""

from __future__ import annotations

import numpy as np

from .core import (
    BoxSet,
    IncompleteOracle,
    ProxRegularizer,
    Vector,
    as_points,
    check_int,
)


class WholeSpace(BoxSet):
    """All of R^d: the box ``(-inf, inf)^d``."""

    def __init__(self, dim: int):
        dim = check_int("dim", dim, 0)
        super().__init__(np.full(dim, -np.inf), np.full(dim, np.inf))


class ZeroCone(BoxSet):
    """The origin ``{0}``: the box ``[0, 0]^d``."""

    def __init__(self, dim: int):
        dim = check_int("dim", dim, 0)
        super().__init__(np.zeros(dim), np.zeros(dim))


class OrthantCone(BoxSet):
    """Nonnegative (``sign=+1``) or nonpositive (``sign=-1``) orthant: the
    box with bounds ``[0, inf)`` or ``(-inf, 0]``."""

    def __init__(self, dim: int, sign: int = 1):
        sign = check_int("sign", sign, -1)  # not a bool or a float
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        dim = check_int("dim", dim, 0)
        bounds = (0.0, np.inf) if sign > 0 else (-np.inf, 0.0)
        super().__init__(*(np.full(dim, bound) for bound in bounds))


def composite_prox(reg: ProxRegularizer, set_: BoxSet, z, step: float) -> Vector:
    """Prox of ``step * reg + indicator(set_)`` at ``z``.

    Supported exactly when the regularizer is zero, the set is the whole
    space, or the regularizer carries a fused prox for this set
    (``reg.attached_set is set_``). Other combinations raise
    :class:`IncompleteOracle` rather than silently composing projections.
    A zero ``step`` drops the regularizer and projects.

    ``z`` may be a stack of points; ``step`` is then a float or a column
    with one step per row, which ``reg.prox`` takes as it is, and a row
    whose step is zero is projected.
    """
    # a nan or negative step fails; np.minimum keeps a nan, and a step >= 0 gives 0.0
    if (not step >= 0.0) if isinstance(step, float) else np.count_nonzero(np.minimum(step, 0.0)):
        raise ValueError("prox step must be nonnegative")
    if reg.is_zero or np.all(step == 0.0):
        return set_.project(z)  # which checks z
    if not (reg.attached_set is set_ or set_.whole):
        raise IncompleteOracle(
            "no fused prox available for this regularizer/set pair; supply a "
            "ProxRegularizer with attached_set or use a whole-space set"
        )
    out = np.asarray(reg.prox(z := as_points(z, set_.dim, "point"), step), dtype=np.float64)
    return out if np.ndim(step) == 0 else np.where(step == 0.0, set_.project(z), out)
