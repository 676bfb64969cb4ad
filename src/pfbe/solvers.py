"""First-order solvers for the penalized envelope objective.

All solvers minimize ``Gamma`` over ``X x Y`` through one loop,
:func:`_iterate_first_order`. A solver is a step rule, of one of two
kinds:

* a fixed-step rule (two-timescale, GDA) maps the points of the iterate
  to the :class:`Points` of the next iterate, from its own oracle calls
  or from the gradients of ``f`` that the loop hands over with a tested
  iterate;
* a rule that needs the envelope gradient to step (SPG) maps the
  gradient-bearing :class:`EnvelopeEval` at the iterate to the one at
  the next iterate.

Either may return a failure name instead, which ends the run. The loop
monitors the normalized prox-gradient residual (residual at the iterate
divided by the smooth-gradient norm at the start point) and returns a
:class:`SolveResult`. The residual of points is tested in blocks: the
loop collects up to ``TEST_POINTS`` iterates and evaluates them as one
stack, whose rows keep the bits of their 1-D evaluations; a run ends at
the first iterate of the block that passes ``gtol``, goes non-finite or
reaches the budget, exactly where testing every iterate in turn would
end it. An evaluation returned by a rule is tested at once.
``converged=True`` always implies ``stat <= gtol``. Line-search failure
is reported through ``failure="StepFailure"`` with ``converged=False``
rather than raised.

The loop also runs a stack of independent runs, one per row of a 2-D
iterate, with the bits each row would get alone; the GDA step selection
runs its pilots this way.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .core import (
    FunctionOracle,
    MinimaxProblem,
    NonFiniteValue,
    UnsupportedSet,
    Vector,
    row_dot,
)
from .envelope import (
    EnvelopeConfig,
    EnvelopeEval,
    evaluate,
    grad_norm,
    oracle_call,
    prox_grad_residual,
    prox_step,
    with_gradients,
)
from .sets import composite_prox


class Points(NamedTuple):
    """An iterate as a fixed-step rule sees it: one point, or a stack with
    one point per run left. ``grad_x_f`` and ``grad_y_f`` hold the
    gradients of ``f`` there when the loop has evaluated the iterate, and
    are None for the iterates a rule produces."""

    x: Vector
    y: Vector
    grad_x_f: Optional[Vector] = None
    grad_y_f: Optional[Vector] = None


Iterate = Union[EnvelopeEval, Points]
StepRule = Callable[[int, Iterate, Optional[np.ndarray]], Union[Iterate, str]]


# the standard nonmonotone SPG line search (Birgin, Martinez and Raydan,
# 2000): a trial must undercut the largest of the last LS_WINDOW objective
# values by LS_DECREASE * ||step||^2 / t; LS_MAX_HALVINGS bounds the halvings.
# The first step is STEP_INIT and every step stays within [STEP_MIN, STEP_MAX]
LS_WINDOW = 10
LS_DECREASE = 1e-4
LS_MAX_HALVINGS = 50
STEP_INIT = 1.0
STEP_MIN = 1e-10
STEP_MAX = 1e10

# points in one deferred residual test: a run from one point tests this many
# of its iterates as one stacked evaluation, a stack of r runs
# max(1, TEST_POINTS // r) iterates of each. On a 2-CPU Xeon with numpy 2.4
# and one BLAS thread, a block of one iterate costs about twice as much per
# iteration as evaluating every iterate in turn, and from 64 points on about
# a third as much at n = p = 20 and 50; 128 points add about 1 MB to the
# peak memory of the criterion-6 sweep and 256 points about 3 MB.
TEST_POINTS = 64


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, tolerance, and step sizes shared by the solvers.

    ``max_iter`` is an integer ``>= 0``. ``eta_x``/``eta_y`` are the
    constant steps of the gradient methods, real numbers, with defaults
    derived by each solver when None; each solver checks its steps once
    before its loop. ``record_trace`` keeps the per-iterate ``gamma`` and
    ``stat`` of a run from one point. The SPG step bounds are the module
    constants ``STEP_INIT``, ``STEP_MIN`` and ``STEP_MAX``.
    """

    max_iter: int = 10000
    gtol: float = 1e-7
    eta_x: Optional[float] = None
    eta_y: Optional[float] = None
    record_trace: bool = True

    def __post_init__(self):
        # a bool is an Integral, and a fractional budget would never be reached
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        for name in ("eta_x", "eta_y"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number or None, got {value!r}")
        if not (self.gtol > 0):
            raise ValueError("gtol must be positive")


@dataclass
class SolveResult:
    """Outcome of one solver run.

    ``stat`` is the final monitored residual, always divided by the
    smooth-part gradient norm at the start point (left as it is when that
    norm is below ``NORM_FLOOR``); ``feas`` is the distance of the iterate
    to ``X x Y`` (zero by construction for the projected methods;
    benchmark reporting replaces it with the base-problem constraint
    violation); ``trace`` holds per-iterate ``gamma`` and ``stat`` arrays
    when recorded. A run ends at the first iterate that passes ``gtol`` or
    reaches the budget, within the block of iterates the loop tested
    together, and every field but ``wall_time`` is what testing each
    iterate in turn gives; ``wall_time`` is the time of the whole call,
    including any steps a fixed-step rule took past that iterate.

    ``failure`` is None unless a step rule ended the run early, always
    with ``converged=False``:

    * ``"StepFailure"``: the SPG line search found no acceptable step;
    * ``"Stalled"``: an SPG prox step of the current size leaves the
      iterate bit-unchanged although ``stat`` is above ``gtol``.

    A stacked run holds one entry per row in ``x``, ``y``, ``fval``,
    ``iter``, ``stat``, ``feas``, ``converged`` and the tuple
    ``failure``, where ``"NonFiniteValue"`` marks a row whose evaluation
    went non-finite (its ``stat`` is ``inf``; a run from one point raises
    :class:`NonFiniteValue` instead); ``trace`` is empty.
    """

    x: Vector
    y: Vector
    fval: float
    iter: int
    stat: float
    feas: float
    wall_time: float
    converged: bool
    trace: dict
    failure: Optional[str] = None
    used_fd_hvp: bool = False


def _set_feas(problem: MinimaxProblem, x: Vector, y: Vector):
    dx = problem.X.project(x) - x
    dy = problem.Y.project(y) - y
    return np.sqrt(row_dot(dx, dx) + row_dot(dy, dy))


class _Runs:
    """The runs of a stack, or the run from one point, each with the
    outcome it has so far.

    ``left`` holds the start-stack indices of the runs still going, in the
    order of the rows of their iterates. Each test stores, for every run
    left, the iterate it stops at or else the last iterate it tested; a
    run whose iterate is not finite keeps the iterate before it.
    """

    def __init__(self, problem: MinimaxProblem, cfg: EnvelopeConfig, scfg: SolverConfig, ev):
        self.problem, self.cfg, self.scfg = problem, cfg, scfg
        self.one = ev.finite is None  # a run from one point
        self.ref = grad_norm(ev)
        self.x, self.y = np.atleast_2d(ev.x).copy(), np.atleast_2d(ev.y).copy()
        k = len(self.x)
        self.left = np.arange(k)
        self.fval = np.atleast_1d(ev.gamma).astype(np.float64)
        self.stat = np.full(k, np.inf)
        self.iter = np.zeros(k, dtype=int)
        self.converged = np.zeros(k, dtype=bool)
        self.failure: list = [None] * k
        self.used_fd = False
        self.trace_gamma: list = []
        self.trace_stat: list = []

    def block(self) -> int:
        """How many iterates of each run left one deferred test takes."""
        return max(1, TEST_POINTS // self.left.size)

    def test(self, ev: EnvelopeEval, k0: int, m: int = 1) -> Optional[Iterate]:
        """Test the iterates ``k0 .. k0 + m - 1`` held by ``ev``, iterate by
        iterate and one row per run left within each, and end each run at
        its first iterate that passes ``gtol``, goes non-finite or reaches
        the budget. Return the last iterate of the runs left, with its
        gradients of ``f``, or None when no run is left. A run from one
        point raises at a non-finite iterate."""
        if ev.finite is None:  # one iterate of a run from one point, evaluated alone
            stat = prox_grad_residual(self.problem, self.cfg, ev, self.ref)
            self.used_fd = self.used_fd or ev.used_fd_hvp
            if self.scfg.record_trace:
                self.trace_gamma.append(ev.gamma)
                self.trace_stat.append(stat)
            self.x[0], self.y[0], self.fval[0], self.stat[0], self.iter[0] = (
                ev.x, ev.y, ev.gamma, stat, k0)
            self.converged[0] = stat <= self.scfg.gtol
            if self.converged[0] or k0 == self.scfg.max_iter:
                self.left = self.left[:0]
                return None
            return ev
        w = self.left.size
        ref = self.ref if self.one else np.tile(self.ref[self.left], m)
        stat = prox_grad_residual(self.problem, self.cfg, ev, ref)
        passed = stat <= self.scfg.gtol
        ended = (passed | ~ev.finite).reshape(m, w)
        if k0 + m - 1 == self.scfg.max_iter:
            ended[-1] = True
        hit = ended.any(axis=0)
        first = np.where(hit, ended.argmax(axis=0), m - 1)
        if self.one and hit[0] and not ev.finite[first[0]]:
            # evaluated alone, the iterate raises naming its first non-finite quantity
            evaluate(self.problem, self.cfg, ev.x[first[0]], ev.y[first[0]], need_grad=True)
            raise NonFiniteValue(f"non-finite evaluation at iterate {k0 + first[0]}")
        if ev.used_fd_hvp:  # only the iterates up to each run's stop count
            moving = np.reshape(row_dot(ev.R, ev.R) != 0.0, (m, w))
            self.used_fd = self.used_fd or bool(moving[np.arange(m)[:, None] <= first].any())
        if self.one and self.scfg.record_trace:
            self.trace_gamma += ev.gamma[: first[0] + 1].tolist()
            self.trace_stat += stat[: first[0] + 1].tolist()
        at = first * w + np.arange(w)
        ok = ev.finite[at]
        runs, kept, iters = self.left, at, k0 + first
        if not ok.all():
            # a non-finite iterate leaves the one before: the block's previous
            # row, or at the block's first iterate the outcome already kept
            back = ~ok & (first > 0)
            now = ok | back
            runs, kept, iters = runs[now], (at - w * back)[now], (iters - back)[now]
            for r in self.left[~ok]:
                self.failure[r] = "NonFiniteValue"
        self.x[runs], self.y[runs], self.fval[runs] = ev.x[kept], ev.y[kept], ev.gamma[kept]
        self.iter[runs] = iters
        self.stat[self.left] = np.where(ok, stat[at], np.inf)
        self.converged[self.left] = passed[at] & ok
        at = at[~hit]
        self.left = self.left[~hit]
        if not self.left.size:
            return None
        if self.one:
            at = at[0]
        return Points(ev.x[at], ev.y[at], ev.grad_x_f[at], ev.grad_y_f[at])

    def fail(self, failure: str) -> None:
        """End every run left with ``failure``, at its last tested iterate."""
        for r in self.left:
            self.failure[r] = failure
        self.left = self.left[:0]

    def result(self, wall_time: float) -> SolveResult:
        if not self.one:
            return SolveResult(
                x=self.x, y=self.y, fval=self.fval, iter=self.iter, stat=self.stat,
                feas=_set_feas(self.problem, self.x, self.y), wall_time=wall_time,
                converged=self.converged, trace={}, failure=tuple(self.failure),
                used_fd_hvp=self.used_fd,
            )
        trace = {}
        if self.scfg.record_trace:
            trace = {
                "gamma": np.asarray(self.trace_gamma, dtype=np.float64),
                "stat": np.asarray(self.trace_stat, dtype=np.float64),
            }
        x, y = self.x[0], self.y[0]
        return SolveResult(
            x=x, y=y, fval=float(self.fval[0]), iter=int(self.iter[0]),
            stat=float(self.stat[0]), feas=float(_set_feas(self.problem, x, y)),
            wall_time=wall_time, converged=bool(self.converged[0]), trace=trace,
            failure=self.failure[0], used_fd_hvp=self.used_fd,
        )


def _iterate_first_order(
    problem: MinimaxProblem,
    cfg: EnvelopeConfig,
    scfg: SolverConfig,
    x0,
    y0,
    step: StepRule,
) -> SolveResult:
    """The solver loop: apply ``step`` until the residual test, the
    budget, or a failure name returned by ``step`` ends the run.

    ``x0`` and ``y0`` may be stacks of start points, one run per row. A
    row leaves the stack when its residual passes the test, when the
    budget ends, or when its evaluation goes non-finite (it then keeps its
    last finite iterate and ``stat = inf``, with failure
    ``"NonFiniteValue"``); the loop ends when no row is left. ``step``
    gets the start-stack indices of the rows of its iterate (None for one
    point) and returns, for a stack, one row per run left.

    :class:`Points` returned by ``step`` are collected into a block of up
    to :meth:`_Runs.block` iterates and tested as one stacked evaluation;
    the runs a block ends keep the bits, iterate counts and trace that
    testing each iterate in turn gives, while ``step`` may have advanced
    the block past their stop. The first step of a block gets the last
    tested iterate with its gradients of ``f``. When ``step`` raises
    :class:`NonFiniteValue`, the iterates collected so far are tested
    first, and the error propagates only if a run is left. An oracle that
    raises anything else (rather than returning a nan or inf) at a point a
    block reaches past a run's stop ends the call with that error. An
    ``alpha`` below the threshold of ``problem.mu`` raises ``ValueError``
    before the start is evaluated.
    """
    started = time.perf_counter()
    cfg.check_threshold(problem.mu)
    ev = evaluate(problem, cfg, x0, y0, need_grad=True)
    runs = _Runs(problem, cfg, scfg, ev)
    it = runs.test(ev, 0)
    k = 0  # the index of the last iterate tested
    while it is not None:
        block, error, nxt = [], None, None
        size = min(runs.block(), scfg.max_iter - k)
        try:
            while len(block) < size:
                nxt = step(k + len(block), it, None if runs.one else runs.left)
                if not isinstance(nxt, Points):
                    break
                block.append(nxt)
                it = nxt
        except NonFiniteValue as exc:
            error = exc
        if block:  # one stack of the block's points, iterate by iterate
            xs = np.array([p.x for p in block]).reshape(-1, problem.dim_x)
            ys = np.array([p.y for p in block]).reshape(-1, problem.dim_y)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                ev = evaluate(problem, cfg, xs, ys, need_grad=True)
                it = runs.test(ev, k + 1, len(block))
            k += len(block)
        elif isinstance(nxt, EnvelopeEval):
            k += 1
            it = runs.test(nxt, k)
        elif isinstance(nxt, str):
            runs.fail(nxt)
            it = None
        if error is not None and it is not None:
            raise error
    return runs.result(time.perf_counter() - started)


def _grad_x_f(f: FunctionOracle, it: Iterate):
    """``grad_x f`` at the iterate, from its evaluation when it has one."""
    return oracle_call(f, f.grad_x, it.x, it.y) if it.grad_x_f is None else it.grad_x_f


def _grad_y_f(f: FunctionOracle, it: Iterate):
    """``grad_y f`` at the iterate, from its evaluation when it has one."""
    return oracle_call(f, f.grad_y, it.x, it.y) if it.grad_y_f is None else it.grad_y_f


def _check_steps(**steps) -> None:
    """Raise ``ValueError`` naming a constant step that is not finite and ``>= 0``."""
    for name, value in steps.items():
        if not (value >= 0 and math.isfinite(value)):
            raise ValueError(f"{name}={value} is not finite and >= 0")


def solve_spg(
    problem: MinimaxProblem,
    cfg: EnvelopeConfig,
    scfg: SolverConfig,
    x0,
    y0,
) -> SolveResult:
    """Spectral projected/proximal gradient on the penalized objective.

    Steps alternate the two Barzilai-Borwein formulas from one iteration
    to the next, from ``STEP_INIT`` and safeguarded to ``[STEP_MIN,
    STEP_MAX]``, with a nonmonotone sufficient-decrease line search over
    the last ``LS_WINDOW`` objective values (factor ``LS_DECREASE``). A
    trial point whose evaluation raises :class:`NonFiniteValue` is
    rejected like one without enough decrease. Trials are evaluated
    without gradients; only the accepted one is completed with them. The
    run stops with ``failure="StepFailure"`` after ``LS_MAX_HALVINGS``
    rejected halvings or once the step drops below ``STEP_MIN``, and with
    ``failure="Stalled"`` when a prox step of the current size leaves the
    iterate bit-unchanged although the unit-step residual is above
    ``gtol``.
    """
    recent = deque(maxlen=LS_WINDOW)  # objective values of the last iterates
    t = STEP_INIT

    def step(k: int, ev: EnvelopeEval, rows) -> Union[EnvelopeEval, str]:
        nonlocal t
        x, y = ev.x, ev.y
        recent.append(ev.gamma)
        gamma_ref = max(recent)
        # np.clip's bits: with 0 < STEP_MIN <= STEP_MAX no signed zeros tie
        tk = float(min(max(t, STEP_MIN), STEP_MAX))
        for _ in range(LS_MAX_HALVINGS + 1):
            xt = composite_prox(problem.r1, problem.X, x - tk * ev.grad_x, tk)
            yt = composite_prox(problem.r2, problem.Y, y - tk * ev.grad_y, tk * (cfg.alpha - 1.0))
            # np.sum's reduction, called directly: the same bits
            dz2 = float(np.add.reduce((xt - x) ** 2)) + float(np.add.reduce((yt - y) ** 2))
            if dz2 == 0.0:
                return "Stalled"  # prox fixed point at this step size
            try:
                trial = evaluate(problem, cfg, xt, yt, need_grad=False)
                if trial.gamma <= gamma_ref - LS_DECREASE * dz2 / tk:
                    new = with_gradients(problem, cfg, trial)
                    break
            except NonFiniteValue:
                pass  # rejected: halve the step as for insufficient decrease
            tk *= 0.5
            if tk < STEP_MIN:
                return "StepFailure"
        else:
            return "StepFailure"

        s = np.concatenate([xt - x, yt - y])
        d = np.concatenate([new.grad_x - ev.grad_x, new.grad_y - ev.grad_y])
        sd = float(s @ d)
        if sd > 1e-30:
            use_first = k % 2 == 0
            dd = float(d @ d)
            bb1 = float(s @ s) / sd
            bb2 = sd / dd if dd > 0 else bb1
            t = float(min(max(bb1 if use_first else bb2, STEP_MIN), STEP_MAX))
        else:
            t = min(STEP_MAX, tk * 2.0)  # nonconvex pair: grow cautiously
        return new

    return _iterate_first_order(problem, cfg, scfg, x0, y0, step)


def solve_subgda(
    problem: MinimaxProblem,
    cfg: EnvelopeConfig,
    scfg: SolverConfig,
    x0,
    y0,
) -> SolveResult:
    """Two-timescale scheme: proximal descent in x, envelope-residual ascent in y.

        x+ = proj_X(prox_{eta_x r1}(x - eta_x grad_x f(x, y)))
        y+ = y + eta_y R(x+, y)

    Both steps are constants, resolved once before the loop. Theory-mode
    defaults: ``eta_y = eta/2`` and ``eta_x = eta_y / theta``, where the
    timescale ratio is always the derived ``theta = alpha eta L^2 / mu``
    (a caller who wants another ratio sets ``eta_x``). ``eta_y`` must
    satisfy ``0 <= eta_y <= eta``, the envelope step, so y-iterates
    remain in ``Y`` by convex combination. One that does not (nan
    included), or an ``eta_x`` that is not finite and ``>= 0``, raises
    ``ValueError`` before the start is evaluated. Nonconvex ``X`` is
    rejected (the projected step needs convexity).
    """
    if not problem.X.convex:
        raise UnsupportedSet("the two-timescale scheme requires a convex X")
    L, mu = problem.lipschitz, problem.mu
    theta = cfg.alpha * cfg.eta * L * L / mu
    ey = cfg.eta / 2.0 if scfg.eta_y is None else float(scfg.eta_y)
    ex = ey / theta if scfg.eta_x is None else float(scfg.eta_x)
    if not 0.0 <= ey <= cfg.eta * (1.0 + 1e-12):
        raise ValueError(f"eta_y={ey} is outside [0, eta] for the envelope step eta={cfg.eta}")
    _check_steps(eta_x=ex)

    def step(k: int, it: Iterate, rows) -> Points:
        x_new = composite_prox(problem.r1, problem.X, it.x - ex * _grad_x_f(problem.f, it), ex)
        _, R = prox_step(problem, cfg, x_new, it.y)
        return Points(x_new, it.y + ey * R)

    return _iterate_first_order(problem, cfg, scfg, x0, y0, step)


def _gda_step(problem: MinimaxProblem, eta_x, eta_y) -> StepRule:
    """Simultaneous prox-gradient descent in x and ascent in y on ``f``
    with constant steps: floats, or for a stack columns with one step per
    start row, of which each step takes the rows of the runs left."""
    f = problem.f
    per_row = isinstance(eta_x, np.ndarray)

    def step(k: int, it: Iterate, rows) -> Points:
        tx, ty = (eta_x[rows], eta_y[rows]) if per_row else (eta_x, eta_y)
        x_new = composite_prox(problem.r1, problem.X, it.x - tx * _grad_x_f(f, it), tx)
        y_new = composite_prox(problem.r2, problem.Y, it.y + ty * _grad_y_f(f, it), ty)
        return Points(x_new, y_new)

    return step


def solve_gda_baseline(
    problem: MinimaxProblem,
    cfg: EnvelopeConfig,
    scfg: SolverConfig,
    x0,
    y0,
) -> SolveResult:
    """Simultaneous projected/proximal gradient descent-ascent on ``f``.

    Constant steps ``eta_x``/``eta_y`` default to 0.1; one that is not
    finite and ``>= 0`` raises ``ValueError`` before the start is
    evaluated. Convergence is still monitored through the penalized
    residual so iteration counts are comparable across solvers.
    """
    ex = 0.1 if scfg.eta_x is None else float(scfg.eta_x)
    ey = 0.1 if scfg.eta_y is None else float(scfg.eta_y)
    _check_steps(eta_x=ex, eta_y=ey)
    return _iterate_first_order(problem, cfg, scfg, x0, y0, _gda_step(problem, ex, ey))


DEFAULT_GDA_GRID = tuple(
    sorted(a1 * 10.0 ** (-a2) for a1 in (1, 3, 5, 7, 9) for a2 in (1, 2, 3, 4))
)


def select_gda_step(
    problem: MinimaxProblem,
    cfg: EnvelopeConfig,
    scfg: SolverConfig,
    x0,
    y0,
    grid=None,
    pilot_iters: Optional[int] = None,
) -> tuple[float, dict]:
    """Pick the constant GDA step with the smallest final residual.

    Runs one baseline pilot per grid value (both steps tied to the same
    value), each for ``pilot_iters`` iterations (full budget when None),
    and returns the step with the smallest final ``stat``; ties break
    toward the smaller step. Also returns the per-step residual map, in
    which a pilot whose evaluation went non-finite scores ``inf``. An
    empty grid, an entry that is not finite and positive, or a
    ``pilot_iters`` that is not an integer ``>= 0`` raises ``ValueError``.

    The pilots run together as the rows of one stacked iterate, each with
    its own step, and each row leaves when its pilot ends; every row
    keeps the bits of the pilot run alone by :func:`solve_gda_baseline`.
    """
    steps = DEFAULT_GDA_GRID if grid is None else tuple(sorted(float(s) for s in grid))
    if not steps:
        raise ValueError("empty step grid")
    for s in steps:
        if not (s > 0 and math.isfinite(s)):
            raise ValueError(f"GDA step grid entry {s} is not finite and positive")
    budget = scfg.max_iter if pilot_iters is None else pilot_iters
    pilot_cfg = replace(scfg, max_iter=budget, record_trace=False)
    x0, y0 = problem.check_point(x0, y0)
    column = np.array(steps)[:, None]
    step = _gda_step(problem, column, column)
    with np.errstate(over="ignore", invalid="ignore"):  # diverging rows score inf
        res = _iterate_first_order(
            problem, cfg, pilot_cfg,
            np.tile(x0, (len(steps), 1)), np.tile(y0, (len(steps), 1)), step,
        )
    results = {s: float(final) for s, final in zip(steps, res.stat)}
    return min(results, key=lambda s: (results[s], s)), results


def gamma_descent_check(gamma_trace) -> bool:
    """True when the objective trace is nonincreasing up to a slack of
    ``1e-8 * (1 + |gamma_0|)``, absorbing rounding in long traces.
    """
    g = np.asarray(gamma_trace, dtype=np.float64)
    if g.size <= 1:
        return True
    slack = 1e-8 * (1.0 + abs(float(g[0])))
    return bool(np.all(np.diff(g) <= slack))
