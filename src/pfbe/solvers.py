"""First-order solvers for the penalized envelope objective.

All solvers minimize ``Gamma`` over ``X x Y`` through one loop,
:func:`_iterate_first_order`. A solver is a step rule: it maps the
gradient-bearing :class:`EnvelopeEval` at the iterate to the one at the
next iterate, or to a failure name that ends the run. The loop monitors
the normalized prox-gradient residual (residual at the iterate divided
by the smooth-gradient norm at the start point) and returns a
:class:`SolveResult`. ``converged=True`` always implies
``stat <= gtol``. Line-search failure is reported through
``failure="StepFailure"`` with ``converged=False`` rather than raised.

The loop also runs a stack of independent runs, one per row of a 2-D
iterate, with the bits each row would get alone; the GDA step selection
runs its pilots this way.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .core import (
    MinimaxProblem,
    NonFiniteValue,
    PreconditionViolation,
    UnsupportedSet,
    Vector,
    row_dot,
)
from .envelope import (
    EnvelopeConfig,
    EnvelopeEval,
    evaluate,
    grad_norm,
    prox_grad_residual,
    prox_step,
    with_gradients,
)
from .sets import composite_prox

Schedule = Union[float, Callable[[int], float]]
StepRule = Callable[[int, EnvelopeEval, Optional[np.ndarray]], Union[EnvelopeEval, str]]


# the standard nonmonotone SPG line search (Birgin, Martinez and Raydan,
# 2000): a trial must undercut the largest of the last LS_WINDOW objective
# values by LS_DECREASE * ||step||^2 / t; LS_MAX_HALVINGS bounds the halvings
LS_WINDOW = 10
LS_DECREASE = 1e-4
LS_MAX_HALVINGS = 50


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, tolerance, and step sizes shared by the solvers.

    ``step_init`` is the first SPG step, and every SPG step stays within
    ``[step_min, step_max]``; ``eta_x``/``eta_y`` are step schedules
    (constants or callables of the iteration index) for the gradient
    methods, with theory-mode defaults derived from the envelope config
    when omitted. ``record_trace`` keeps the per-iterate ``gamma`` and
    ``stat`` of a run from one point.
    """

    max_iter: int = 10000
    gtol: float = 1e-7
    step_init: float = 1.0
    step_min: float = 1e-10
    step_max: float = 1e10
    eta_x: Optional[Schedule] = None
    eta_y: Optional[Schedule] = None
    record_trace: bool = True

    def __post_init__(self):
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if not (self.gtol > 0):
            raise ValueError("gtol must be positive")
        if not (0 < self.step_min <= self.step_max):
            raise ValueError("need 0 < step_min <= step_max")


@dataclass
class SolveResult:
    """Outcome of one solver run.

    ``stat`` is the final monitored residual, always divided by the
    smooth-part gradient norm at the start point (left as it is when that
    norm is below ``NORM_FLOOR``); ``feas`` is the distance of the iterate
    to ``X x Y`` (zero by construction for the projected methods;
    benchmark reporting replaces it with the base-problem constraint
    violation); ``trace`` holds per-iterate ``gamma`` and ``stat`` arrays
    when recorded.

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


def _resolve_schedule(value: Optional[Schedule], default: Schedule) -> Callable[[int], float]:
    chosen = default if value is None else value
    if callable(chosen):
        return chosen
    const = float(chosen)
    return lambda k: const


def _set_feas(problem: MinimaxProblem, x: Vector, y: Vector):
    dx = problem.X.project(x) - x
    dy = problem.Y.project(y) - y
    return np.sqrt(row_dot(dx, dx) + row_dot(dy, dy))


class _Rows:
    """Outcome of each row of a stacked run, filled in as the rows leave.

    ``left`` holds the start-stack indices of the rows still iterating, in
    the order of the iterate's rows.
    """

    def __init__(self, ev: EnvelopeEval):
        k = len(ev.x)
        self.left = np.arange(k)
        self.x, self.y = ev.x.copy(), ev.y.copy()
        self.fval = np.array(ev.gamma, dtype=np.float64)
        self.stat = np.full(k, np.inf)
        self.iter = np.zeros(k, dtype=int)
        self.converged = np.zeros(k, dtype=bool)
        self.failure: list = [None] * k

    def leave(self, ev, going, iters, stat=np.inf, converged=False, failure=None, then=None):
        """Record the rows of ``ev`` that ``going`` selects as ended after
        ``iters`` steps, and return ``then`` (default ``ev``) restricted to
        the other rows, or None when no row is left."""
        then = ev if then is None else then
        if not going.any():
            return then
        rows = self.left[going]
        self.x[rows], self.y[rows], self.fval[rows] = ev.x[going], ev.y[going], ev.gamma[going]
        self.stat[rows] = np.broadcast_to(stat, going.shape)[going]
        self.converged[rows] = np.broadcast_to(converged, going.shape)[going]
        self.iter[rows] = iters
        for r in rows:
            self.failure[r] = failure
        self.left = self.left[~going]
        return then.rows(~going) if self.left.size else None


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
    budget ends, or when its next evaluation goes non-finite (it then
    keeps its last iterate and ``stat = inf``, with failure
    ``"NonFiniteValue"``); the loop ends when no row is left. ``step``
    gets the start-stack indices of the rows of its evaluation (None for
    one point) and must return an evaluation for a stack.
    """
    started = time.perf_counter()
    ev = evaluate(problem, cfg, x0, y0, need_grad=True)
    used_fd = ev.used_fd_hvp
    ref = grad_norm(ev)
    trace_gamma = [ev.gamma]
    rows = None
    if ev.finite is not None:
        rows = _Rows(ev)
        ref = np.broadcast_to(ref, rows.left.shape)
        ev = rows.leave(ev, ~ev.finite, 0, failure="NonFiniteValue")
    trace_stat: list[float] = []
    iters = 0
    converged = False
    failure: Optional[str] = None
    stat = np.inf

    # with every start of a stack non-finite, no row is left to iterate
    for k in range(scfg.max_iter + 1 if ev is not None else 0):
        stat = prox_grad_residual(problem, cfg, ev, ref if rows is None else ref[rows.left])
        trace_stat.append(stat)
        if rows is not None:
            passed = stat <= scfg.gtol
            ev = rows.leave(ev, passed | (k == scfg.max_iter), k, stat, passed)
            if ev is None:
                break
        elif stat <= scfg.gtol:
            converged = True
            break
        if k == scfg.max_iter:
            break
        nxt = step(k, ev, None if rows is None else rows.left)
        if isinstance(nxt, str):
            failure = nxt
            break
        if rows is not None:
            nxt = rows.leave(ev, ~nxt.finite, k, failure="NonFiniteValue", then=nxt)
            if nxt is None:
                break
        ev = nxt
        used_fd = used_fd or ev.used_fd_hvp
        iters += 1
        trace_gamma.append(ev.gamma)

    wall_time = time.perf_counter() - started
    if rows is not None:
        return SolveResult(
            x=rows.x,
            y=rows.y,
            fval=rows.fval,
            iter=rows.iter,
            stat=rows.stat,
            feas=_set_feas(problem, rows.x, rows.y),
            wall_time=wall_time,
            converged=rows.converged,
            trace={},
            failure=tuple(rows.failure),
            used_fd_hvp=used_fd,
        )
    trace = {}
    if scfg.record_trace:
        trace = {
            "gamma": np.asarray(trace_gamma, dtype=np.float64),
            "stat": np.asarray(trace_stat, dtype=np.float64),
        }
    return SolveResult(
        x=ev.x,
        y=ev.y,
        fval=float(ev.gamma),
        iter=iters,
        stat=float(stat),
        feas=float(_set_feas(problem, ev.x, ev.y)),
        wall_time=wall_time,
        converged=converged,
        trace=trace,
        failure=failure,
        used_fd_hvp=used_fd,
    )


def solve_spg(
    problem: MinimaxProblem,
    cfg: EnvelopeConfig,
    scfg: SolverConfig,
    x0,
    y0,
) -> SolveResult:
    """Spectral projected/proximal gradient on the penalized objective.

    Steps alternate the two Barzilai-Borwein formulas from one iteration
    to the next, safeguarded to ``[step_min, step_max]``, with a
    nonmonotone sufficient-decrease line search over the last
    ``LS_WINDOW`` objective values (decrease factor ``LS_DECREASE``). A
    trial point whose evaluation raises :class:`NonFiniteValue` is
    rejected like one without enough decrease. Trials are evaluated
    without gradients; only the accepted one is completed with them. The
    run stops with ``failure="StepFailure"`` after ``LS_MAX_HALVINGS``
    rejected halvings or once the step drops below ``step_min``, and with
    ``failure="Stalled"`` when a prox step of the current size leaves the
    iterate bit-unchanged although the unit-step residual is above
    ``gtol``.
    """
    recent = deque(maxlen=LS_WINDOW)  # objective values of the last iterates
    t = float(scfg.step_init)

    def step(k: int, ev: EnvelopeEval, rows) -> Union[EnvelopeEval, str]:
        nonlocal t
        x, y = ev.x, ev.y
        recent.append(ev.gamma)
        gamma_ref = max(recent)
        # np.clip's bits: with 0 < step_min <= step_max no signed zeros tie
        tk = float(min(max(t, scfg.step_min), scfg.step_max))
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
            if tk < scfg.step_min:
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
            t = float(min(max(bb1 if use_first else bb2, scfg.step_min), scfg.step_max))
        else:
            t = min(scfg.step_max, tk * 2.0)  # nonconvex pair: grow cautiously
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

    Theory-mode defaults: ``eta_y = eta/2`` and
    ``eta_x = eta_y / theta``, where the timescale ratio is always the
    derived ``theta = alpha eta L^2 / mu`` (a caller who wants another
    ratio sets ``eta_x``); ``eta_y`` must stay within the envelope step
    ``eta`` so y-iterates remain in ``Y`` by convex combination.
    Nonconvex ``X`` is rejected (the projected step needs convexity).
    """
    if not problem.X.convex:
        raise UnsupportedSet("the two-timescale scheme requires a convex X")
    L, mu = problem.lipschitz, problem.mu
    theta = cfg.alpha * cfg.eta * L * L / mu
    ey = _resolve_schedule(scfg.eta_y, cfg.eta / 2.0)
    ex = _resolve_schedule(scfg.eta_x, lambda k: ey(k) / theta)

    def step(k: int, ev: EnvelopeEval, rows) -> EnvelopeEval:
        ey_k = float(ey(k))
        if ey_k > cfg.eta * (1.0 + 1e-12):
            raise PreconditionViolation(
                f"eta_y={ey_k} exceeds the envelope step eta={cfg.eta}"
            )
        ex_k = float(ex(k))
        x_new = composite_prox(problem.r1, problem.X, ev.x - ex_k * ev.grad_x_f, ex_k)
        _, R = prox_step(problem, cfg, x_new, ev.y)
        return evaluate(problem, cfg, x_new, ev.y + ey_k * R, need_grad=True)

    return _iterate_first_order(problem, cfg, scfg, x0, y0, step)


def _gda_step(problem: MinimaxProblem, cfg: EnvelopeConfig, steps) -> StepRule:
    """Simultaneous prox-gradient descent in x and ascent in y on ``f``,
    with ``steps(k, rows) -> (eta_x, eta_y)``: floats, or for a stack
    columns with one step per row."""

    def step(k: int, ev: EnvelopeEval, rows) -> EnvelopeEval:
        tx, ty = steps(k, rows)
        x_new = composite_prox(problem.r1, problem.X, ev.x - tx * ev.grad_x_f, tx)
        y_new = composite_prox(problem.r2, problem.Y, ev.y + ty * ev.grad_y_f, ty)
        return evaluate(problem, cfg, x_new, y_new, need_grad=True)

    return step


def solve_gda_baseline(
    problem: MinimaxProblem,
    cfg: EnvelopeConfig,
    scfg: SolverConfig,
    x0,
    y0,
) -> SolveResult:
    """Simultaneous projected/proximal gradient descent-ascent on ``f``.

    Constant (or scheduled) steps ``eta_x``/``eta_y`` default to 0.1.
    Convergence is still monitored through the penalized-objective
    residual so iteration counts are comparable across solvers.
    """
    ex = _resolve_schedule(scfg.eta_x, 0.1)
    ey = _resolve_schedule(scfg.eta_y, 0.1)
    step = _gda_step(problem, cfg, lambda k, rows: (float(ex(k)), float(ey(k))))
    return _iterate_first_order(problem, cfg, scfg, x0, y0, step)


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
    which a pilot whose evaluation went non-finite scores ``inf``.

    The pilots run together as the rows of one stacked iterate, each with
    its own step, and each row leaves when its pilot ends; every row
    keeps the bits of the pilot run alone by :func:`solve_gda_baseline`.
    """
    steps = DEFAULT_GDA_GRID if grid is None else tuple(sorted(float(s) for s in grid))
    if not steps:
        raise ValueError("empty step grid")
    budget = scfg.max_iter if pilot_iters is None else int(pilot_iters)
    pilot_cfg = replace(scfg, max_iter=budget, record_trace=False)
    x0, y0 = problem.check_point(x0, y0)
    column = np.array(steps)[:, None]
    step = _gda_step(problem, cfg, lambda k, rows: (column[rows], column[rows]))
    with np.errstate(over="ignore", invalid="ignore"):  # diverging rows score inf
        res = _iterate_first_order(
            problem, cfg, pilot_cfg,
            np.tile(x0, (len(steps), 1)), np.tile(y0, (len(steps), 1)), step,
        )
    results = {s: float(final) for s, final in zip(steps, res.stat)}
    return min(results, key=lambda s: (results[s], s)), results


def gamma_descent_check(gamma_trace, slack: Optional[float] = None) -> bool:
    """True when the objective trace is nonincreasing up to a small slack.

    Default slack is ``1e-8 * (1 + |gamma_0|)``, absorbing rounding in
    long traces.
    """
    g = np.asarray(gamma_trace, dtype=np.float64)
    if g.size <= 1:
        return True
    if slack is None:
        slack = 1e-8 * (1.0 + abs(float(g[0])))
    return bool(np.all(np.diff(g) <= slack))
