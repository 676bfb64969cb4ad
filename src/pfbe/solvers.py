"""First-order solvers for the penalized envelope objective.

All solvers minimize ``Gamma`` over ``X x Y`` through one loop,
:func:`_iterate_first_order`. A solver is a step rule, of one of two
kinds:

* a fixed-step rule (two-timescale, GDA) maps the points of the iterate
  to the :class:`Points` of the next iterate, from its own oracle calls
  at those points;
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

import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .core import (
    DimensionError,
    MinimaxProblem,
    NonFiniteValue,
    Vector,
    check_int,
    check_real,
    quiet_floats,
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


class Points(NamedTuple):
    """An iterate as a fixed-step rule sees it: one point, or a stack with
    one point per run left."""

    x: Vector
    y: Vector


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
# max(1, TEST_POINTS // r) iterates of each. The stacked evaluation costs
# about 70 us before its first row at n = p = 20, which the 20 GDA pilots
# pay once per 6 steps at 128 points and per 3 at 64. On a 2-CPU Xeon with
# numpy 2.4 and one BLAS thread, 128 points took 4% less time than 64 over
# the 27 jobs of the criterion-6 sweep and 5% less over its n = p = 50
# subgda and gda jobs (one process, 4 alternating rounds each), and added
# 1.0 MB to its peak memory (35.9 -> 36.9 MB); 256 points add about 3 MB.
TEST_POINTS = 128


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, tolerance, and step sizes shared by the solvers.

    ``max_iter`` is an integer ``>= 0`` and ``gtol`` positive and finite.
    ``eta_x``/``eta_y`` are the constant steps of the gradient methods,
    finite real numbers ``>= 0`` (a bool is not one), with defaults derived
    by each solver when None. Each is checked when the config is built
    (by :func:`~pfbe.core.check_int` and :func:`~pfbe.core.check_real`),
    and a violation raises ``ValueError`` naming it.
    ``record_trace`` keeps the per-iterate ``gamma`` and ``stat`` of a run
    from one point. The SPG step bounds are the module constants
    ``STEP_INIT``, ``STEP_MIN`` and ``STEP_MAX``.
    """

    max_iter: int = 10000
    gtol: float = 1e-7
    eta_x: Optional[float] = None
    eta_y: Optional[float] = None
    record_trace: bool = True

    def __post_init__(self):
        check_int("max_iter", self.max_iter, 0)  # a fractional budget is never reached
        check_real("gtol", self.gtol, 0, strict=True)
        for name in ("eta_x", "eta_y"):
            if getattr(self, name) is not None:
                check_real(name, getattr(self, name), 0)


@dataclass
class SolveResult:
    """Outcome of one solver run.

    ``stat`` is the final monitored residual, always divided by the
    smooth-part gradient norm at the start point (left as it is when that
    norm is below ``NORM_FLOOR``); ``trace`` holds per-iterate ``gamma``
    and ``stat`` arrays when recorded. A run ends at the first iterate
    that passes ``gtol``, goes non-finite or reaches the budget, within
    the block of iterates the loop tested together, and every field but
    ``wall_time`` is what testing each iterate in turn gives;
    ``wall_time`` is the time of the whole call, including any steps a
    fixed-step rule took past that iterate.

    ``failure`` is None unless the run ended early, always with
    ``converged=False``:

    * ``"NonFiniteValue"``: the evaluation of an iterate went non-finite;
      the run keeps the iterate before it, with its index as ``iter``, and
      ``stat = inf``, and its trace ends there;
    * ``"StepFailure"``: the SPG line search found no acceptable step;
    * ``"Stalled"``: an SPG prox step of the current size leaves the
      iterate bit-unchanged although ``stat`` is above ``gtol``.

    A stacked run holds one entry per row in ``x``, ``y``, ``fval``,
    ``iter``, ``stat``, ``converged`` and the tuple ``failure``; ``trace``
    is empty. Under any warnings filter, a non-finite start point raises
    :class:`NonFiniteValue` at one point, and ends its row at ``iter`` 0
    with ``"NonFiniteValue"`` in a stack.
    """

    x: Vector
    y: Vector
    fval: float
    iter: int
    stat: float
    wall_time: float
    converged: bool
    trace: dict
    failure: Optional[str] = None


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
        self.trace_gamma: list = []
        self.trace_stat: list = []

    def test(self, ev: EnvelopeEval, k0: int, m: int = 1) -> Optional[Iterate]:
        """Test the iterates ``k0 .. k0 + m - 1`` held by ``ev``, iterate by
        iterate and one row per run left within each, and end each run at
        its first iterate that passes ``gtol``, goes non-finite or reaches
        the budget. Return the points of the last iterate of the runs left,
        or None when no run is left."""
        if ev.finite is None:  # one iterate of a run from one point, evaluated alone
            stat = prox_grad_residual(self.problem, self.cfg, ev, self.ref)
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
        at = first * w + np.arange(w)
        ok = ev.finite[at]
        if self.one and self.scfg.record_trace:  # up to the iterate the run keeps
            self.trace_gamma += ev.gamma[: first[0] + ok[0]].tolist()
            self.trace_stat += stat[: first[0] + ok[0]].tolist()
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
        return Points(ev.x[at], ev.y[at])

    def fail(self, failure: str) -> None:
        """End every run left with ``failure``, at its last tested iterate."""
        for r in self.left:
            self.failure[r] = failure
        self.left = self.left[:0]

    def result(self, wall_time: float) -> SolveResult:
        if not self.one:
            return SolveResult(
                x=self.x, y=self.y, fval=self.fval, iter=self.iter, stat=self.stat,
                wall_time=wall_time, converged=self.converged, trace={},
                failure=tuple(self.failure),
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
            stat=float(self.stat[0]), wall_time=wall_time,
            converged=bool(self.converged[0]), trace=trace, failure=self.failure[0],
        )


@quiet_floats  # past a diverging iterate, steps and evaluations overflow
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

    ``x0`` and ``y0`` may be a point, or stacks of start points, one run
    per row. A run ends when its residual passes the test, when the
    budget ends, or when its evaluation goes non-finite (it then keeps its
    last finite iterate and ``stat = inf``, with failure
    ``"NonFiniteValue"``), at one point as in a stack; the loop ends when
    no run is left. ``step``
    gets the start-stack indices of the rows of its iterate (None for one
    point) and returns, for a stack, one row per run left.

    :class:`Points` returned by ``step`` are collected into a block of up
    to ``max(1, TEST_POINTS // r)`` iterates of each of the ``r`` runs
    left and tested as one stacked evaluation;
    the runs a block ends keep the bits, iterate counts and trace that
    testing each iterate in turn gives, while ``step`` may have advanced
    the block past their stop. The first step of a block gets the points
    of the last tested iterate. The whole call, the start's evaluation
    included, runs without floating-point warnings. An
    oracle that raises (rather than returning a nan or inf) at a point a
    block reaches past a run's stop ends the call with that error. ``cfg``
    and ``scfg`` were checked when they were built; the one rule that
    needs the problem, ``alpha`` at or above the threshold of
    ``problem.mu``, raises ``ValueError`` before the start is evaluated.
    The loop passes stacks to ``f``, ``r1`` and ``r2`` unchecked: the
    problem probed their calling convention when it was built.
    """
    started = time.perf_counter()
    cfg.check_threshold(problem.mu)
    ev = evaluate(problem, cfg, x0, y0, need_grad=True)
    runs = _Runs(problem, cfg, scfg, ev)
    it = runs.test(ev, 0)
    k = 0  # the index of the last iterate tested
    while it is not None:
        block, nxt = [], None
        size = min(max(1, TEST_POINTS // runs.left.size), scfg.max_iter - k)
        while len(block) < size:
            nxt = step(k + len(block), it, None if runs.one else runs.left)
            if not isinstance(nxt, Points):
                break
            block.append(nxt)
            it = nxt
        if block:  # one stack of the block's points, iterate by iterate
            xs = np.array([p.x for p in block]).reshape(-1, problem.dim_x)
            ys = np.array([p.y for p in block]).reshape(-1, problem.dim_y)
            ev = evaluate(problem, cfg, xs, ys, need_grad=True)
            it = runs.test(ev, k + 1, len(block))
            k += len(block)
        elif isinstance(nxt, EnvelopeEval):
            k += 1
            it = runs.test(nxt, k)
        elif isinstance(nxt, str):
            runs.fail(nxt)
            it = None
    return runs.result(time.perf_counter() - started)


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
    without the Hessian-vector products; only the accepted one is
    completed with them. The run stops with ``failure="StepFailure"``
    after ``LS_MAX_HALVINGS`` rejected halvings or once the step drops
    below ``STEP_MIN``, and with ``failure="Stalled"`` when a prox step of
    the current size leaves the iterate bit-unchanged although the
    unit-step residual is above ``gtol``. SPG runs from one point by
    design: a stack of starts raises :class:`DimensionError` at once.
    """
    if problem.check_point(x0, y0)[0].ndim > 1:
        raise DimensionError(f"solve_spg runs from one point, got a stack of {len(x0)}")
    recent = deque(maxlen=LS_WINDOW)  # objective values of the last iterates
    t = STEP_INIT

    def step(k: int, ev: EnvelopeEval, rows) -> Union[EnvelopeEval, str]:
        nonlocal t
        x, y = ev.x, ev.y
        recent.append(ev.gamma)
        gamma_ref = max(recent)
        tk = t  # in [STEP_MIN, STEP_MAX]: every assignment of t keeps it there
        for _ in range(LS_MAX_HALVINGS + 1):
            xt = composite_prox(problem.r1, problem.X, x - tk * ev.grad_x, tk)
            yt = composite_prox(problem.r2, problem.Y, y - tk * ev.grad_y, tk * (cfg.alpha - 1.0))
            dx, dy = xt - x, yt - y
            # np.sum's reduction, called directly: the same bits
            dz2 = float(np.add.reduce(dx ** 2)) + float(np.add.reduce(dy ** 2))
            if dz2 == 0.0:
                return "Stalled"  # prox fixed point at this step size
            try:
                new = evaluate(problem, cfg, xt, yt, need_grad=False)
                if new.gamma <= gamma_ref - LS_DECREASE * dz2 / tk:
                    with_gradients(problem, cfg, new)  # in place: the trial is the next iterate
                    break
            except NonFiniteValue:
                pass  # rejected: halve the step as for insufficient decrease
            tk *= 0.5
            if tk < STEP_MIN:
                return "StepFailure"
        else:
            return "StepFailure"

        s = np.concatenate([dx, dy])
        d = np.concatenate([new.grad_x - ev.grad_x, new.grad_y - ev.grad_y])
        sd = np.vecdot(s, d)
        if sd > 1e-30:  # the first BB step at even k, the second at odd k unless d = 0
            dd = np.vecdot(d, d)
            bb = sd / dd if k % 2 and dd > 0 else np.vecdot(s, s) / sd
            t = float(min(max(bb, STEP_MIN), STEP_MAX))
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
    (a caller who wants another ratio sets ``eta_x``). A given step was
    checked finite and ``>= 0`` when ``SolverConfig`` was built; ``eta_y``
    must also satisfy ``eta_y <= eta``, the envelope step, so y-iterates
    remain in ``Y`` by convex combination. One that does not raises
    ``ValueError`` before the start is evaluated. The projected x-step
    needs a convex ``X``, which every :class:`BoxSet` is.
    """
    L, mu = problem.lipschitz, problem.mu
    theta = cfg.alpha * cfg.eta * L * L / mu
    ey = cfg.eta / 2.0 if scfg.eta_y is None else float(scfg.eta_y)
    ex = ey / theta if scfg.eta_x is None else float(scfg.eta_x)
    if not ey <= cfg.eta * (1.0 + 1e-12):
        raise ValueError(f"eta_y={ey} is outside [0, eta] for the envelope step eta={cfg.eta}")

    def step(k: int, it: Iterate, rows) -> Points:
        gx = problem.f.grad_x(it.x, it.y)
        x_new = composite_prox(problem.r1, problem.X, it.x - ex * gx, ex)
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
        gx, gy = f.grad_x(it.x, it.y), f.grad_y(it.x, it.y)
        x_new = composite_prox(problem.r1, problem.X, it.x - tx * gx, tx)
        y_new = composite_prox(problem.r2, problem.Y, it.y + ty * gy, ty)
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

    Constant steps ``eta_x``/``eta_y`` default to 0.1; a given one was
    checked finite and ``>= 0`` when ``SolverConfig`` was built.
    Convergence is still monitored through the penalized
    residual so iteration counts are comparable across solvers.
    """
    ex = 0.1 if scfg.eta_x is None else float(scfg.eta_x)
    ey = 0.1 if scfg.eta_y is None else float(scfg.eta_y)
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
    empty grid, an entry that is not a finite positive real number (a
    bool is not), or a ``pilot_iters`` that is not an integer ``>= 0``
    raises ``ValueError``; a stack of starts raises
    :class:`DimensionError`, since the pilots all run from one point.

    The pilots run together as the rows of one stacked iterate, each with
    its own step, and each row leaves when its pilot ends; every row
    keeps the bits of the pilot run alone by :func:`solve_gda_baseline`.
    """
    steps = DEFAULT_GDA_GRID if grid is None else tuple(grid)
    if not steps:
        raise ValueError("empty step grid")
    steps = tuple(sorted(check_real("GDA step grid entry", s, 0, strict=True) for s in steps))
    budget = scfg.max_iter if pilot_iters is None else check_int("pilot_iters", pilot_iters, 0)
    pilot_cfg = replace(scfg, max_iter=budget)
    x0, y0 = problem.check_point(x0, y0)
    if x0.ndim > 1:
        raise DimensionError(f"select_gda_step runs from one point, got a stack of {len(x0)}")
    column = np.array(steps)[:, None]
    step = _gda_step(problem, column, column)
    res = _iterate_first_order(
        problem, cfg, pilot_cfg, np.tile(x0, (len(steps), 1)), np.tile(y0, (len(steps), 1)), step
    )
    results = {s: float(final) for s, final in zip(steps, res.stat)}
    return min(results, key=lambda s: (results[s], s)), results


SOLVER_NAMES = ("spg", "subgda", "gda")


def solve(name: str, problem: MinimaxProblem, cfg: EnvelopeConfig, scfg: SolverConfig, x0, y0,
          *, grid=None, pilot_iters: Optional[int] = None) -> SolveResult:
    """Run the solver of one of ``SOLVER_NAMES`` from ``(x0, y0)``.

    ``spg`` is :func:`solve_spg` and ``subgda`` :func:`solve_subgda`;
    ``gda`` picks its step by :func:`select_gda_step` over ``grid`` with
    ``pilot_iters`` pilot iterations, which the other two ignore, then
    runs :func:`solve_gda_baseline` with both steps at the one chosen.
    The final solve's :class:`SolveResult` is returned as it is, so its
    ``wall_time`` leaves out the step selection. Any other name raises
    ``ValueError``.
    """
    if name == "spg":
        return solve_spg(problem, cfg, scfg, x0, y0)
    if name == "subgda":
        return solve_subgda(problem, cfg, scfg, x0, y0)
    if name != "gda":
        raise ValueError(f"unknown solver {name!r}, not one of {SOLVER_NAMES}")
    step, _ = select_gda_step(problem, cfg, scfg, x0, y0, grid=grid, pilot_iters=pilot_iters)
    return solve_gda_baseline(problem, cfg, replace(scfg, eta_x=step, eta_y=step), x0, y0)


def gamma_descent_check(gamma_trace) -> bool:
    """True when the objective trace is nonincreasing up to a slack of
    ``1e-8 * (1 + |gamma_0|)``, absorbing rounding in long traces.
    """
    g = np.asarray(gamma_trace, dtype=np.float64)
    if g.size <= 1:
        return True
    slack = 1e-8 * (1.0 + abs(float(g[0])))
    return bool(np.all(np.diff(g) <= slack))
