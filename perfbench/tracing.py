"""In-memory tracing of one benchmark pass, and the per-layer metrics it yields.

``Tracer.installed()`` swaps the public functions for timed wrappers at
the names the calling modules bound (``pfbe.solvers.evaluate``,
``pfbe.problems.spectral_norm_power``, ...) and restores them on exit;
``Tracer.proxy`` gives a lifted problem counting oracles.

Two kinds of boundary are recorded:

* spans (jobs, instance generation, solver entry points, GDA pilots,
  ``certify``): one record each, with the id of the span that caused it;
* hot calls (envelope evaluations, oracle calls, prox calls): one rollup
  per (enclosing span, name) with calls, time and self time, so that
  millions of calls keep memory bounded while staying attributed.

A layer's self time is its duration minus the time of the calls nested
in it, whichever kind they are.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import replace

from pfbe import diagnostics, envelope, lagrangian, problems, solvers
from pfbe.core import NonFiniteValue

ORACLE_KINDS = ("f", "grad_x", "grad_y", "hvp_xy", "hvp_yy")
_ORACLE_FIELDS = dict(zip(ORACLE_KINDS, ("eval", "grad_x", "grad_y", "hvp_xy", "hvp_yy")))

EVAL_GRAD = "envelope.evaluate.grad"
EVAL_NOGRAD = "envelope.evaluate.nograd"
PROX_STEP = "envelope.prox_step"
COMPOSITE_PROX = "sets.composite_prox"

# attributes swapped in the traced pass, at the modules that call them;
# spanned calls get one record each, hot calls a rollup per enclosing span
_SPANNED = (
    (problems, ("spectral_norm_power", "lift", "make_synthetic")),
    (solvers, ("solve_spg", "solve_subgda", "solve_gda_baseline", "select_gda_step")),
    (diagnostics, ("certify",)),
)
_HOT = (
    (envelope, ("composite_prox",)),
    (lagrangian, ("composite_prox",)),
    (solvers, ("prox_step", "composite_prox")),
    (diagnostics, ("prox_step", "composite_prox", "feasibility_mcc")),
)


def _layer_name(fn) -> str:
    """``<defining module>.<function>``, e.g. ``lagrangian.lift`` for ``problems.lift``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Spans and rollups of the traced pass, kept in memory until written out."""

    def __init__(self):
        self.spans = []
        self.rollup = {}
        self._frames = [[0.0]]  # child time of each open call, innermost last
        self._ids = [None]  # ids of the open spans, innermost last

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "parent": self._ids[-1], "name": name, "attrs": attrs}
        self.spans.append(rec)
        frame = [0.0]
        self._frames.append(frame)
        self._ids.append(rec["id"])
        start = time.perf_counter()
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._ids.pop()
            self._frames.pop()
            self._frames[-1][0] += end - start
            rec.update(start=start, end=end, self_s=end - start - frame[0])

    def spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def hot(self, name, fn):
        frames, ids, rollup, clock = self._frames, self._ids, self.rollup, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                frames.pop()
                frames[-1][0] += dur
                key = (ids[-1], name)
                acc = rollup.get(key)
                if acc is None:
                    acc = rollup[key] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[0]

        return wrapper

    def _evaluate(self, fn):
        with_grad, without = self.hot(EVAL_GRAD, fn), self.hot(EVAL_NOGRAD, fn)

        def evaluate(problem, cfg, x, y, need_grad=True):
            return (with_grad if need_grad else without)(problem, cfg, x, y, need_grad=need_grad)

        return evaluate

    def _normal_stream(self, base):
        tracer = self

        class TracedNormalStream(base):
            def array(self, *shape):
                with tracer.span("rng.array", draws=math.prod(shape)):
                    return super().array(*shape)

        return TracedNormalStream

    def _patches(self):
        """(module, attribute, wrapper) for every name the traced pass swaps."""
        patches = [(problems, "NormalStream", self._normal_stream(problems.NormalStream))]
        patches += [(m, "evaluate", self._evaluate(m.evaluate)) for m in (solvers, diagnostics)]
        for wrap, table in ((self.spanned, _SPANNED), (self.hot, _HOT)):
            for module, attrs in table:
                for attr in attrs:
                    fn = getattr(module, attr)
                    patches.append((module, attr, wrap(_layer_name(fn), fn)))
        return patches

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, name, wrapper in self._patches():
                saved.append((module, name, getattr(module, name)))
                setattr(module, name, wrapper)
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def proxy(self, lifted):
        """The lifted problem with each oracle of its ``FunctionOracle`` counted."""
        f = lifted.problem.f
        counted = {
            field: self.hot(f"lagrangian.oracle.{kind}", getattr(f, field))
            for kind, field in _ORACLE_FIELDS.items()
            if getattr(f, field) is not None
        }
        problem = replace(lifted.problem, f=replace(f, **counted))
        return replace(lifted, problem=problem)

    def dump(self) -> dict:
        rollups = [
            {"parent": parent, "name": name, "calls": c, "total_s": t, "self_s": s}
            for (parent, name), (c, t, s) in self.rollup.items()
        ]
        return {"spans": self.spans, "rollups": rollups}


def _dur(rec) -> float:
    return rec["end"] - rec["start"]


def per_layer(tracer: Tracer, results, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics ``{name: (value, unit)}`` of one traced pass.

    ``results`` are the traced job results, which give the iteration
    counts the solvers return; ``untraced_s`` and ``traced_s`` are the
    times of the same subset of jobs without and with tracing.
    """
    spans = tracer.spans
    by_name: dict = {}
    for rec in spans:
        by_name.setdefault(rec["name"], []).append(rec)

    def total(name):
        return sum(_dur(r) for r in by_name.get(name, []))

    def calls(name, parents=None):
        return sum(
            acc[0] for (parent, n), acc in tracer.rollup.items()
            if n == name and (parents is None or parent in parents)
        )

    def self_s(names):
        return sum(acc[2] for (_, n), acc in tracer.rollup.items() if n in names)

    def inclusive(names):
        return sum(acc[1] for (_, n), acc in tracer.rollup.items() if n in names)

    def us_per(seconds, count):
        return 1e6 * seconds / count if count else float("nan")

    gda_calls = by_name.get("solvers.solve_gda_baseline", [])
    pilots = [r for r in gda_calls if spans[r["parent"]]["name"] == "solvers.select_gda_step"]
    finals = [r for r in gda_calls if spans[r["parent"]]["name"] == "job"]
    pilot_evals = sum(calls(EVAL_GRAD, {r["id"]}) for r in pilots)
    spg_ids = {r["id"] for r in by_name.get("solvers.solve_spg", [])}

    iters = {name: 0 for name in ("spg", "subgda", "gda")}
    for r in results:
        if r.row is not None:
            iters[r.job.solver] += r.row.iter
    solver_s = {
        "spg": total("solvers.solve_spg"),
        "subgda": total("solvers.solve_subgda"),
        "gda": sum(_dur(r) for r in finals),
    }
    ls_trials = calls(EVAL_NOGRAD, spg_ids)
    evals = calls(EVAL_GRAD) + calls(EVAL_NOGRAD)
    oracle_names = {f"lagrangian.oracle.{k}" for k in ORACLE_KINDS}

    m = {
        "rng.draws": (sum(r["attrs"]["draws"] for r in by_name.get("rng.array", [])), "count"),
        "rng.s": (total("rng.array"), "s"),
        "problems.spectral_norm_power.s": (total("problems.spectral_norm_power"), "s"),
        "lagrangian.lift.s": (total("lagrangian.lift"), "s"),
        "solvers.select_gda_step.s": (total("solvers.select_gda_step"), "s"),
        "solvers.gda_pilot.runs": (len(pilots), "count"),
        # each pilot evaluates its start point once, then once per iteration
        "solvers.gda_pilot.iters": (pilot_evals - len(pilots), "count"),
        "solvers.gda_pilot.diverged": (
            sum(r.get("error") == NonFiniteValue.__name__ for r in pilots), "count"),
        "envelope.evaluate.grad.calls": (calls(EVAL_GRAD), "count"),
        "envelope.evaluate.nograd.calls": (calls(EVAL_NOGRAD), "count"),
        "envelope.evaluate.self_s": (self_s({EVAL_GRAD, EVAL_NOGRAD}), "s"),
        "envelope.evaluate.us_per_call": (us_per(inclusive({EVAL_GRAD, EVAL_NOGRAD}), evals), "us"),
        "envelope.prox_step.calls": (calls(PROX_STEP), "count"),
    }
    for kind in ORACLE_KINDS:
        m[f"lagrangian.oracle.{kind}.calls"] = (calls(f"lagrangian.oracle.{kind}"), "count")
    m["lagrangian.oracle.self_s"] = (self_s(oracle_names), "s")
    m["sets.composite_prox.calls"] = (calls(COMPOSITE_PROX), "count")
    m["sets.composite_prox.self_s"] = (self_s({COMPOSITE_PROX}), "s")
    for name in ("spg", "subgda", "gda"):
        m[f"solvers.{name}.iters"] = (iters[name], "count")
        m[f"solvers.{name}.us_per_iter"] = (us_per(solver_s[name], iters[name]), "us")
    m["solvers.spg.ls_trials"] = (ls_trials, "count")
    m["solvers.spg.accept_ratio"] = (iters["spg"] / ls_trials if ls_trials else float("nan"), "ratio")
    m["diagnostics.certify.s"] = (total("diagnostics.certify"), "s")
    m["diagnostics.certify.passed"] = (sum(r.cert_passed for r in results), "count")
    m["trace_overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    return m
