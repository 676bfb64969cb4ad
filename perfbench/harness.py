"""Workloads, jobs, passes, output checks and golden rows of the pfbe benchmark.

Each job calls the public functions of the package itself, through the
attribute of the module that defines them (``problems.make_synthetic``,
``solvers.solve_spg``, ...), so that a traced pass can swap those
attributes for timed wrappers without touching this code.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import tracing
from pfbe import cli, diagnostics, envelope, problems, solvers

INSTANCES_PER_SEED = 3
SPG_FEAS_TOL = 1e-6
# each job's set-up is repeated right after the job, so that every pass
# gives 1 + SETUP_REPEATS set-up samples spread over the whole pass
SETUP_REPEATS = 2
ROW_HEADER = "solver,n,p,c,seed,fval,iter,stat,feas"


@dataclass(frozen=True)
class Job:
    """One (instance, solver) pair with the budgets of the ``pfbe`` config defaults."""

    solver: str
    n: int
    p: int
    c: float
    seed: int
    gtol: float = 1e-7
    max_iter: int = 10000
    pilot_iters: int = 1000


def instance_seeds(seed: int) -> tuple:
    """Workload seed ``s`` maps to instance seeds ``3s+1 .. 3s+3`` (0 gives 1, 2, 3)."""
    return tuple(INSTANCES_PER_SEED * seed + k for k in range(1, INSTANCES_PER_SEED + 1))


def workload_jobs(workload: str, seed: int, smoke: bool = False) -> list:
    """The jobs of one pass: every shape, solver and instance seed.

    ``smoke`` keeps one instance of the smallest shape and cuts the
    fixed-step budgets, for the benchmark's own tests.
    """
    if workload == "sweep-c6":
        shapes = [(n, n, 1.0) for n in (10, 20, 50)]
        names = ("spg", "subgda", "gda")
    elif workload == "spg-large":
        shapes = [(n, n, c) for n in (200, 400) for c in (0.5, 1.0, 2.0)]
        names = ("spg",)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    seeds = instance_seeds(seed)
    if smoke:
        shapes, seeds = shapes[:1], seeds[:1]
    jobs = [
        Job(solver=s, n=n, p=p, c=c, seed=i)
        for n, p, c in shapes
        for s in names
        for i in seeds
    ]
    if smoke:
        jobs = [j if j.solver == "spg" else replace(j, max_iter=200, pilot_iters=50) for j in jobs]
    return jobs


class NullTracer:
    """Untraced passes: no spans, no proxies."""

    def span(self, name, **attrs):
        return contextlib.nullcontext()

    def proxy(self, lifted):
        return lifted


NULL_TRACER = NullTracer()


@dataclass
class JobResult:
    """A job's row (None when it raised), its times and why it failed, if it did."""

    job: Job
    row: Optional[cli.BenchRow]
    setup_s: float
    solve_s: float
    converged: bool = False
    cert_passed: bool = False
    problem: Optional[str] = None


def _solve(job: Job, prob, ecfg, z0, y0):
    scfg = solvers.SolverConfig(max_iter=job.max_iter, gtol=job.gtol, record_trace=False)
    if job.solver == "spg":
        return solvers.solve_spg(prob, ecfg, scfg, z0, y0)
    if job.solver == "subgda":
        return solvers.solve_subgda(prob, ecfg, scfg, z0, y0)
    step, _ = solvers.select_gda_step(prob, ecfg, scfg, z0, y0, pilot_iters=job.pilot_iters)
    return solvers.solve_gda_baseline(prob, ecfg, replace(scfg, eta_x=step, eta_y=step), z0, y0)


def output_problem(job: Job, res, row: cli.BenchRow, cert) -> Optional[str]:
    """Why a returned solve counts as failed, or None when its output checks out."""
    if res.failure is not None:
        return f"solver returned failure {res.failure}"
    if not (math.isfinite(res.fval) and math.isfinite(res.stat)):
        return "non-finite fval or stat"
    if not cert.transfer_ok:
        return "certify: transfer bound violated"
    if res.converged and not res.stat <= job.gtol:
        return f"converged with stat {res.stat:.3e} > gtol"
    if job.solver == "spg" and not row.feas <= SPG_FEAS_TOL:
        return f"spg base feasibility {row.feas:.3e} > {SPG_FEAS_TOL:g}"
    return None


def set_up(job: Job, tracer=NULL_TRACER):
    """The instance (generation and lifting) and its envelope config."""
    inst = problems.make_synthetic(job.n, job.p, job.c, job.seed)
    with tracer.span("envelope.EnvelopeConfig.for_problem"):
        return inst, envelope.EnvelopeConfig.for_problem(inst.lifted.problem)


def run_job(job: Job, tracer=NULL_TRACER) -> JobResult:
    """Set up, solve, certify and emit one row, as ``pfbe sweep`` does for a job.

    ``tracer.span`` marks the job and the envelope config; ``tracer.proxy``
    gives the lifted problem counting oracles (both no-ops by default).
    Any exception is caught here, so one bad job cannot stop the pass.
    """
    with tracer.span("job", solver=job.solver, n=job.n, c=job.c, seed=job.seed):
        started = time.perf_counter()
        try:
            inst, ecfg = set_up(job, tracer)
        except Exception as exc:  # noqa: BLE001 - reported as a failed job
            return JobResult(job, None, time.perf_counter() - started, 0.0,
                             problem=f"setup raised {type(exc).__name__}: {exc}")
        set_up_at = time.perf_counter()
        setup_s = set_up_at - started
        try:
            lifted = tracer.proxy(inst.lifted)
            z0, y0 = lifted.default_start()
            res = _solve(job, lifted.problem, ecfg, z0, y0)
            solve_s = time.perf_counter() - set_up_at
            x, lam = lifted.split(res.x)
            feas = diagnostics.feasibility_mcc(lifted.base, x, res.y)
            cert = diagnostics.certify(lifted, ecfg, x, lam, res.y)
        except Exception as exc:  # noqa: BLE001 - reported as a failed job
            return JobResult(job, None, setup_s, time.perf_counter() - set_up_at,
                             problem=f"solve raised {type(exc).__name__}: {exc}")
        row = cli.BenchRow(
            solver=job.solver, n=job.n, p=job.p, c=job.c, seed=job.seed,
            fval=res.fval, iter=res.iter, stat=res.stat, feas=feas,
            time_s=res.wall_time, failure=res.failure,
        )
        return JobResult(
            job, row, setup_s, solve_s,
            converged=res.converged, cert_passed=cert.passed,
            problem=output_problem(job, res, row, cert),
        )


def run_pass(jobs, tracer=NULL_TRACER, setup_repeats=0):
    """Run the jobs one after another, each followed by ``setup_repeats``
    set-up-only repeats.

    Returns (results, summed job times, summed time of each set-up repeat).
    """
    results, wall = [], 0.0
    repeats = [0.0] * setup_repeats
    for job in jobs:
        started = time.perf_counter()
        results.append(run_job(job, tracer))
        wall += time.perf_counter() - started
        if results[-1].row is None:
            continue  # the job raised; it is reported as failed, not repeated
        for k in range(setup_repeats):
            started = time.perf_counter()
            set_up(job)
            repeats[k] += time.perf_counter() - started
    return results, wall, repeats


def upper_percentile(values):
    """The highest of p99..p75 (nearest rank) with at least ten samples above it."""
    xs = sorted(values)
    for q in (99, 95, 90, 80, 75):
        i = math.ceil(q / 100 * len(xs)) - 1
        if len(xs) - 1 - i >= 10:
            return q, xs[i]
    return None


def _spread(values, unit) -> str:
    text = f"p50 {statistics.median(values):.4g} {unit}"
    upper = upper_percentile(values)
    if upper:
        text += f", p{upper[0]} {upper[1]:.4g} {unit}"
    return f"{text}, n={len(values)}"


def end_to_end(jobs, seconds: float, smoke: bool = False):
    """Passes while the next one is expected to end within ``seconds`` (at
    least one; exactly one with ``smoke``).

    ``wall_s`` is the median over passes of the summed job times (the
    set-up repeats excluded); ``setup_s`` the median of all set-up samples.
    Returns (end-to-end metrics, notes, first pass results, all results).
    """
    passes, walls, setups = [], [], []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        results, wall, repeats = run_pass(jobs, setup_repeats=SETUP_REPEATS)
        passes.append(results)
        walls.append(wall)
        setups += [sum(r.setup_s for r in results)] + repeats
        now = time.perf_counter()
        if smoke or now - begin + (now - started) > seconds:
            break

    everything = [r for results in passes for r in results]
    metrics, notes = {}, {}
    metrics["wall_s"] = (statistics.median(walls), "s")
    notes["wall_s"] = f"median of {len(walls)} passes of {len(jobs)} jobs"
    metrics["setup_s"] = (statistics.median(setups), "s")
    notes["setup_s"] = (f"median of {len(setups)} set-ups of all jobs (generation, lift, "
                        f"EnvelopeConfig), {1 + SETUP_REPEATS} per pass")
    for name in ("spg", "subgda", "gda"):
        per_job = [r.solve_s for r in everything if r.job.solver == name]
        if not per_job:
            continue
        per_pass = [sum(r.solve_s for r in results if r.job.solver == name) for results in passes]
        metrics[f"{name}_s"] = (statistics.median(per_pass), "s")
        notes[f"{name}_s"] = f"median per pass; per job {_spread(per_job, 's')}" + (
            "; includes select_gda_step" if name == "gda" else "")
    job_s = [r.setup_s + r.solve_s for r in everything]
    notes["wall_s"] += f"; job set-up+solve {_spread(job_s, 's')}"
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    n_failed = sum(r.problem is not None for r in everything)
    n_conv = sum(r.converged for r in everything)
    metrics["failed_frac"] = (n_failed / len(everything), "ratio")
    notes["failed_frac"] = f"{n_failed} of {len(everything)} jobs"
    metrics["converged_frac"] = (n_conv / len(everything), "ratio")
    notes["converged_frac"] = f"{n_conv} of {len(everything)} jobs"
    return metrics, notes, passes[0], everything


def traced(jobs):
    """Every job once traced. The jobs of the first instance seed also run
    untraced, back to back with their traced run and alternating which goes
    first, and the two times of those jobs give ``trace_overhead``.

    Returns (per-layer metrics, tracer, traced results, all results).
    """
    tracer = tracing.Tracer()
    results, plain = [], []
    paired_s = {False: 0.0, True: 0.0}
    first_seed = min(job.seed for job in jobs)
    for job in jobs:
        paired = job.seed == first_seed
        order = ((False, True) if len(plain) % 2 == 0 else (True, False)) if paired else (True,)
        for with_trace in order:
            started = time.perf_counter()
            if with_trace:
                with tracer.installed():
                    results.append(run_job(job, tracer))
            else:
                plain.append(run_job(job))
            paired_s[with_trace] += (time.perf_counter() - started) if paired else 0.0
    metrics = tracing.per_layer(tracer, results, paired_s[False], paired_s[True])
    return metrics, tracer, results, plain + results


def row_key(row) -> tuple:
    return (row.n, row.p, row.c, row.solver, row.seed)


def rows_text(rows) -> str:
    """The rows as ``pfbe sweep`` writes them, in its order, without ``time_s``."""
    lines = [r.csv().rsplit(",", 1)[0] for r in sorted(rows, key=row_key)]
    return "\n".join([ROW_HEADER] + lines) + "\n"


def rows_sha256(rows) -> str:
    return hashlib.sha256(rows_text(rows).encode("utf-8")).hexdigest()


def rows_changed(rows, golden_text: str) -> int:
    """Rows whose ``fval, iter, stat, feas`` differ from the golden, plus rows
    present on one side only."""
    def keyed(lines):
        out = {}
        for line in lines:
            fields = line.split(",")
            out[tuple(fields[:5])] = tuple(fields[5:])
        return out

    ours = keyed(rows_text(rows).splitlines()[1:])
    gold = keyed(golden_text.splitlines()[1:])
    return sum(ours.get(k) != gold.get(k) for k in set(ours) | set(gold))


def golden_path(root: Path, workload: str, seed: int) -> Path:
    return root / "golden" / workload / f"seed-{seed}.csv"
