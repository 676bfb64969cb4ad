"""Benchmark command line: ``pfbe run``, ``pfbe sweep``, ``pfbe check``.

A run config is a strict-keyed JSON object:

    {
      "problem":  "synthetic" | "example1",
      "solver":   "spg" | "subgda" | "gda" | [list of these],
      "n": 10, "p": 10, "c": 1.0, "seed": 1,
      "eta": null, "alpha": null,          # envelope overrides
      "gtol": 1e-7, "max_iter": 10000,
      "gda_step_grid": [[1, 1], [3, 2]],   # entries [a1, a2] -> a1 * 10^-a2
      "gda_pilot_iters": 1000,
      "repeats": 1,
      "output": "results.csv"              # optional default for --out
    }

Each (solver, repeat) pair produces one CSV row with the fixed header
``solver,n,p,c,seed,fval,iter,stat,feas,time_s`` where ``fval`` is the
final penalized objective, ``stat`` the normalized residual, and
``feas`` the base-problem constraint violation at the returned point
(for ``example1`` the ``c`` column echoes the config value; the
instance itself has no level parameter). Numeric fields use ``%.2e``
so repeated runs are byte-identical apart from ``time_s``.

Exit codes: 0 success, 1 invalid config or usage, 2 solver failure.
``PFBE_THREADS`` caps sweep parallelism: unset means serial, and a value
that is not a positive integer is an invalid config. Row order is
``(n, p, c, solver, seed)`` regardless of scheduling.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .core import PfbeError
from .diagnostics import feasibility_mcc
from .envelope import EnvelopeConfig
from .problems import make_example1, make_synthetic
from .solvers import (
    SolverConfig,
    select_gda_step,
    solve_gda_baseline,
    solve_spg,
    solve_subgda,
)

CSV_HEADER = "solver,n,p,c,seed,fval,iter,stat,feas,time_s"
SOLVER_NAMES = ("spg", "subgda", "gda")
PROBLEM_NAMES = ("synthetic", "example1")

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_int(name: str, value, low: int) -> None:
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def _check_real(name: str, value) -> None:
    if not _is_real(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _check_positive(name: str, value) -> None:
    _check_real(name, value)
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


@dataclass
class RunConfig:
    """Validated benchmark configuration (see module docstring for schema).

    Validation is strict: counts and the seed are integers (a bool is
    not), the seed lies in ``[0, 2**64)``, ``c`` is a finite number,
    ``eta``, ``alpha`` and ``gtol`` are positive finite numbers when
    given, the solver list is not empty, and a given ``gda_step_grid`` is
    a nonempty list of ``[a1, a2]`` pairs whose steps ``a1 * 10^-a2`` are
    finite and positive. A violation raises
    ``ValueError``, which ``pfbe run`` and ``pfbe sweep`` report as one
    ``invalid config: ...`` line (exit 1) before any solve starts; they
    also check a given ``alpha`` against the instance's envelope threshold
    (:func:`_load_config`).
    """

    problem: str = "synthetic"
    solver: Union[str, list] = "spg"
    n: int = 10
    p: int = 10
    c: float = 1.0
    seed: int = 1
    eta: Optional[float] = None
    alpha: Optional[float] = None
    gtol: float = 1e-7
    max_iter: int = 10000
    gda_step_grid: Optional[list] = None
    gda_pilot_iters: int = 1000
    repeats: int = 1
    output: Optional[str] = None

    def __post_init__(self):
        if self.problem not in PROBLEM_NAMES:
            raise ValueError(f"unknown problem {self.problem!r}")
        if not isinstance(self.solver, (str, list, tuple)) or not self.solvers:
            raise ValueError("solver must be a solver name or a nonempty list of them")
        for s in self.solvers:
            if s not in SOLVER_NAMES:
                raise ValueError(f"unknown solver {s!r}")
        for name, low in (("n", 1), ("p", 1), ("max_iter", 0), ("gda_pilot_iters", 0),
                          ("repeats", 1), ("seed", 0)):
            _check_int(name, getattr(self, name), low)
        if self.seed >= 2**64:
            raise ValueError(f"seed must be below 2**64, got {self.seed}")
        _check_real("c", self.c)
        _check_positive("gtol", self.gtol)
        for name in ("eta", "alpha"):
            if getattr(self, name) is not None:
                _check_positive(name, getattr(self, name))
        if self.gda_step_grid is not None:
            for entry in self.gda_step_grid:
                if (
                    not isinstance(entry, (list, tuple))
                    or len(entry) != 2
                    or not all(_is_real(v) for v in entry)
                ):
                    raise ValueError("gda_step_grid entries must be [a1, a2] pairs")
            if not self.gda_step_grid:
                raise ValueError("gda_step_grid must not be empty")
            for (a1, a2), step in zip(self.gda_step_grid, _expand_grid(self.gda_step_grid)):
                if not (math.isfinite(step) and step > 0):
                    raise ValueError(
                        f"gda_step_grid entry [{a1}, {a2}] gives step {step!r}, "
                        "not a finite positive number"
                    )

    @property
    def solvers(self) -> tuple:
        if isinstance(self.solver, str):
            return (self.solver,)
        return tuple(self.solver)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)

    def emit(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


class BenchRow(NamedTuple):
    solver: str
    n: int
    p: int
    c: float
    seed: int
    fval: float
    iter: int
    stat: float
    feas: float
    time_s: float
    failure: Optional[str] = None

    def csv(self) -> str:
        return (
            f"{self.solver},{self.n},{self.p},{self.c:g},{self.seed},"
            f"{self.fval:.2e},{self.iter},{self.stat:.2e},{self.feas:.2e},"
            f"{self.time_s:.3f}"
        )


def _grid_step(a1, a2) -> float:
    """The step ``a1 * 10^-a2``; ``inf`` when the power overflows."""
    try:
        return float(a1) * 10.0 ** (-float(a2))
    except OverflowError:
        return math.inf


def _expand_grid(step_grid) -> Optional[list]:
    if step_grid is None:
        return None
    return [_grid_step(a1, a2) for a1, a2 in step_grid]


def _setup(cfg: RunConfig):
    """The configured instance's lifted problem and its envelope config.

    Raises ``ValueError`` when ``alpha`` lies below the envelope threshold
    ``max(1, 2/(eta*mu))``, whose defaulted ``eta`` needs the instance's ``L``.
    """
    inst = (make_example1() if cfg.problem == "example1"
            else make_synthetic(cfg.n, cfg.p, cfg.c, cfg.seed))
    lifted = inst.lifted
    return lifted, EnvelopeConfig.for_problem(lifted.problem, eta=cfg.eta, alpha=cfg.alpha)


def _load_config(path) -> RunConfig:
    """The config at ``path``, its ``alpha`` checked against the instance's
    envelope threshold; any violation raises ``ValueError``."""
    cfg = RunConfig.from_json(path)
    if cfg.alpha is not None:  # a defaulted alpha sits at the threshold
        _setup(cfg)
    return cfg


def run_single(cfg: RunConfig, solver: str) -> BenchRow:
    """Execute one solver on the configured instance and report a row."""
    lifted, ecfg = _setup(cfg)
    n, p = (1, 1) if cfg.problem == "example1" else (cfg.n, cfg.p)
    prob = lifted.problem
    scfg = SolverConfig(max_iter=cfg.max_iter, gtol=cfg.gtol, record_trace=False)
    z0, y0 = lifted.default_start()

    if solver == "spg":
        res = solve_spg(prob, ecfg, scfg, z0, y0)
    elif solver == "subgda":
        res = solve_subgda(prob, ecfg, scfg, z0, y0)
    elif solver == "gda":
        step, _ = select_gda_step(
            prob, ecfg, scfg, z0, y0,
            grid=_expand_grid(cfg.gda_step_grid),
            pilot_iters=cfg.gda_pilot_iters,
        )
        res = solve_gda_baseline(
            prob, ecfg, replace(scfg, eta_x=step, eta_y=step), z0, y0
        )
    else:  # pragma: no cover - guarded by RunConfig validation
        raise ValueError(f"unknown solver {solver!r}")

    x_part, _lam = lifted.split(res.x)
    feas = feasibility_mcc(lifted.base, x_part, res.y)
    return BenchRow(
        solver=solver, n=n, p=p, c=cfg.c, seed=cfg.seed,
        fval=res.fval, iter=res.iter, stat=res.stat, feas=feas,
        time_s=res.wall_time, failure=res.failure,
    )


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"


def print_table(rows) -> None:
    cols = CSV_HEADER.split(",")
    widths = [8, 5, 5, 6, 5, 11, 7, 10, 10, 8]
    head = "  ".join(c.rjust(w) for c, w in zip(cols, widths))
    print(head)
    print("-" * len(head))
    for r in rows:
        cells = r.csv().split(",")
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))


def _exit_code(rows) -> int:
    return 2 if any(r.failure is not None for r in rows) else 0


def _write_output(rows, out_path: Optional[str]) -> None:
    text = rows_to_csv(rows)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    try:
        cfg = _load_config(args.config)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    rows = [run_single(cfg, s) for s in cfg.solvers for _ in range(cfg.repeats)]
    print_table(rows)
    _write_output(rows, args.out or cfg.output)
    return _exit_code(rows)


def _sweep_job(payload):
    cfg_dict, solver = payload
    return run_single(RunConfig.from_dict(cfg_dict), solver)


def _thread_budget() -> int:
    """The sweep's worker count, ``PFBE_THREADS`` or 1 when it is unset;
    anything but a positive decimal integer raises ``ValueError``."""
    raw = os.environ.get("PFBE_THREADS")
    if raw is None:
        return 1
    if not (raw.isascii() and raw.isdigit() and int(raw) > 0):
        raise ValueError(f"PFBE_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def cmd_sweep(args) -> int:
    config_dir = Path(args.config_dir)
    paths = sorted(config_dir.glob("*.json"))
    if not paths and not config_dir.is_dir():
        print(f"not a directory: {config_dir}", file=sys.stderr)
        return 1
    jobs = []
    try:
        workers = _thread_budget()
        for path in paths:
            cfg = _load_config(path)
            for solver in cfg.solvers:
                for _ in range(cfg.repeats):
                    jobs.append((cfg.to_dict(), solver))
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1

    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_job, jobs))
    else:
        rows = [_sweep_job(j) for j in jobs]

    order = sorted(
        range(len(rows)),
        key=lambda i: (rows[i].n, rows[i].p, rows[i].c, rows[i].solver, rows[i].seed, i),
    )
    rows = [rows[i] for i in order]
    print_table(rows)
    _write_output(rows, args.out)
    return _exit_code(rows)


def cmd_check(args) -> int:
    from .checks import run_battery

    failures = run_battery()
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pfbe",
        description="benchmarks for envelope-penalized constrained minimax solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the solvers from one JSON config")
    p_run.add_argument("--config", required=True, help="path to a run config JSON")
    p_run.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run every config in a directory")
    p_sweep.add_argument("--config-dir", required=True, help="directory of config JSONs")
    p_sweep.add_argument("--out", required=True, help="aggregated CSV output path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="run the library invariant battery")
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PfbeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
