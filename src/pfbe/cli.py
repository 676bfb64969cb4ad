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

Exit codes: 0 success; 1 invalid config or usage, or an output that
cannot be written (a path in a missing directory, or one that is a
directory, fails before any solve); 2: a solve failed; the CSV still
holds every row.
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
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .core import PfbeError, check_int, check_real
from .diagnostics import feasibility_mcc
from .envelope import EnvelopeConfig
from .problems import make_example1, make_synthetic
from .rng import check_seed
from .solvers import SOLVER_NAMES, SolverConfig, solve

CSV_HEADER = "solver,n,p,c,seed,fval,iter,stat,feas,time_s"
PROBLEM_NAMES = ("synthetic", "example1")


@dataclass
class RunConfig:
    """Validated benchmark configuration (see module docstring for schema).

    Validation is strict, by the library's own checks
    (:func:`~pfbe.core.check_int`, :func:`~pfbe.core.check_real` and
    :func:`~pfbe.rng.check_seed`): counts and the seed are integers (a
    bool is not), the seed lies in ``[0, 2**64)``, ``c`` is a finite
    number, ``eta``, ``alpha`` and ``gtol`` are positive finite numbers
    when given, the solver list is not empty, a given ``gda_step_grid``
    is a nonempty list of ``[a1, a2]`` pairs whose steps ``a1 * 10^-a2``
    are finite and positive, and a given ``output`` is a string. A
    violation raises ``ValueError``, which ``pfbe run`` and ``pfbe sweep``
    report as one ``invalid config: ...`` line (exit 1) before any solve
    starts; they also check a given ``eta`` or ``alpha`` against the
    instance's envelope threshold (:func:`_load_config`).
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
                          ("repeats", 1)):
            check_int(name, getattr(self, name), low)
        check_seed(self.seed)
        check_real("c", self.c)
        check_real("gtol", self.gtol, 0, strict=True)
        for name in ("eta", "alpha"):
            if getattr(self, name) is not None:
                check_real(name, getattr(self, name), 0, strict=True)
        if not isinstance(self.output, (str, type(None))):
            raise ValueError(f"output must be a path string, got {self.output!r}")
        if self.gda_step_grid is not None:
            if not isinstance(self.gda_step_grid, (list, tuple)):
                raise ValueError(f"gda_step_grid must be a list of [a1, a2] pairs, "
                                 f"got {self.gda_step_grid!r}")
            for entry in self.gda_step_grid:
                if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                    raise ValueError("gda_step_grid entries must be [a1, a2] pairs")
                for v in entry:
                    check_real("gda_step_grid entry", v)
            if not self.gda_step_grid:
                raise ValueError("gda_step_grid must not be empty")
            for (a1, a2), step in zip(self.gda_step_grid, _expand_grid(self.gda_step_grid)):
                check_real(f"gda_step_grid step of [{a1}, {a2}]", step, 0, strict=True)

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

    def emit(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


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
    ``max(1, 2/(eta*mu))``, whose defaulted ``eta`` needs the instance's ``L``,
    or when a given ``eta`` is so small that the threshold overflows.
    """
    inst = (make_example1() if cfg.problem == "example1"
            else make_synthetic(cfg.n, cfg.p, cfg.c, cfg.seed))
    lifted = inst.lifted
    return lifted, EnvelopeConfig.for_problem(lifted.problem, eta=cfg.eta, alpha=cfg.alpha)


def _load_config(path) -> RunConfig:
    """The config at ``path``; any violation raises ``ValueError``.

    A config that gives ``eta`` or ``alpha`` is checked against its
    instance's envelope threshold, so its instance is built once here for
    the check and once more by :func:`run_config`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        cfg = RunConfig.from_dict(json.load(fh))
    if cfg.eta is not None or cfg.alpha is not None:  # both defaulted: alpha sits at the threshold
        _setup(cfg)
    return cfg


def run_config(cfg: RunConfig) -> list[BenchRow]:
    """The config's rows: its instance is set up once, then each of its
    solvers runs ``repeats`` times through :func:`~pfbe.solvers.solve`, from
    the lifted default start and with the config's step grid and pilot
    budget, one row per run in config order; ``time_s`` is the final
    solve's ``wall_time``, without a GDA step selection."""
    lifted, ecfg = _setup(cfg)
    scfg = SolverConfig(max_iter=cfg.max_iter, gtol=cfg.gtol, record_trace=False)
    grid = _expand_grid(cfg.gda_step_grid)
    rows = []
    for solver in cfg.solvers:
        for _ in range(cfg.repeats):
            res = solve(solver, lifted.problem, ecfg, scfg, *lifted.default_start(),
                        grid=grid, pilot_iters=cfg.gda_pilot_iters)
            x_part, _lam = lifted.split(res.x)
            rows.append(BenchRow(
                solver=solver, n=lifted.n, p=lifted.base.dim_y, c=cfg.c, seed=cfg.seed,
                fval=res.fval, iter=res.iter, stat=res.stat,
                feas=feasibility_mcc(lifted.base, x_part, res.y),
                time_s=res.wall_time, failure=res.failure,
            ))
    return rows


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"


def print_table(rows, out_path: Optional[str]) -> None:
    """The rows as a table, on stderr when their CSV goes to stdout (no ``out_path``)."""
    widths = [8, 5, 5, 6, 5, 11, 7, 10, 10, 8]
    lines = ["  ".join(c.rjust(w) for c, w in zip(line.split(","), widths))
             for line in rows_to_csv(rows).splitlines()]
    lines.insert(1, "-" * len(lines[0]))
    print("\n".join(lines), file=sys.stdout if out_path else sys.stderr)


def _no_output_dir(out_path: Optional[str]) -> bool:
    """Report, as one line before any solve, an ``out_path`` in a missing
    directory or that is a directory."""
    if out_path and not Path(out_path).parent.is_dir():
        print(f"cannot write output: no directory {Path(out_path).parent}", file=sys.stderr)
        return True
    if out_path and Path(out_path).is_dir():
        print(f"cannot write output: {out_path} is a directory", file=sys.stderr)
        return True
    return False


def _report(rows, out_path: Optional[str]) -> int:
    """Print the rows' table and write their CSV to ``out_path`` (stdout
    when None). The exit code: 1, after one stderr line, when the write
    fails; else 2 when a solve failed; else 0."""
    print_table(rows, out_path)
    try:
        if out_path:
            Path(out_path).write_text(rows_to_csv(rows), encoding="utf-8")
        else:
            sys.stdout.write(rows_to_csv(rows))
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    return 2 if any(r.failure is not None for r in rows) else 0


def _loaded(load):
    """``load()``, or None after one ``invalid config: ...`` line when it
    raises a load error."""
    try:
        return load()
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return None


def cmd_run(args) -> int:
    cfg = _loaded(lambda: _load_config(args.config))
    if cfg is None:
        return 1
    out = args.out or cfg.output
    if _no_output_dir(out):
        return 1
    return _report(run_config(cfg), out)


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
    loaded = _loaded(lambda: (_thread_budget(), [_load_config(path) for path in paths]))
    if loaded is None or _no_output_dir(args.out):
        return 1
    workers, cfgs = loaded
    # largest first (stably), so that no large config is left to run alone at the end
    order = sorted(range(len(cfgs)), key=lambda i: -cfgs[i].n * cfgs[i].p)
    jobs = [cfgs[i] for i in order]
    if workers > 1 and len(cfgs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        # spawned, not forked: the parent already runs threads (BLAS's)
        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
            done = list(pool.map(run_config, jobs))
    else:
        done = [run_config(cfg) for cfg in jobs]
    by_file = dict(zip(order, done))  # each config's rows, by its place in file-name order
    rows = sorted((row for i in range(len(cfgs)) for row in by_file[i]),
                  key=lambda r: (r.n, r.p, r.c, r.solver, r.seed))  # stable: ties keep file order
    return _report(rows, args.out)


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
    p_run.add_argument("--out", help="CSV output path (default: stdout; the table then to stderr)")
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
