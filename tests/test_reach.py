"""Every statement on the solve path of ``src/pfbe`` is reached by a run of
the program.

A line trace (``sys.settrace``) of ``pfbe run``, ``pfbe sweep`` and ``pfbe
check``, called through ``cli.main`` on small configs, must reach each
statement in the function bodies of the package's modules, nested functions
included. ``cli.py`` and ``checks.py`` are left out: they are the entry points,
and what they leave unreached handles outside input or reports a failing
check. A statement counts as reached when the trace hits one of its own
lines; a compound statement owns its header lines. Exempt: ``raise``
statements and the bodies of ``except`` handlers, which report faults;
the headers of ``try`` statements and ``global``/``nonlocal``
declarations, which run no code of their own; and dunder methods, which
the interpreter calls. ``ALLOWED`` names the functions that may
keep unreached statements, with how many: a function that then has more
lists them all, and one that has fewer fails too, so an entry never
outlives what it allows.

A statement that no run of the program reaches is a second code path that
nothing exercises: it goes, or ``ALLOWED`` says why it stays and names the
open ROADMAP item that will reach it.
"""

import ast
import importlib.util
import json
import sys
from pathlib import Path

from pfbe import cli, rng, solvers

ROOT = Path(__file__).resolve().parents[1]
ENTRY_POINTS = ("cli.py", "checks.py")
MODULES = sorted(p for p in (ROOT / "src" / "pfbe").glob("*.py") if p.name not in ENTRY_POINTS)

ITEM8 = "a nonzero regularizer or a box Y: the built-in (MM) family of ROADMAP item 8"
ITEM9 = "the paper's model beyond both built-in lifts: ROADMAP item 9"
ITEM11 = "a solver failure path: ROADMAP item 11"
# "module.qualified_name" of a function (nested ones joined by dots): how
# many of its statements stay unreached, and why
ALLOWED = {
    "sets.composite_prox": (3, ITEM8),
    "lagrangian._lifted_r1": (3, ITEM9),
    "lagrangian._lifted_r1.reg_eval": (1, ITEM9),
    "lagrangian._lifted_r1.reg_prox": (3, ITEM9),
    "lagrangian.lift": (1, ITEM9 + " (a nonzero r1)"),
    "solvers._iterate_first_order": (3, ITEM11 + " (a step rule returns a failure name)"),
    "solvers._Runs.fail": (3, ITEM11),
    "solvers.solve_spg.step": (3, ITEM11 + " (StepFailure and Stalled)"),
    "core.BoxSet.project": (1, "a stack of points in a one-dimensional box; both built-in "
                               "lifted boxes have two or more dimensions"),
    "core.as_points": (4, "coercion of outside input; the program passes float64 arrays"),
    "problems.spectral_norm_power": (1, "a zero operator, as from a draw with p = 0"),
    "diagnostics.check_polar_convexity": (1, "the verdict on a constraint that fails the "
                                             "probe; both built-in ones are affine in y"),
    "solvers.gamma_descent_check": (1, "a trace of at most one value; a recorded solve "
                                       "holds its start and every iterate"),
    "diagnostics.certify": (13, "perfbench calls it"),
    "diagnostics.transfer_constant": (2, "perfbench calls it"),
}
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SILENT = (ast.Raise, ast.Global, ast.Nonlocal)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _lines(first: int, last: int) -> range:
    return range(first, max(first, last) + 1)


def statements(path: Path) -> list:
    """``(qualified_name, lines)`` for each statement the scan checks in the
    function bodies of ``path``: the name of the innermost function that
    holds it, and its own lines."""
    found = []

    def scan(body, qual, in_function):
        for stmt in body:
            if isinstance(stmt, _FUNCS + (ast.ClassDef,)):
                if in_function:
                    first = min([d.lineno for d in stmt.decorator_list] + [stmt.lineno])
                    found.append((qual, _lines(first, stmt.body[0].lineno - 1)))
                if isinstance(stmt, ast.ClassDef) or not _dunder(stmt.name):
                    inner = f"{qual}.{stmt.name}" if qual else stmt.name
                    scan(stmt.body, inner, isinstance(stmt, _FUNCS))
            elif not in_function or isinstance(stmt, _SILENT):
                continue
            elif isinstance(stmt, ast.Expr) and stmt is body[0] and isinstance(
                getattr(stmt.value, "value", None), str
            ):
                continue  # a docstring
            elif isinstance(stmt, ast.Try):  # except bodies are exempt
                for block in (stmt.body, stmt.orelse, stmt.finalbody):
                    scan(block, qual, True)
            elif hasattr(stmt, "body"):  # if, for, while, with: the header
                found.append((qual, _lines(stmt.lineno, stmt.body[0].lineno - 1)))
                scan(stmt.body, qual, True)
                scan(getattr(stmt, "orelse", []), qual, True)
            else:
                found.append((qual, _lines(stmt.lineno, stmt.end_lineno)))

    scan(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body, "", False)
    return found


def reached_lines(run, paths) -> set:
    """``(path, line)`` for each line of the files ``paths`` that ``run()``
    executes, each path resolved; the trace function in place before is
    restored afterwards."""
    wanted = {str(p.resolve()) for p in paths}
    traced: dict = {}
    hits = set()

    def on_line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in traced:
            traced[name] = str(Path(name).resolve()) in wanted
        return on_line if traced[name] else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {(str(Path(name).resolve()), line) for name, line in hits}


def unreached(modules, reached: set, allowed=ALLOWED) -> list:
    """``module.qualified_name:line`` for each statement of ``modules`` whose
    lines ``reached`` misses, unless ``allowed`` gives its function that
    number of unreached statements; a function with another number is
    named too, and a key of ``allowed`` with none is stale."""
    missed: dict = {}
    for path in modules:
        resolved = str(path.resolve())
        for qual, lines in statements(path):
            if not any((resolved, line) in reached for line in lines):
                missed.setdefault(f"{path.stem}.{qual}", []).append(lines[0])
    found = []
    for key, lines in missed.items():
        count = allowed.get(key, (0,))[0]
        if len(lines) != count:
            found += [f"{key}:{line}" for line in lines]
            if count:
                found.append(f"ALLOWED entry {key} gives {count}, not {len(lines)}")
    return found + [f"stale ALLOWED entry {key}" for key in sorted(set(allowed) - set(missed))]


def _workload(tmp_path: Path) -> None:
    """``pfbe run`` on three configs, two of them diverging, ``pfbe sweep``
    over three and ``pfbe check``."""
    budget = {"max_iter": 200, "gda_pilot_iters": 50}
    names = list(solvers.SOLVER_NAMES)
    sweep = tmp_path / "sweep"
    sweep.mkdir()
    configs = {
        sweep / "c1.json": dict(n=4, p=4, c=1.0, solver=names,
                                gda_step_grid=[[1, 1], [5, 2], [1, 2]], **budget),
        sweep / "c0.json": dict(n=4, p=4, c=0.0, solver=["spg", "gda"], **budget),
        sweep / "example1.json": dict(problem="example1", solver=names, **budget),
        tmp_path / "run.json": dict(n=3, p=5, c=0.5, solver="subgda", **budget),
        tmp_path / "diverges.json": dict(n=4, p=4, solver=["spg", "gda"],
                                         gda_step_grid=[[9, -1]], **budget),
        # an envelope step so large that subgda diverges; grad_y f goes
        # non-finite in the steps its last block takes past the stop
        tmp_path / "subgda_diverges.json": dict(n=4, p=4, solver="subgda", eta=1000.0, **budget),
    }
    for path, config in configs.items():
        path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert cli.main(["run", "--config", str(tmp_path / "run.json"), "--out", str(out)]) == 0
    # the GDA step 90 diverges: exit 2, and the CSV holds both rows
    assert cli.main(["run", "--config", str(tmp_path / "diverges.json"), "--out", str(out)]) == 2
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [(r[0], r[7]) for r in rows] == [("spg", rows[0][7]), ("gda", "inf")]
    assert cli.main(["run", "--config", str(tmp_path / "subgda_diverges.json"),
                     "--out", str(out)]) == 2
    assert out.read_text(encoding="utf-8").splitlines()[1].split(",")[7] == "inf"
    assert cli.main(["sweep", "--config-dir", str(sweep), "--out", str(out)]) == 0
    assert cli.main(["check"]) == 0


def test_every_solve_path_statement_is_reached(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("PFBE_THREADS", raising=False)  # a serial sweep: one traced thread
    rng._jump_matrix.cache_clear()  # filled once per process, maybe by an earlier test
    reached = reached_lines(lambda: _workload(tmp_path), MODULES)
    assert unreached(MODULES, reached) == []


def test_scan_flags_an_unreached_statement_and_a_stale_entry(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def reached(a):\n"                    # 1
        "    '''A docstring.'''\n"             # 2
        "    if a > 0:\n"                      # 3
        "        a = -helper(a)\n"             # 4
        "    else:\n"                          # 5
        "        a = 2 * a\n"                  # 6: never runs
        "    if a > 100:\n"                    # 7
        "        raise ValueError(a)\n"        # 8: a raise
        "    try:\n"                           # 9
        "        a = int(a)\n"                 # 10
        "    except TypeError:\n"              # 11
        "        a = 0\n"                      # 12: an except body
        "    return Box(), a\n"                # 13
        "def helper(a):\n"
        "    return a\n"
        "def allowed():\n"
        "    return 1\n"
        "class Box:\n"
        "    def __repr__(self):\n"
        "        return 'Box'\n",
        encoding="utf-8",
    )
    spec = importlib.util.spec_from_file_location("reach_probe", mod)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    reached = reached_lines(lambda: module.reached(1), [mod])
    got = unreached([mod], reached, {"mod.allowed": (1, "a reason"), "mod.gone": (1, "a reason")})
    assert got == ["mod.reached:6", "stale ALLOWED entry mod.gone"]
