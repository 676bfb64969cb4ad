"""Every setting of ``src/pfbe`` is set by some caller outside the tests.

This scans the syntax trees of ``src/pfbe`` and ``perfbench`` (its test
modules excepted) for two kinds of setting:

* each field declared on ``SolverConfig`` in ``solvers.py`` must be passed
  by keyword to ``SolverConfig(...)``, ``module.SolverConfig(...)`` or
  ``replace(...)`` somewhere;
* each defaulted parameter of a module-level function, or of a method of a
  module-level class, must be passed by keyword or by position, with a
  value whose source text differs from the default's, by some call of that
  name, ``name(...)`` or ``obj.name(...)``. The parameters of ``__init__``
  count under the class name, and ``ALLOWED`` names the exceptions.

A setting that only tests set is a knob no run of the program can turn; it
belongs in a module constant.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pfbe"
MODULES = sorted(SRC.glob("*.py"))
CALLERS = MODULES + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
)
CONFIG = "SolverConfig"
# "module.qualified_name(parameter)": why no caller needs to set it
ALLOWED: dict = {}
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _callee(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _fields(solvers: Path) -> set:
    """The annotated fields of the ``CONFIG`` class in ``solvers``."""
    for node in _parse(solvers).body:
        if isinstance(node, ast.ClassDef) and node.name == CONFIG:
            return {
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            }
    raise AssertionError(f"no class {CONFIG} in {solvers}")


def _set_by_keyword(path: Path) -> set:
    """The keywords ``path`` passes to ``CONFIG(...)`` or ``replace(...)``."""
    names = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Call) and _callee(node) in (CONFIG, "replace"):
            names |= {kw.arg for kw in node.keywords if kw.arg is not None}
    return names


def never_set(solvers: Path, callers) -> list:
    used = set().union(*(_set_by_keyword(p) for p in callers))
    return sorted(_fields(solvers) - used)


def _defaulted(path: Path):
    """``(key, callee, positional, defaults)`` for each module-level function
    of ``path`` and each method of its module-level classes: the name calls
    use, the parameters a call fills by position, and the source text of
    each default by parameter name."""
    for node in _parse(path).body:
        owner = node if isinstance(node, ast.ClassDef) else None
        for fn in owner.body if owner else [node]:
            if not isinstance(fn, _FUNCS):
                continue
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaults = dict(zip(positional[len(positional) - len(args.defaults):],
                                map(ast.unparse, args.defaults)))
            defaults.update(
                (a.arg, ast.unparse(d)) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            )
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            if owner and not static:
                positional = positional[1:]  # self or cls
            key = f"{path.stem}.{owner.name}.{fn.name}" if owner else f"{path.stem}.{fn.name}"
            callee = owner.name if owner and fn.name == "__init__" else fn.name
            yield key, callee, positional, defaults


def _passed(call: ast.Call, positional: list, param: str) -> list:
    """Source text of each value ``call`` passes to ``param``."""
    values = [kw.value for kw in call.keywords if kw.arg == param]
    if param in positional:
        i = positional.index(param)
        if i < len(call.args) and not any(isinstance(a, ast.Starred) for a in call.args[:i + 1]):
            values.append(call.args[i])
    return [ast.unparse(v) for v in values]


def defaults_never_set(modules, callers, allowed=ALLOWED) -> list:
    """``module.qualified_name(parameter)`` for each defaulted parameter in
    ``modules`` that no call in ``callers`` sets to another value."""
    calls = defaultdict(list)
    for path in callers:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                calls[_callee(node)].append(node)
    unset = []
    for path in modules:
        for key, callee, positional, defaults in _defaulted(path):
            for param, default in defaults.items():
                name = f"{key}({param})"
                if name in allowed:
                    continue
                if not any(value != default for call in calls[callee]
                           for value in _passed(call, positional, param)):
                    unset.append(name)
    return sorted(unset)


def test_every_solver_config_field_is_set_by_a_caller():
    assert never_set(SRC / "solvers.py", CALLERS) == []


def test_every_defaulted_parameter_is_set_by_a_caller():
    assert defaults_never_set(MODULES, CALLERS) == []


def test_scan_flags_a_field_only_tests_set(tmp_path):
    solvers = tmp_path / "solvers.py"
    solvers.write_text(
        "from dataclasses import dataclass, replace\n"
        "@dataclass\n"
        "class SolverConfig:\n"
        "    max_iter: int = 10\n"
        "    gtol: float = 1e-7\n"
        "    step_min: float = 1e-10\n"
        "    LIMIT = 3\n"
        "def pilot(scfg):\n"
        "    return replace(scfg, gtol=1e-3)\n",
        encoding="utf-8",
    )
    cli = tmp_path / "cli.py"
    cli.write_text(
        "from . import solvers\n"
        "scfg = solvers.SolverConfig(max_iter=5)\n"
        "other = dict(step_min=1.0)\n",
        encoding="utf-8",
    )
    assert never_set(solvers, [solvers, cli]) == ["step_min"]


def test_scan_flags_a_default_only_tests_set(tmp_path):
    mod, cli = tmp_path / "mod.py", tmp_path / "cli.py"
    mod.write_text(
        "def by_keyword(x, tol=1e-6, h=None):\n    return x\n"
        "def by_position(x, n=5, *, quiet=False):\n    return x\n"
        "def allowed(x, seed=0):\n    return x\n"
        "class Box:\n"
        "    def __init__(self, lo, hi=1.0, name=''):\n        self.lo = lo\n"
        "    def grow(self, by=2.0):\n        return Box(self.lo, by, name='big')\n",
        encoding="utf-8",
    )
    cli.write_text(
        "import mod\n"
        "mod.by_keyword(1.0, tol=1e-3)\n"
        "mod.by_keyword(1.0, 1e-6, None)\n"  # only the defaults
        "mod.by_position(1.0, 7)\n"
        "args = [1.0, 9]\n"
        "mod.by_position(*args, quiet=False)\n"
        "Box(0.0).grow(by=2.0)\n",
        encoding="utf-8",
    )
    got = defaults_never_set([mod], [mod, cli], {"mod.allowed(seed)": "a reason"})
    assert got == [
        "mod.Box.grow(by)", "mod.by_keyword(h)", "mod.by_position(quiet)",
    ]
