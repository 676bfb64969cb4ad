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
  count under the class name. A defaulted field of a dataclass or a
  ``NamedTuple`` is a parameter of its class too, and ``replace(obj,
  field=...)`` also sets it. ``ALLOWED`` names the exceptions; an entry
  that matches no such setting is stale and fails the scan too.

A setting that only tests set is a knob no run of the program can turn; it
belongs in a module constant.
"""

import ast
from collections import defaultdict
from fnmatch import fnmatchcase
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pfbe"
MODULES = sorted(SRC.glob("*.py"))
CALLERS = MODULES + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
)
CONFIG = "SolverConfig"
# "module.qualified_name(parameter)" or "module.Class.field", or a
# pattern of them: why no caller needs to set it
MODEL = "the paper's model; tests exercise them"
ALLOWED = {
    "cli.RunConfig.*": "from_dict sets each key a JSON config gives",
    "core.MinimaxProblem.r2": MODEL,
    "core.CoupledProblem.r1": MODEL,
}
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


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass or a ``NamedTuple``: a class whose fields are parameters."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    names = {getattr(n, "id", getattr(n, "attr", None)) for n in decorators + cls.bases}
    return bool(names & {"dataclass", "NamedTuple"})


def _record_fields(cls: ast.ClassDef):
    """The fields of a record class in order, and the source text of each
    default by field name."""
    fields = [item for item in cls.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and "ClassVar" not in ast.unparse(item.annotation)]
    return ([f.target.id for f in fields],
            {f.target.id: ast.unparse(f.value) for f in fields if f.value is not None})


def _defaulted(path: Path):
    """``(name, callee, positional, defaults)`` for each module-level function
    of ``path``, each method of its module-level classes and each record
    class: the name format of a parameter, the name calls use, the
    parameters a call fills by position, and the source text of each
    default by parameter name."""
    for node in _parse(path).body:
        owner = node if isinstance(node, ast.ClassDef) else None
        if owner and _is_record(owner):
            yield (f"{path.stem}.{owner.name}.{{}}", owner.name) + _record_fields(owner)
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
            yield key + "({})", callee, positional, defaults


def _passed(call: ast.Call, positional: list, param: str) -> list:
    """Source text of each value ``call`` passes to ``param``."""
    values = [kw.value for kw in call.keywords if kw.arg == param]
    if param in positional:
        i = positional.index(param)
        if i < len(call.args) and not any(isinstance(a, ast.Starred) for a in call.args[:i + 1]):
            values.append(call.args[i])
    return [ast.unparse(v) for v in values]


def defaults_never_set(modules, callers, allowed=ALLOWED) -> list:
    """``module.qualified_name(parameter)`` for each defaulted parameter, and
    ``module.Class.field`` for each defaulted record field, in ``modules``
    that no call in ``callers`` sets to another value; then a line for each
    key of ``allowed`` that matches none of those settings."""
    calls = defaultdict(list)
    for path in callers:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                calls[_callee(node)].append(node)
    unset, matched = [], set()
    for path in modules:
        for name_format, callee, positional, defaults in _defaulted(path):
            # replace(obj, field=...) sets a field by keyword only
            setters = [(call, positional) for call in calls[callee]]
            if not name_format.endswith(")"):
                setters += [(call, []) for call in calls["replace"]]
            for param, default in defaults.items():
                name = name_format.format(param)
                hits = {pattern for pattern in allowed if fnmatchcase(name, pattern)}
                if hits:
                    matched |= hits
                    continue
                if not any(value != default for call, fill in setters
                           for value in _passed(call, fill, param)):
                    unset.append(name)
    return sorted(unset) + [f"stale ALLOWED entry {key}" for key in sorted(set(allowed) - matched)]


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


def test_scan_flags_a_record_field_only_tests_set(tmp_path):
    mod, cli = tmp_path / "mod.py", tmp_path / "cli.py"
    mod.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar, NamedTuple\n"
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    size: int\n"
        "    tol: float = 1e-6\n"
        "    scale: float = 1.0\n"
        "    tags: list = field(default_factory=list)\n"
        "    LIMIT: ClassVar[int] = 3\n"
        "    def with_tol(self, tol=1e-3):\n"
        "        return dataclasses.replace(self, tol=tol)\n"
        "@dataclasses.dataclass\n"
        "class Run:\n"
        "    seed: int = 0\n"
        "    out: str = 'a.csv'\n"
        "class Row(NamedTuple):\n"
        "    x: float\n"
        "    note: str = ''\n"
        "    flag: bool = False\n"
        "class Plain:\n"
        "    level: int = 4\n",
        encoding="utf-8",
    )
    cli.write_text(
        "import mod\n"
        "mod.Config(3, 1e-6, 2.0)\n"  # by position; tol only to its default
        "mod.Config(3).with_tol(tol=1e-2)\n"
        "mod.Row(1.0, flag=True)\n"
        "mod.Run(seed=0)\n",
        encoding="utf-8",
    )
    got = defaults_never_set([mod], [mod, cli], {"mod.Run.*": "a reason"})
    assert got == ["mod.Config.tags", "mod.Row.note"]


def test_scan_flags_a_stale_allowed_entry(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from dataclasses import dataclass\n"
        "def solve(x, tol=1e-6):\n    return x\n"
        "@dataclass\n"
        "class Oracle:\n"
        "    grad: object\n"  # required: not a setting
        "    stacks: bool = False\n",
        encoding="utf-8",
    )
    allowed = {
        "mod.solve(tol)": "a reason",
        "mod.Oracle.stacks": "a reason",
        "mod.Oracle.grad": "no longer defaulted",
        "mod.gone(*)": "a function that went",
        "mod.Oracle.s*": "a pattern that matches",
    }
    got = defaults_never_set([mod], [mod], allowed)
    assert got == ["stale ALLOWED entry mod.Oracle.grad", "stale ALLOWED entry mod.gone(*)"]
