"""Every ``SolverConfig`` field is set by some caller outside the tests.

This scans the syntax trees of ``src/pfbe`` and ``perfbench`` (its test
modules excepted): each field declared on ``SolverConfig`` in
``solvers.py`` must be passed by keyword to ``SolverConfig(...)``,
``module.SolverConfig(...)`` or ``replace(...)`` somewhere. A field that
only tests set is a knob no run of the program can turn; it belongs in a
module constant.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pfbe"
CALLERS = sorted(SRC.glob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
)
CONFIG = "SolverConfig"


def _fields(solvers: Path) -> set:
    """The annotated fields of the ``CONFIG`` class in ``solvers``."""
    tree = ast.parse(solvers.read_text(encoding="utf-8"), filename=str(solvers))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == CONFIG:
            return {
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            }
    raise AssertionError(f"no class {CONFIG} in {solvers}")


def _set_by_keyword(path: Path) -> set:
    """The keywords ``path`` passes to ``CONFIG(...)`` or ``replace(...)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in (CONFIG, "replace"):
            names |= {kw.arg for kw in node.keywords if kw.arg is not None}
    return names


def never_set(solvers: Path, callers) -> list:
    used = set().union(*(_set_by_keyword(p) for p in callers))
    return sorted(_fields(solvers) - used)


def test_every_solver_config_field_is_set_by_a_caller():
    assert never_set(SRC / "solvers.py", CALLERS) == []


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
