"""Every error class the package declares is raised by the package.

This scans the syntax trees of ``src/pfbe``: each ``PfbeError`` subclass
defined in ``core.py`` must appear in some ``raise`` statement of a
package module, as ``raise Name(...)``, ``raise Name`` or
``raise module.Name(...)``. A class that nothing raises promises callers
an ``except`` branch that can never run.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pfbe"
BASE = "PfbeError"


def _error_classes(core: Path) -> set:
    """The names of the classes in ``core`` that derive from ``BASE``."""
    tree = ast.parse(core.read_text(encoding="utf-8"), filename=str(core))
    bases = {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    errors, grown = {BASE}, True
    while grown:
        new = {name for name, parents in bases.items() if parents & errors} - errors
        errors |= new
        grown = bool(new)
    return errors - {BASE}


def _raised(path: Path) -> set:
    """The names that the ``raise`` statements of ``path`` raise."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def never_raised(src: Path) -> list:
    raised = set().union(*(_raised(p) for p in src.glob("*.py")))
    return sorted(_error_classes(src / "core.py") - raised)


def test_every_error_class_is_raised():
    assert never_raised(SRC) == []


def test_scan_flags_an_error_class_never_raised(tmp_path):
    (tmp_path / "core.py").write_text(
        "class PfbeError(Exception): pass\n"
        "class Raised(PfbeError): pass\n"
        "class Derived(Raised): pass\n"
        "class Unused(PfbeError): pass\n"
        "class Other(Exception): pass\n"
        "def f():\n"
        "    raise Raised('x')\n",
        encoding="utf-8",
    )
    (tmp_path / "mod.py").write_text(
        "from . import core\n"
        "def g():\n"
        "    raise core.Derived\n",
        encoding="utf-8",
    )
    assert never_raised(tmp_path) == ["Unused"]
