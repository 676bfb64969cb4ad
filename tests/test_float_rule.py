"""numpy's floating-point warnings are set in one place.

``core.quiet_floats``, one ``np.errstate``, is the package's only
floating-point rule: the solver loop, the diagnostics and the probe take it
as a decorator. This scans the syntax tree of each ``src/pfbe/*.py`` module
for any other ``errstate`` or ``seterr`` call, and for a ``with`` of the
rule, which numpy refuses to enter twice; and that of ``diagnostics.py``
for a public function that the rule does not decorate, but those
``OUTSIDE_THE_RULE`` names.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from pfbe import core

SRC = Path(__file__).resolve().parents[1] / "src" / "pfbe"
MODULES = sorted(SRC.glob("*.py"))
RULE_MODULE, RULE = "core.py", "quiet_floats"
# public functions of diagnostics.py that need no rule, and why
OUTSIDE_THE_RULE = {"transfer_constant": "arithmetic on two floats; calls no callable"}


def _name(node) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def float_rules(path: Path) -> list:
    """Lines of the module's ``errstate`` and ``seterr`` calls, but the
    rule's definition, and of its ``with`` statements that enter the rule."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    definition = {id(node.value) for node in tree.body
                  if path.name == RULE_MODULE and isinstance(node, ast.Assign)
                  and [_name(t) for t in node.targets] == [RULE]}
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _name(node.func) in ("errstate", "seterr")
             and id(node) not in definition]
    lines += [node.lineno for node in ast.walk(tree) if isinstance(node, ast.With)
              and any(_name(item.context_expr) == RULE for item in node.items)]
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point_rule_but_the_one(path):
    assert float_rules(path) == []


def outside_the_rule(path: Path) -> list:
    """The public module-level functions of ``path`` that the rule does not
    decorate."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and RULE not in map(_name, node.decorator_list)]


def test_every_public_diagnostic_runs_under_the_rule():
    assert sorted(outside_the_rule(SRC / "diagnostics.py")) == sorted(OUTSIDE_THE_RULE)


def test_scan_flags_an_undecorated_public_function(tmp_path):
    mod = tmp_path / "diagnostics.py"
    mod.write_text(
        "from .core import quiet_floats\n"
        "import numpy as np\n"
        "@quiet_floats\n"
        "def ruled(x):\n"
        "    return x\n"
        "@np.errstate(all='ignore')\n"
        "def other_rule(x):\n"
        "    return x\n"
        "def bare(x):\n"
        "    return x\n"
        "def _private(x):\n"
        "    return x\n",
        encoding="utf-8",
    )
    assert outside_the_rule(mod) == ["other_rule", "bare"]


def test_the_rule_silences_overflow_invalid_and_divide():
    assert isinstance(core.quiet_floats, np.errstate)

    @core.quiet_floats
    def inf_minus_inf():
        return np.float64(np.inf) - np.float64(np.inf), np.float64(1e308) * 10, np.divide(1.0, 0.0)

    got = inf_minus_inf()
    assert np.isnan(got[0]) and got[1] == got[2] == np.inf


def test_scan_flags_every_other_rule(tmp_path):
    mod = tmp_path / "core.py"
    mod.write_text(
        "import numpy as np\n"
        "from numpy import errstate\n"
        "quiet_floats = np.errstate(over='ignore')\n"
        "other = np.errstate(all='ignore')\n"
        "@np.errstate(invalid='ignore')\n"
        "def f():\n"
        "    with np.errstate(over='ignore'):\n"
        "        pass\n"
        "    with quiet_floats:\n"
        "        pass\n"
        "    np.seterr(all='ignore')\n"
        "    return errstate(divide='ignore')\n",
        encoding="utf-8",
    )
    assert float_rules(mod) == [4, 5, 7, 9, 11, 12]
