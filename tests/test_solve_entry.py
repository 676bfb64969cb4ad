"""No function but ``solvers.solve`` selects a GDA step and then solves at it.

This scans the syntax trees of the callers that ``test_knobs`` scans,
``src/pfbe`` and ``perfbench`` (its test modules excepted), for each
function whose own body calls both ``select_gda_step`` and
``solve_gda_baseline``, by name or as ``module.name``; a call in a nested
function counts for that function alone. ``ALLOWED`` names the
exceptions, as ``module.qualified_name`` (nested names joined by dots),
with why each stays; an entry that names no such function is stale and
fails the scan too.

A second copy of "select a step, then solve at it" is a second path for a
named solve, which the solve entry point exists to replace.
"""

import ast
from pathlib import Path

from test_knobs import CALLERS

PAIR = {"select_gda_step", "solve_gda_baseline"}
ENTRY = "solvers.solve"
# "module.qualified_name": why it keeps its own copy
ALLOWED = {"harness._solve": "ROADMAP item 24, benchmark half"}
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _callees(fn) -> set:
    """The names that the body of ``fn`` calls, outside its nested
    functions and classes."""
    names, stack = set(), list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCS + (ast.ClassDef,)):
            continue
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
        stack.extend(ast.iter_child_nodes(node))
    return names


def _functions(node, prefix: str):
    """``(qualified name, node)`` of each function under ``node``, nested
    ones and methods included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _FUNCS + (ast.ClassDef,)):
            qual = f"{prefix}.{child.name}"
            if isinstance(child, _FUNCS):
                yield qual, child
            yield from _functions(child, qual)
        else:
            yield from _functions(child, prefix)


def selecting(paths) -> set:
    """The qualified names of the functions of ``paths`` that call both of ``PAIR``."""
    return {
        qual
        for path in paths
        for qual, fn in _functions(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        if PAIR <= _callees(fn)
    }


def copies(paths, allowed=ALLOWED) -> list:
    """Each function of ``paths`` but ``ENTRY`` that calls both of ``PAIR``,
    unless ``allowed`` names it, then each stale key of ``allowed``."""
    found = selecting(paths) - {ENTRY}
    return sorted(found - set(allowed)) + [
        f"stale ALLOWED entry {key}" for key in sorted(set(allowed) - found)
    ]


def test_only_the_entry_point_selects_a_gda_step_and_solves_at_it():
    assert copies(CALLERS) == []
    assert ENTRY in selecting(CALLERS)  # the scan sees the one copy it keeps


def test_scan_flags_a_copy_and_a_stale_entry(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from dataclasses import replace\n"
        "from pfbe import solvers\n"
        "from pfbe.solvers import select_gda_step, solve_gda_baseline\n"
        "def tuned(prob, cfg, scfg, z0, y0):\n"
        "    step, _ = solvers.select_gda_step(prob, cfg, scfg, z0, y0)\n"
        "    return solve_gda_baseline(prob, cfg, replace(scfg, eta_x=step), z0, y0)\n"
        "def kept(*args):\n"
        "    return solvers.solve_gda_baseline(*args[:3], select_gda_step(*args)[0])\n"
        "def selects_only(*args):\n"
        "    return select_gda_step(*args)\n"
        "class Runner:\n"
        "    def split(self, *args):\n"
        "        def pick():\n"
        "            return select_gda_step(*args)\n"
        "        return solve_gda_baseline(*args, pick())\n"
        "    def both(self, *args):\n"
        "        if args:\n"
        "            select_gda_step(*args)\n"
        "        return [solve_gda_baseline(*args)]\n",
        encoding="utf-8",
    )
    got = copies([mod], {"mod.kept": "a reason", "mod.gone": "a reason"})
    assert got == ["mod.Runner.both", "mod.tuned", "stale ALLOWED entry mod.gone"]
