"""Every function, class, method and class field of ``src/pfbe`` has a reader
in the program.

This scans ``src/pfbe`` and ``perfbench`` (its test modules excepted). A
module-level definition is read where its name is loaded or taken as an
attribute, a method or an annotated class field where its name is taken as
an attribute; passing a field as a keyword to a constructor is not reading
it. Reads inside the definition itself, or inside a definition with no
reader, do not count, so dead code cannot keep dead code alive; importing a
name is not reading it. Exempt: dunder methods, which the interpreter calls, and ``ALLOWED``,
where ``Class.*`` names every member of a class.
A definition that only the tests read belongs in the tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "pfbe").glob("*.py"))
READERS = MODULES + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
)
# "module.qualified_name": why it stays without a reader in the program
ALLOWED = {
    "diagnostics.Certificate.*": "the record certify returns: its fields are for the caller",
}
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(path: Path, tree: ast.Module):
    """``(key, name, is_member, node)`` for each module-level function and
    class of ``path`` and each method and annotated field of those classes."""
    for node in tree.body:
        if isinstance(node, _FUNCS + (ast.ClassDef,)):
            yield f"{path.stem}.{node.name}", node.name, False, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                name = item.name if isinstance(item, _FUNCS) else None
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                if name is not None:
                    yield f"{path.stem}.{node.name}.{name}", name, True, item


def _reads(node: ast.AST, skip: set, names: Counter, attrs: Counter) -> None:
    """Count into ``names`` and ``attrs`` the names loaded and the attributes
    taken in ``node``, outside the subtrees of the nodes in ``skip``."""
    todo = [node]
    while todo:
        n = todo.pop()
        if n in skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            attrs[n.attr] += 1
        todo.extend(ast.iter_child_nodes(n))


def unread(modules, readers, allowed=ALLOWED) -> list:
    """Keys of the definitions in ``modules`` that nothing in ``readers`` reads."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in readers}
    defs = [
        d for p in modules for d in _definitions(p, trees[p])
        if d[0] not in allowed and f"{d[0].rsplit('.', 1)[0]}.*" not in allowed
        and not (d[1].startswith("__") and d[1].endswith("__"))
    ]
    dead: dict = {}
    while True:  # each pass drops the reads inside what the last one found dead
        skip = set(dead.values())
        names, attrs = Counter(), Counter()
        for tree in trees.values():
            _reads(tree, skip, names, attrs)
        now = {}
        for key, name, is_member, node in defs:
            own_names, own_attrs = Counter(), Counter()
            _reads(node, skip, own_names, own_attrs)
            count = attrs[name] - own_attrs[name]
            if not is_member:
                count += names[name] - own_names[name]
            if count <= 0:
                now[key] = node
        if now.keys() == dead.keys():
            return sorted(dead)
        dead = now


def test_every_definition_has_a_reader():
    assert unread(MODULES, READERS) == []


def test_scan_flags_definitions_only_tests_read(tmp_path):
    mod, cli = tmp_path / "mod.py", tmp_path / "cli.py"
    mod.write_text(
        "def used():\n    return Box().size() + helper()\n"
        "def helper():\n    return 1\n"
        "def dead():\n    return only_dead_reads() + dead()\n"
        "def only_dead_reads():\n    return 2\n"
        "def allowed():\n    return 3\n"
        "class Box:\n"
        "    def __init__(self):\n        self.n = 1\n"
        "    def size(self):\n        return self.n\n"
        "    def spare(self):\n        return self.spare()\n"
        "class Record:\n"
        "    width: int\n    depth: int = Record(width=1, depth=2).depth\n"
        "class Kept:\n    a: int\n    def b(self):\n        return 0\n",
        encoding="utf-8",
    )
    cli.write_text(
        "import mod\nfrom mod import dead, spare\nspare = 1\nmod.used()\n"
        "mod.Kept(a=1).b\n",
        encoding="utf-8",
    )
    got = unread([mod], [mod, cli], {"mod.allowed": "a reason", "mod.Kept.*": "a reason"})
    assert got == [
        "mod.Box.spare", "mod.Record", "mod.Record.depth", "mod.Record.width",
        "mod.dead", "mod.only_dead_reads",
    ]
