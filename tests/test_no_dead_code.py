"""Every definition in the package has a caller in the package.

Module-level functions and classes, and the non-dunder methods and
properties of classes, must be referenced by name somewhere in
``src/weavesafe`` outside their own body, or be exported in
``weavesafe.__all__``.  Names are matched without resolving what they
refer to, so two definitions sharing a name can hide each other, but a
definition that is used is never reported.
"""

import ast
from collections import Counter
from pathlib import Path

import weavesafe

SRC = Path(weavesafe.__file__).resolve().parent


def referenced_names(node) -> Counter:
    """Names and attribute names used anywhere under an AST node."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def definitions(tree):
    """(qualified name, node) for module-level functions and classes and
    for the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (member.name.startswith("__") and member.name.endswith("__")):
                        yield f"{node.name}.{member.name}", member


def unreferenced(src: Path, exported) -> list:
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    used = Counter()
    for tree in trees.values():
        used += referenced_names(tree)
    dead = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            if node.name in exported:
                continue
            if used[node.name] - referenced_names(node)[node.name] <= 0:
                dead.append(f"{module}:{qualname}")
    return dead


def test_every_definition_has_a_caller_in_src():
    assert unreferenced(SRC, set(weavesafe.__all__)) == []


def test_guard_reports_a_definition_used_only_by_itself(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def live():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def loop(n):\n    return loop(n - 1) if n else 0\n\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.v = live()\n\n"
        "    def used(self):\n        return self.v\n\n"
        "    def unused(self):\n        return self.used()\n\n"
        "    @property\n    def idle(self):\n        return 0\n"
    )
    assert unreferenced(tmp_path, {"Box", "live"}) == [
        "mod.py:loop",
        "mod.py:Box.unused",
        "mod.py:Box.idle",
    ]
