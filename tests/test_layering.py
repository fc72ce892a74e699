"""The store owns every share file.

The auditor proves secrecy from the code's matrices alone: ``audit.py``
imports nothing from ``store``, and the CLI combines the audit report
with the store's check of a cluster.  Inside the store every share
leaves the disk through ``Cluster.read``, so ``read_share``, which runs
every check a share must pass, is named nowhere else in the package.
"""

import ast
from pathlib import Path

import weavesafe

SRC = Path(weavesafe.__file__).resolve().parent


def store_imports(tree) -> list:
    """Line of each import in tree that reaches the store module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "store" or any(a.name == "store" for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name.split(".")[-1] == "store" for a in node.names):
            lines.append(node.lineno)
    return lines


def users_of(src: Path, name: str) -> list:
    """module:qualname of each scope in src that names ``name`` other than
    by defining it: a call, a reference or an import."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if (
                isinstance(child, ast.Name) and child.id == name
                or isinstance(child, ast.Attribute) and child.attr == name
                or isinstance(child, ast.alias) and name in (child.name, child.asname)
            ):
                found.add(f"{module}:{'.'.join(scope) or '<module>'}")
            visit(child, module, scope)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.name, [])
    return sorted(found)


def test_audit_imports_nothing_from_the_store():
    assert store_imports(ast.parse((SRC / "audit.py").read_text())) == []


def test_guard_reports_every_form_of_store_import():
    tree = ast.parse(
        "from .store import Cluster\n"
        "from . import store\n"
        "import weavesafe.store as s\n"
        "from weavesafe.store import read_share\n"
        "from .pm_mbr import encode_bulk\n"
        "import json\n"
    )
    assert store_imports(tree) == [1, 2, 3, 4]


def test_only_cluster_read_reads_a_share():
    assert users_of(SRC, "read_share") == ["store.py:Cluster.read"]


def test_guard_reports_each_reader_of_a_name(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from .store import read_share\n\n\n"
        "def read_share(path):\n    return path\n\n\n"
        "class Cluster:\n"
        "    def read(self, e):\n        return read_share(e)\n\n"
        "    def alias(self):\n        f = store.read_share\n        return f\n\n\n"
        "def other(path):\n    return open(path).read()\n"
    )
    assert users_of(tmp_path, "read_share") == ["mod.py:<module>", "mod.py:Cluster.alias", "mod.py:Cluster.read"]
