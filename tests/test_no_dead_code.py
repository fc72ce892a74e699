"""Every definition in the package has a caller in the package, and every
attribute it stores is read.

Module-level functions and classes, and the non-dunder methods and
properties of classes, must be referenced by name somewhere in
``src/weavesafe`` outside their own body, or be exported in
``weavesafe.__all__``.  The annotated fields of a class body and the
``self.X = ...`` assignments in its methods must be read as an attribute
(``.X`` in a load) somewhere in ``src/weavesafe`` or ``tests/``.  Every
named parameter of a function, method or lambda must be read in its body
(``self``, ``cls`` and the parameters of dunder methods are exempt).  No
module reads an environment variable: options are command-line flags and
function arguments, stated once.  Names are
matched without resolving what they refer to, so two definitions sharing
a name can hide each other, but a definition that is used is never
reported.
"""

import ast
from collections import Counter
from pathlib import Path

import weavesafe

SRC = Path(weavesafe.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def parse(directory: Path) -> dict:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(directory.glob("*.py"))}


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
    trees = parse(src)
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


def stored_attributes(tree):
    """(qualified name, attribute) for the annotated fields of each class
    body and the ``self.X = ...`` assignments in each class's methods."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                yield f"{node.name}.{member.target.id}", member.target.id
            elif isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(member):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    ):
                        yield f"{node.name}.{sub.attr}", sub.attr


def unread(src: Path, readers) -> list:
    """Attributes stored in src that no module in src or readers loads."""
    trees = parse(src)
    loaded = list(trees.values()) + [tree for d in readers for tree in parse(d).values()]
    read = {
        sub.attr
        for tree in loaded
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    return sorted(
        {
            f"{module}:{qualname}"
            for module, tree in trees.items()
            for qualname, attr in stored_attributes(tree)
            if attr not in read
        }
    )


def unused_parameters(src: Path) -> list:
    """(module:function, parameter) for each named parameter in src that
    its function's body never loads."""
    unused = []
    for module, tree in parse(src).items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if name.startswith("__") and name.endswith("__"):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            loaded = {
                sub.id
                for stmt in body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            unused += [(f"{module}:{name}", p) for p in params if p not in loaded | {"self", "cls"}]
    return unused


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


def test_every_stored_attribute_is_read():
    assert unread(SRC, [TESTS]) == []


def test_guard_reports_an_attribute_never_read(tmp_path):
    src, readers = tmp_path / "src", tmp_path / "tests"
    src.mkdir()
    readers.mkdir()
    (src / "mod.py").write_text(
        "class Box:\n"
        "    kept: int\n    idle: int\n\n"
        "    def __init__(self):\n"
        "        self.v, self.w = 1, 2\n        self.count = 0\n\n"
        "    def bump(self):\n        self.count += 1\n        self.w = 3\n        return self.v\n\n\n"
        "def peek(box):\n    return box.kept\n"
    )
    (readers / "test_mod.py").write_text("def test_w(box):\n    assert box.w == 2\n")
    assert unread(src, [readers]) == ["mod.py:Box.count", "mod.py:Box.idle"]
    assert unread(src, []) == ["mod.py:Box.count", "mod.py:Box.idle", "mod.py:Box.w"]


def test_every_parameter_is_read():
    assert unused_parameters(SRC) == []


def test_guard_reports_a_parameter_never_read(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def scale(field, k, *rest, flag=False, **extra):\n"
        "    return [k * 2 for _ in rest] if extra else k\n\n\n"
        "class Box:\n"
        "    def __init__(self, idle):\n        self.v = 1\n\n"
        "    def get(self, key, default=None):\n        return key\n\n"
        "    @classmethod\n    def make(cls, width):\n        return cls()\n\n\n"
        "pick = lambda a, b: a\n"
        "keep = lambda a: [a for _ in ()]\n"
    )
    assert unused_parameters(tmp_path) == [
        ("mod.py:scale", "field"),
        ("mod.py:scale", "flag"),
        ("mod.py:get", "default"),
        ("mod.py:make", "width"),
        ("mod.py:<lambda>", "b"),
    ]


_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(src: Path) -> list:
    """module:line of each use of os.environ, os.getenv or their bytes
    forms in src, whether reached as an attribute or imported by name."""
    found = {
        (module, node.lineno)
        for module, tree in parse(src).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES
        or isinstance(node, ast.Name) and node.id in _ENV_NAMES
        or isinstance(node, ast.ImportFrom) and any(a.name in _ENV_NAMES for a in node.names)
    }
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_no_environment_variable_is_read():
    assert environment_reads(SRC) == []


def test_guard_reports_an_environment_read(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import os\n"
        "from os import getenv\n\n\n"
        "def cap():\n"
        "    return os.environ.get('CAP') or os.getenv('CAP') or getenv('CAP')\n\n\n"
        "def path():\n    return os.path.join('a', 'b')\n"
    )
    assert environment_reads(tmp_path) == ["mod.py:2", "mod.py:6"]
