"""Each shared decision has one owning module. No package module reads an
underscore name through another module's name, and only ``threads`` names
its pool, ``threads.POOL``: the others ask ``threads.workers`` or
``threads.run``. Docstrings and comments are not code, and only
``src/ringmpc`` is scanned."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ringmpc"


def _module_aliases(tree: ast.Module) -> set[str]:
    """The names a module binds to modules: ``import x [as y]`` and
    ``from . import x [as y]``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and not node.module):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def _root(node: ast.AST) -> ast.AST:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def crossings(source: str, module: str) -> list[str]:
    """Where ``source``, the code of package module ``module``, reads an
    underscore attribute through a module's name, or names
    ``threads.POOL`` outside ``threads``."""
    tree = ast.parse(source)
    aliases = _module_aliases(tree)
    threads = {(alias.asname or alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and not node.module
               for alias in node.names if alias.name == "threads"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root = _root(node.value)
            if not isinstance(root, ast.Name) or root.id not in aliases:
                continue
            if _private(node.attr):
                found.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
            elif (module != "threads" and node.attr == "POOL"
                  and isinstance(node.value, ast.Name) and node.value.id in threads):
                found.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
        elif (isinstance(node, ast.ImportFrom) and module != "threads"
              and node.module == "threads" and any(a.name == "POOL" for a in node.names)):
            found.append(f"{module}:{node.lineno}: from .threads import POOL")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_reaches_into_another(path):
    assert crossings(path.read_text(), path.stem) == []


@pytest.mark.parametrize("source, module, count", [
    ("from . import threads\nparts = threads.POOL._max_workers\n", "ring", 2),
    ("from . import threads as t\nif t.POOL is None:\n    pass\n", "ring", 1),
    ("from .threads import POOL\n", "ring", 1),
    ("import numpy as np\nx = np.random._pcg64\n", "ring", 1),
    ('"""``threads.POOL._max_workers``"""\nfrom . import threads\nn = threads.workers()\n',
     "ring", 0),
    ("from .ring import RINGS\nx = RINGS._private\nstore._bte = None\n", "ring", 0),
    ("from . import threads\nn = threads.POOL\n", "threads", 0),
], ids=["private-through-module", "aliased-pool", "imported-pool", "any-module",
        "docstring", "not-a-module", "threads-own-pool"])
def test_the_check_sees_what_it_forbids(source, module, count):
    assert len(crossings(source, module)) == count
