"""The package loads nothing it does not declare: numpy, click and the stdlib.
Its modules keep no leftovers: no unused import and no private name that
nothing references."""

import ast
import sys
from collections import Counter
from pathlib import Path

import ifhv
from gen import run_python

# Modules the interpreter has loaded before the import (site hooks and .pth
# files of the environment) are not the package's doing, so they are left out.
SCRIPT = """
import sys
before = set(sys.modules)
import ifhv, ifhv.cli
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_only_declared_dependencies():
    done = run_python("-c", SCRIPT)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "ifhv" in loaded and "numpy" in loaded
    assert set(loaded) - set(sys.stdlib_module_names) - {"numpy", "click", "ifhv"} == set()


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced(node: ast.AST) -> set[str]:
    """Every name `node` reads, attribute names and imported names included."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            names.update(alias.name for alias in child.names)
    return names


def leftovers(sources: dict[str, str]) -> list[str]:
    """Unused imports outside `__init__`, and module-level private names that
    no other top-level statement of the package references, in
    {module name: source text}."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    statements = [
        (name, node, _referenced(node)) for name, tree in trees.items() for node in tree.body
    ]
    readers = Counter(ref for _, _, refs in statements for ref in refs)
    found = []
    for name, tree in trees.items():
        if name == "__init__":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read:
                        found.append(f"{name}: unused import {bound}")
    for name, node, refs in statements:
        for defined in _defined(node):
            private = defined.startswith("_") and not defined.startswith("__")
            if private and readers[defined] == (defined in refs):
                found.append(f"{name}: private name {defined} is never referenced")
    return found


def test_package_has_no_leftovers():
    package = Path(ifhv.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    assert leftovers(sources) == []


def test_leftover_check_reports_a_leftover():
    sources = {
        "a": "import math\nfrom .b import used\n\ndef _left():\n    return _left()\n\nx = used",
        "b": "def used():\n    return _helper()\n\ndef _helper():\n    return 1\n",
    }
    assert leftovers(sources) == [
        "a: unused import math",
        "a: private name _left is never referenced",
    ]
