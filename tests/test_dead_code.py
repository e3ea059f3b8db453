"""Private code that nothing runs: every `_`-prefixed function, method,
class or module-level name defined in `src/tdmlink` must be used by name
somewhere else in `src/`. Tests do not count as a use."""

import ast
from collections import Counter
from pathlib import Path

import tdmlink

SOURCES = sorted(Path(tdmlink.__file__).parent.glob("*.py"))


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def definitions(tree: ast.Module):
    """(name, line) of each private def or class at any depth, and of each
    private name a module-level statement assigns."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and private(node.name):
            yield node.name, node.lineno
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and private(name.id):
                    yield name.id, node.lineno


def uses(tree: ast.Module):
    """Every name read or imported, and every attribute named, in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_definition_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    used = Counter(name for tree in trees.values() for name in uses(tree))
    unused = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in definitions(tree)
        if not used[name]
    ]
    assert unused == []


def test_guard_sees_an_unused_definition():
    tree = ast.parse("def _orphan():\n    pass\n\n_TABLE = 1\n\ndef used():\n    return _TABLE\n")
    assert [name for name, _ in definitions(tree)] == ["_orphan", "_TABLE"]
    assert set(uses(tree)) == {"_TABLE"}
