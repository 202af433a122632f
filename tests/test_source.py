"""Rules the package source keeps: checks raise real errors (the types in
`gasketbvp.errors`), never `assert`, which `python -O` strips; and nothing
is kept that nothing reads: every attribute set on `self` is read
somewhere, and every private top-level name is used beyond its
definition."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gasketbvp"
SOURCES = sorted(SRC.glob("*.py"))
TREES = {path: ast.parse(path.read_text(), filename=str(path))
         for path in SOURCES + sorted((ROOT / "tests").glob("*.py"))}


def names_read(node):
    """Every name and attribute loaded anywhere under node."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node)
               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert(path):
    lines = [node.lineno for node in ast.walk(TREES[path]) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def test_every_self_attribute_is_read():
    read = set().union(*map(names_read, TREES.values()))
    unread = sorted(
        f"{path.name}:{node.lineno} self.{target.attr}"
        for path in SOURCES for node in ast.walk(TREES[path])
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
        and target.value.id == "self" and target.attr not in read
    )
    assert unread == []


def test_every_private_name_is_used():
    # a top-level statement's own reads do not count for the names it defines
    tops = [(path, node) for path, tree in TREES.items() for node in tree.body]
    unused = []
    for path, node in tops:
        if path not in SOURCES:
            continue
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, ast.Assign):
            defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in defined:
            if name.startswith("_") and not name.startswith("__") and not any(
                name in names_read(other) for _, other in tops if other is not node
            ):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
