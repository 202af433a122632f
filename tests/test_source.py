"""Rules the package source keeps: checks raise real errors (the types in
`gasketbvp.errors`), never `assert`, which `python -O` strips; nothing is
kept that nothing reads: every attribute set on `self` is read somewhere,
every private top-level name is used beyond its definition, and every
public one by the package, the demos, the bench or the acceptance tests;
and start-up loads only what a command runs: no `dataclasses` (with its
`inspect`, `ast`, `dis` and `tokenize`), numpy and the oracle only when a
graph is built or `compare` runs, and no exact solve."""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gasketbvp"
SOURCES = sorted(SRC.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# what outside the package may use a public name: the demos, the bench (its
# tracing names functions in strings) and the acceptance tests
USERS = [*sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
         ROOT / "tests" / "test_acceptance.py"]
TREES = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES + TESTS + USERS}
# paper formulas and diagnostics that only the other tests use
TESTED_ONLY = {
    "antisymmetric_values", "atom_point", "constant_data", "closed_form_zero_matrix",
    "closed_form_ones_matrix", "constant_lower", "normal_derivatives_lower",
    "normal_derivative_q0", "empirical_generator_ratios", "matching_residuals",
}


@functools.lru_cache(maxsize=None)
def names_read(node):
    """Every name and attribute loaded anywhere under node (cached: the
    name rules ask it of every top-level statement once per name)."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node)
               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert(path):
    lines = [node.lineno for node in ast.walk(TREES[path]) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def test_every_self_attribute_is_read():
    read = set().union(*(names_read(TREES[path]) for path in SOURCES + TESTS))
    unread = sorted(
        f"{path.name}:{node.lineno} self.{target.attr}"
        for path in SOURCES for node in ast.walk(TREES[path])
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
        and target.value.id == "self" and target.attr not in read
    )
    assert unread == []


def top_level_names():
    """(path, node, name) for every name a top-level def, class or
    assignment of the package defines."""
    for path in SOURCES:
        for node in TREES[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node, node.name
            elif isinstance(node, ast.Assign):
                yield from ((path, node, t.id) for t in node.targets if isinstance(t, ast.Name))


def used_in(paths, name, node):
    # a top-level statement's own reads do not count for the names it defines
    return any(name in names_read(other) for path in paths for other in TREES[path].body
               if other is not node)


def test_every_private_name_is_used():
    unused = [f"{path.name}:{node.lineno} {name}" for path, node, name in top_level_names()
              if name.startswith("_") and not name.startswith("__")
              and not used_in(SOURCES + TESTS, name, node)]
    assert unused == []


def test_every_public_name_is_used():
    outside = set().union(*(names_read(TREES[path]) for path in USERS))
    outside |= {part for path in USERS for n in ast.walk(TREES[path])
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
                for part in n.value.split(".")}
    unused = {name for _, node, name in top_level_names()
              if not name.startswith("_") and name not in outside
              and not used_in(SOURCES, name, node)}
    assert unused - TESTED_ONLY == set(), "used by no package, demo, bench or acceptance code"
    assert TESTED_ONLY - unused == set(), "listed as tested only, but used or gone"


def test_no_dataclasses():
    importers = [path.name for path in SOURCES for node in ast.walk(TREES[path])
                 if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
                 or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert importers == []


# what importing a module must not load
UNLOADED = {
    "gasketbvp.cli": ["dataclasses", "inspect", "heapq", "numpy", "gasketbvp.oracle"],
    "gasketbvp.oracle": ["dataclasses", "numpy"],
}


def run_fresh(script):
    """stdout of script in a fresh interpreter that imports the package
    from src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("module", UNLOADED)
def test_start_up_loads_only_what_commands_run(module):
    # a fresh interpreter, and only the modules the import adds: what the
    # interpreter's own start loads does not count
    script = ("import sys; before = set(sys.modules); import " + module
              + "; print(' '.join(sorted(set(sys.modules) - before)))")
    loaded = run_fresh(script).split()
    assert module in loaded
    assert [name for name in UNLOADED[module] if name in loaded] == []


def test_start_up_runs_no_exact_solve():
    # upperdomain.RATIO, r^-1 of SG_3, is an exact solve on Gamma_1 made on
    # its first read, not at import; the profile hook sees that read's solve
    script = (
        "import sys\n"
        "calls = []\n"
        "def watch(frame, event, arg):\n"
        "    code = frame.f_code\n"
        "    if event == 'call' and code.co_name == 'solve' and code.co_filename.endswith('_exact.py'):\n"
        "        calls.append(code)\n"
        "sys.setprofile(watch)\n"
        "import gasketbvp.cli\n"
        "at_import = len(calls)\n"
        "ratio = gasketbvp.cli.upperdomain.RATIO\n"
        "sys.setprofile(None)\n"
        "print(at_import, len(calls) - at_import, ratio)\n"
    )
    assert run_fresh(script).split() == ["0", "1", "15/7"]
