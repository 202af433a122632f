"""Rules the package source keeps: checks raise real errors (the types in
`gasketbvp.errors`), never `assert`, which `python -O` strips; nothing is
kept that nothing reads: every attribute set on `self` is read somewhere,
every private top-level name is used beyond its definition, and every
public one by the package, the demos, the bench or the acceptance tests;
start-up loads only what a command runs: no `dataclasses` (with its
`inspect`, `ast`, `dis` and `tokenize`), the oracle only when `compare`
runs, numpy only when a graph is built, and no exact solve; and the
recursion engine in `cylinder.py` has no special case: it reads V_1 by the
level-1 table's integer points, no frame answers for a whole cell or
one point on its own, and one extend step, `cylinder.Frame.values`, serves
every frame; the oracle lists only a domain's cell tree, never a graph's
cells; one level-1 solve, `geometry.level1_system`, serves the frames
and Gamma_1; and each frame states its Dirichlet-to-Neumann map once, as
its `form`, which the copies' maps, the energy and the corner derivatives
read."""

import ast
import functools
import os
import subprocess
import sys
import json
from fractions import Fraction
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
    # its first read, not at import; the profile hook sees that read's one
    # elimination
    script = (
        "import sys\n"
        "calls = []\n"
        "def watch(frame, event, arg):\n"
        "    code = frame.f_code\n"
        "    if event == 'call' and code.co_name == '_eliminate' and code.co_filename.endswith('_exact.py'):\n"
        "        calls.append(code)\n"
        "sys.setprofile(watch)\n"
        "import gasketbvp.cli\n"
        "at_import = len(calls)\n"
        "ratio = gasketbvp.cli.upperdomain.RATIO\n"
        "sys.setprofile(None)\n"
        "print(at_import, len(calls) - at_import, ratio)\n"
    )
    assert run_fresh(script).split() == ["0", "1", "15/7"]


def test_solve_and_compare_load_no_numpy(tmp_path):
    # the bench's solve and compare commands, on data of the bench's shapes
    # (read from bench/workloads.py with ast, values k/7), in one fresh
    # interpreter: neither the walk nor the oracle's cell types need numpy
    literals = {t.id: ast.literal_eval(node.value) for node in TREES[ROOT / "bench" / "workloads.py"].body
                if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name)
                and t.id in ("DATA_SHAPES", "WORKLOADS")}
    values = (str(Fraction((-1) ** k * (10 + k), 7)) for k in range(1000))
    paths = {}
    for shape, spec in literals["DATA_SHAPES"].items():
        data = {"schema": 1, **{key: next(values) for key in spec["keys"]},
                "atoms": [{"w": w, "j": j, "v": next(values)} for w, j in spec.get("atoms", [])],
                "cylinders": [{"w": w, "v": next(values)} for w in spec["cylinders"]]}
        tail = spec.get("default_tail")
        if tail is not None:
            data["default_tail"] = data["q0"] if tail == "q0" else next(values)
        paths[shape] = tmp_path / (shape.replace("/", "_") + ".json")
        paths[shape].write_text(json.dumps(data))
    runs = [[str(paths[shape]) if a == "{data}" else a for a in argv]
            for workload in ("explicit-solve", "oracle-float", "oracle-exact")
            for _, shape, argv in literals["WORKLOADS"][workload]]
    assert {argv[0] for argv in runs} == {"solve", "compare"}
    script = (
        "import contextlib, io, json, sys\n"
        "from gasketbvp import cli\n"
        f"runs = {runs!r}\n"
        "codes = []\n"
        "for argv in runs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "print(json.dumps([codes, sorted({'numpy', 'scipy'} & set(sys.modules))]))\n"
    )
    codes, loaded = json.loads(run_fresh(script))
    assert codes == [0] * len(runs)
    assert loaded == []


def test_engine_reads_v1_by_integer_points():
    # cylinder.py keys V_1 as the frames' values do, by
    # GasketParams.cell_points: no exact corner point is read there
    read = names_read(TREES[SRC / "cylinder.py"])
    assert {"cell_corners", "CORNERS"} & read == set()


def test_no_frame_answers_for_a_whole_cell_or_one_point():
    # walk and evaluate take one node step for every frame: no hook makes a
    # frame one harmonic cell, and boundary values come in batches only
    classes = {node.name: node for path in SOURCES for node in ast.walk(TREES[path])
               if isinstance(node, ast.ClassDef)}

    def is_frame(node):
        bases = {b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", None)
                 for b in node.bases}
        return node.name == "Frame" or any(is_frame(classes[b]) for b in bases if b in classes)

    frames = [name for name, node in classes.items() if is_frame(node)]
    assert {"Frame", "HalfStructure", "UpperFrame", "LowerFrame"} <= set(frames)
    hooks = [f"{name}.{item.name}" for name in frames for item in classes[name].body
             if isinstance(item, ast.FunctionDef) and item.name in ("cell", "terminal")]
    assert hooks == []


def test_one_extend_step():
    # every family reaches V_1 through the one level-1 solve of
    # cylinder.Frame: no other class defines `values`
    owners = [f"{path.name}:{node.name}" for path in SOURCES for node in ast.walk(TREES[path])
              if isinstance(node, ast.ClassDef)
              for item in node.body if isinstance(item, ast.FunctionDef) and item.name == "values"]
    assert owners == ["cylinder.py:Frame"]


def test_oracle_lists_only_a_domain_cell_tree():
    # the oracle has one row source, a domain's cells by shape: every row
    # list `_solve_rows` takes is a DomainTree's, `CellShapes.tree` alone
    # makes one, no module reads a graph's cell codes, and `build_graph`
    # calls nothing a caller hands it, so it takes no caller's cell mask
    def calls(node, name):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call)
                and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]

    rows = [ast.unparse(call.args[1]) for path in SOURCES
            for call in calls(TREES[path], "_solve_rows")]
    assert rows and all(arg.endswith(".rows") for arg in rows), rows
    makers = [f"{node.name}.{item.name}" for path in SOURCES for node in ast.walk(TREES[path])
              if isinstance(node, (ast.ClassDef, ast.FunctionDef)) for item in node.body
              if isinstance(item, ast.FunctionDef) and calls(item, "DomainTree")]
    assert makers == ["CellShapes.tree"]
    assert not any("cell_codes" in names_read(TREES[path]) for path in SOURCES)
    build = next(node for node in TREES[SRC / "geometry.py"].body
                 if isinstance(node, ast.FunctionDef) and node.name == "build_graph")
    called = {n.func.id for n in ast.walk(build)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert called & {a.arg for a in build.args.args} == set()


def exact_calls():
    """(caller, name) for every call of a function of `_exact` in the
    package, as `_exact.name(...)`, by a name imported from it, or within
    `_exact.py`; caller is the module and the qualified name of the
    enclosing def."""
    found = []
    for path in SOURCES:
        tree = TREES[path]
        own = {a.asname or a.name: a.name for n in ast.walk(tree)
               if isinstance(n, ast.ImportFrom) and n.module == "_exact" for a in n.names}
        if path.name == "_exact.py":
            own.update((n.name, n.name) for n in tree.body if isinstance(n, ast.FunctionDef))

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, f"{where}.{child.name}")
                    continue
                if isinstance(child, ast.Call):
                    f = child.func
                    if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "_exact":
                        found.append((where, f.attr))
                    elif isinstance(f, ast.Name) and f.id in own:
                        found.append((where, own[f.id]))
                visit(child, where)

        visit(tree, path.stem)
    return found


def test_one_level1_solve():
    # Gamma_1's extension is the level-1 system with every 1-cell full: only
    # geometry.level1_system, _exact.solve and the oracle eliminate, and no
    # module calls _exact.solve
    calls = exact_calls()
    eliminators = {where for where, name in calls if name == "_eliminate"}
    assert {where.split(".")[0] for where in eliminators} == {"geometry", "_exact", "oracle"}
    assert {where for where in eliminators if not where.startswith("oracle.")} == {
        "geometry.level1_system", "_exact.solve"}
    assert [where for where, name in calls if name in ("solve", "solve_dense")] == []


def test_one_dirichlet_to_neumann_form():
    # a frame's map is its `form`: no class has a `coefficient` hook, only
    # cylinder.Frame makes a copy's map, and the copies' maps, the energy's
    # closed end and the corner derivatives all read the form
    defs = {(path.name, node.name, item.name): item for path in SOURCES
            for node in ast.walk(TREES[path]) if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef)}
    names = {(path.name, node.name, t.id) for path in SOURCES
             for node in ast.walk(TREES[path]) if isinstance(node, ast.ClassDef)
             for item in node.body if isinstance(item, ast.Assign)
             for t in item.targets if isinstance(t, ast.Name)} | set(defs)
    assert [key for key in names if key[2] == "coefficient"] == []
    assert [key[:2] for key in names if key[2] == "copy_form"] == [("cylinder.py", "Frame")]
    funcs = {node.name: node for node in TREES[SRC / "cylinder.py"].body
             if isinstance(node, ast.FunctionDef)}
    readers = [funcs["energy"], funcs["normal_derivatives"], defs["cylinder.py", "Frame", "copy_form"]]
    assert all("form" in names_read(node) for node in readers)
