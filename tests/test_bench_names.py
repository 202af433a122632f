"""The names the benchmark's tracer patches must exist in the package.

`bench/tracing.py` wraps every (module, attribute path) in its TRACED list
and reads len() of every module cache in CACHES; a renamed function makes
`install()` raise AttributeError and the traced run fail.  The lists are
read from the source with `ast`, so nothing under bench/ is imported or
written.  A cache in CACHES must stay a sized container: an lru_cache
function has no len(), so `harmonic._BASIS_CACHE` stays a dict until the
benchmark reads `cache_info()` instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def bench_list(name):
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {TRACING}")


@pytest.mark.parametrize("module,path", bench_list("TRACED"))
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(f"gasketbvp.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("module,attr,metric", bench_list("CACHES"))
def test_cache_is_sized(module, attr, metric):
    len(getattr(importlib.import_module(f"gasketbvp.{module}"), attr))


def test_oracle_spla_resolves():
    # install() wraps oracle.spla.splu; the oracle itself no longer uses scipy
    oracle = importlib.import_module("gasketbvp.oracle")
    assert callable(oracle.spla.splu)
