"""The one exact solver, and the package-wide rule that checks raise real
errors instead of using `assert` (stripped under `python -O`)."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gasketbvp
from gasketbvp import _exact
from gasketbvp.errors import SolvabilityError

F = Fraction

weights = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=9)


@st.composite
def spd_systems(draw):
    """A weighted graph Laplacian plus a positive diagonal, with a rhs."""
    n = draw(st.integers(2, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n))
    rows = {i: {i: draw(weights)} for i in range(n)}
    for i, j in edges:
        w = draw(weights)
        rows[i][i] += w
        rows[j][j] += w
        rows[i][j] = -w
        rows[j][i] = -w
    rhs = {i: draw(st.fractions(min_value=-5, max_value=5, max_denominator=7)) for i in range(n)}
    return rows, rhs


@settings(max_examples=40, deadline=None, database=None)
@given(spd_systems())
def test_solve_satisfies_every_row(system):
    rows, rhs = system
    x = _exact.solve({i: dict(row) for i, row in rows.items()}, dict(rhs))
    assert list(x) == list(rows)
    for i, row in rows.items():
        assert sum(a * x[j] for j, a in row.items()) == rhs[i]


def test_solve_keys_and_converts_floats_exactly():
    rows = {(0, 1): {(0, 1): 2, (2, 1): -1}, (2, 1): {(2, 1): 2, (0, 1): -1}}
    x = _exact.solve(rows, {(0, 1): 0.5, (2, 1): 0})
    assert x == {(0, 1): F(1, 3), (2, 1): F(1, 6)}
    assert all(type(v) is Fraction for v in x.values())


def test_floating_component_raises_solvability_error():
    # path 0 - 1 - 2 with no Dirichlet term: the Laplacian is singular
    rows = {0: {0: 1, 1: -1}, 1: {1: 2, 0: -1, 2: -1}, 2: {2: 1, 1: -1}}
    with pytest.raises(SolvabilityError, match="singular"):
        _exact.solve(rows, {0: 0, 1: 0, 2: 0})


def test_tracer_name_is_the_solver():
    assert _exact.solve_dense is _exact.solve


def test_no_assert_in_package():
    src = Path(gasketbvp.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
