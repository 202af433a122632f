"""The package's one elimination kernel, `_exact.solve(c, g, b)` on a
grounded graph Laplacian in conductance form, against the minimum-degree
Fraction eliminator of the tests, which shares no code with it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketbvp import _exact
from gasketbvp.errors import SolvabilityError
from graph_helpers import min_degree_solve

F = Fraction

weights = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=9)


@st.composite
def grounded_laplacians(draw):
    """(c, g, b): symmetric conductances between up to 12 unknowns, keyed in
    a shuffled order, groundings >= 0 (often 0, so that some components are
    not grounded) and loads of either sign, all Fractions."""
    n = draw(st.integers(1, 12))
    keys = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)) if pairs else []
    c = {k: {} for k in keys}
    for i, j in edges:
        c[i][j] = c[j][i] = draw(weights)
    g = {k: draw(st.one_of(st.just(F(0)), weights)) for k in keys}
    b = {k: draw(st.fractions(min_value=-5, max_value=5, max_denominator=7)) for k in keys}
    return c, g, b


def as_number(c, g, b, number=F):
    """Fresh copies of the system in one number type: solve consumes it."""
    return ({k: {j: number(v) for j, v in row.items()} for k, row in c.items()},
            {k: number(v) for k, v in g.items()}, {k: number(v) for k, v in b.items()})


def reference(c, g, b):
    """The same system as matrix rows, by the minimum-degree eliminator."""
    rows = {k: {k: sum(row.values()) + g[k], **{j: -v for j, v in row.items()}}
            for k, row in c.items()}
    return min_degree_solve(rows, dict(b))


@settings(max_examples=200, deadline=None, database=None)
@given(grounded_laplacians())
def test_solve_satisfies_every_row(system):
    c, g, b = system
    try:
        want = reference(c, g, b)
    except SolvabilityError:
        for number in (F, float):
            with pytest.raises(SolvabilityError):
                _exact.solve(*as_number(c, g, b, number))
        return
    got = _exact.solve(*as_number(c, g, b))
    assert list(got) == list(c) and got == want
    assert all(type(v) is F for v in got.values())
    for k, row in c.items():
        assert (sum(row.values()) + g[k]) * got[k] - sum(v * got[j] for j, v in row.items()) == b[k]
    # floats to rounding, relative to the solution for the loads' absolute
    # values, which bounds every term of the elimination
    scale = reference(c, g, {k: abs(v) for k, v in b.items()})
    floats = _exact.solve(*as_number(c, g, b, float))
    assert list(floats) == list(c) and all(type(v) is float for v in floats.values())
    assert all(abs(floats[k] - want[k]) <= 1e-12 * scale[k] for k in c)


def test_solve_keeps_key_order_and_number_type():
    # two unknowns joined by conductance 1, each grounded once, load 1/2 on
    # the first: (2 u - v, 2 v - u) = (1/2, 0)
    c = {(2, 1): {(0, 1): F(1)}, (0, 1): {(2, 1): F(1)}}
    g = {(2, 1): F(1), (0, 1): F(1)}
    b = {(2, 1): F(0), (0, 1): F(1, 2)}
    x = _exact.solve(*as_number(c, g, b))
    assert list(x) == [(2, 1), (0, 1)]
    assert x == {(0, 1): F(1, 3), (2, 1): F(1, 6)}
    assert all(type(v) is F for v in x.values())
    y = _exact.solve(*as_number(c, g, b, float))
    assert y == {(0, 1): 1 / 3, (2, 1): 1 / 6} and all(type(v) is float for v in y.values())


def test_floating_component_raises_solvability_error():
    # path 0 - 1 - 2 and a grounded vertex 3 apart: the path is not
    # grounded, so its Laplacian block is singular in either number type
    c = {0: {1: 1}, 1: {0: 1, 2: 1}, 2: {1: 1}, 3: {}}
    g = {0: 0, 1: 0, 2: 0, 3: 1}
    for number in (F, float):
        with pytest.raises(SolvabilityError, match="does not touch the boundary"):
            _exact.solve(*as_number(c, g, dict.fromkeys(c, 0), number))


def test_tracer_name_is_the_solver():
    assert _exact.solve_dense is _exact.solve
