import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketbvp import geometry as G
from gasketbvp import harmonic as H
from gasketbvp.errors import CapabilityError, ContractViolation
from graph_helpers import (GraphFunction, LevelMismatchError, graph_energy, solve_full_gasket,
                           verify_matching)


F = Fraction


def pt(l, *corners):
    """Integer point at scale l given as a sum of corner coordinates."""
    return tuple(sum(G.CORNERS_INT[c][t] for c in corners) for t in range(2))


def test_extension_sg3_coefficients():
    ext = H.harmonic_extend_cell(3, (F(1), F(0), F(0)))
    l = 3
    assert ext[pt(l, 0, 0, 1)] == F(8, 15)   # F_0 q_1, third point towards q1
    assert ext[pt(l, 0, 0, 2)] == F(8, 15)
    assert ext[pt(l, 1, 1, 0)] == F(4, 15)   # F_1 q_0
    assert ext[pt(l, 2, 2, 0)] == F(4, 15)
    assert ext[pt(l, 1, 1, 2)] == F(3, 15)   # F_1 q_2
    assert ext[pt(l, 2, 2, 1)] == F(3, 15)
    assert ext[pt(l, 0, 1, 2)] == F(1, 3)    # centre
    assert len(ext) == 10


def test_extension_constant():
    for l in (2, 3):
        ext = H.harmonic_extend_cell(l, (F(5), F(5), F(5)))
        assert set(ext.values()) == {F(5)}


def test_extension_sg2():
    ext = H.harmonic_extend_cell(2, (F(1), F(0), F(0)))
    assert ext[pt(2, 0, 1)] == F(2, 5)
    assert ext[pt(2, 0, 2)] == F(2, 5)
    assert ext[pt(2, 1, 2)] == F(1, 5)


def test_extension_unsupported_level():
    with pytest.raises(CapabilityError):
        H.harmonic_extend_cell(4, (1, 0, 0))


def test_extension_matches_gamma1_solve():
    # the closed forms agree with the exact energy-minimising solve
    for l in (2, 3):
        vals = {pt: w[0] for pt, w in G.gamma1_basis(l).items()}
        assert vals == H.harmonic_extend_cell(l, (F(1), F(0), F(0)))


def graph_fn(graph, fn):
    return GraphFunction(graph, [fn(graph.point(i)) for i in range(graph.n_vertices())])


def test_graph_energy_examples():
    g0 = G.build_graph(G.gasket(3), 0)
    ha = {G.Q0: F(0), G.Q1: F(1), G.Q2: F(-1)}
    f0 = graph_fn(g0, lambda p: ha[p])
    assert graph_energy(f0) == 6
    # harmonic extension preserves the energy at the next level
    g1 = G.build_graph(G.gasket(3), 1)
    f1 = graph_fn(g1, lambda p: H.harmonic_value_in_cell(3, (F(0), F(1), F(-1)), p))
    assert graph_energy(f1) == 6
    const = GraphFunction(g1, [F(3)] * g1.n_vertices())
    assert graph_energy(const) == 0


def test_graph_energy_level_mismatch():
    g0 = G.build_graph(G.gasket(3), 0)
    g1 = G.build_graph(G.gasket(3), 1)
    with pytest.raises(LevelMismatchError):
        graph_energy(
            GraphFunction(g0, [1, 2, 3]),
            GraphFunction(g1, [0] * g1.n_vertices()),
        )


def test_energy_monotone_under_restriction():
    # for g on V_{m+1}: E_m(g|V_m) <= E_{m+1}(g), equality iff g extends
    # its restriction harmonically
    rng = random.Random(3)
    for l in (2, 3):
        p = G.gasket(l)
        g0 = G.build_graph(p, 0)
        g1 = G.build_graph(p, 1)
        corner_vals = (F(rng.randrange(-5, 6)), F(rng.randrange(-5, 6)), F(1))
        harm = graph_fn(
            g1, lambda q: H.harmonic_value_in_cell(l, corner_vals, q)
        )
        f0 = graph_fn(g0, lambda q: H.harmonic_value_in_cell(l, corner_vals, q))
        assert graph_energy(harm) == graph_energy(f0)
        bumped = list(harm.values)
        for i in range(g1.n_vertices()):
            if tuple(map(int, g1.verts[i])) not in [
                (x * l, y * l) for x, y in G.CORNERS_INT
            ]:
                bumped[i] += F(1, 2)
                break
        assert graph_energy(GraphFunction(g1, bumped)) > graph_energy(f0)


def test_maximum_principle():
    rng = random.Random(5)
    for l in (2, 3):
        for _ in range(10):
            vals = tuple(F(rng.randrange(-10, 11), rng.randrange(1, 5)) for _ in range(3))
            ext = H.cell_extension(l, vals)
            assert min(vals) <= min(ext.values())
            assert max(ext.values()) <= max(vals)


def test_normal_derivative_examples():
    # antisymmetric SG_3 data (0,1,-1) at q1: (15/7) * (2 - 1/3 - 4/15) = 3
    nd = H.harmonic_normal_derivative(3, (F(0), F(1), F(-1)), 1)
    assert nd == 3
    nd2 = H.harmonic_normal_derivative(2, (F(1), F(0), F(0)), 0)
    assert nd2 == 2
    assert H.harmonic_normal_derivative(3, (F(4), F(4), F(4)), 0) == 0
    # localized to a depth-2 cell the value scales by r^-2
    nd_deep = H.harmonic_normal_derivative(3, (F(0), F(1), F(-1)), 1, depth=2)
    assert nd_deep == 3 * F(15, 7) ** 2


def test_normal_derivative_equals_level0_laplacian():
    # for harmonic h the one-subdivision formula reduces to 2h(q_i)-h(q_j)-h(q_k)
    rng = random.Random(9)
    for l in (2, 3):
        for _ in range(5):
            vals = tuple(F(rng.randrange(-9, 10)) for _ in range(3))
            for c in range(3):
                nd = H.harmonic_normal_derivative(l, vals, c)
                o = [j for j in range(3) if j != c]
                assert nd == 2 * vals[c] - vals[o[0]] - vals[o[1]]


def test_normal_derivatives_sum_to_zero():
    rng = random.Random(13)
    for l in (2, 3):
        vals = tuple(F(rng.randrange(-9, 10)) for _ in range(3))
        total = sum(H.harmonic_normal_derivative(l, vals, c) for c in range(3))
        assert total == 0


def test_normal_derivative_rejects_non_harmonic():
    ext = H.cell_extension(3, (F(1), F(0), F(0)))
    bad = dict(ext)
    key = next(iter(k for k in bad if bad[k] not in (F(1), F(0))))
    bad[key] += F(1, 7)
    with pytest.raises(ContractViolation):
        H.normal_derivative(3, bad, 0)
    # float mode tolerates rounding-size residuals only
    fl = {k: float(v) for k, v in ext.items()}
    H.normal_derivative(3, fl, 0)
    fl[key] += 1e-5
    with pytest.raises(ContractViolation):
        H.normal_derivative(3, fl, 0)


def test_verify_matching():
    g = G.build_graph(G.gasket(2), 1)
    const = GraphFunction(g, [F(2)] * g.n_vertices())
    harm = graph_fn(g, lambda p: H.harmonic_value_in_cell(2, (F(3), F(0), F(1)), p))
    mid = g.vertex_id(((G.Q0[0] + G.Q1[0]) / 2, (G.Q0[1] + G.Q1[1]) / 2))
    assert verify_matching(const, mid) == 0
    assert verify_matching(harm, mid) == 0
    indicator = [F(0)] * g.n_vertices()
    indicator[mid] = F(1)
    assert verify_matching(GraphFunction(g, indicator), mid) == 4
    with pytest.raises(ContractViolation):
        corner = g.vertex_id(G.Q1)
        verify_matching(const, corner)


def test_graph_energy_of_a_float_oracle_solution():
    # the oracle's float solution holds floats; its energy is the exact
    # one, E_0 of the corner data, to rounding
    params = G.gasket(3)
    graph, exact = solve_full_gasket(params, 3, (F(1), F(0), F(-2)), mode="rational")
    _, floats = solve_full_gasket(params, 3, (1.0, 0.0, -2.0), mode="float")
    assert len(floats) == graph.n_vertices() and all(type(v) is float for v in floats)
    want = graph_energy(GraphFunction(graph, exact))
    assert want == 14
    got = graph_energy(GraphFunction(graph, floats))
    assert abs(got - 14) <= 1e-12 * 14


def count_extensions(monkeypatch):
    calls = []
    extend = H.extend_numerators
    monkeypatch.setattr(H, "extend_numerators", lambda *a: calls.append(a) or extend(*a))
    return calls


def test_descent_refuses_a_non_vertex_by_its_denominator(monkeypatch):
    """(2/3, 0) lies on the bottom edge of SG, but no power of 2 clears its
    denominator: it is refused before any extension.  On SG_3 the edge's
    midpoint (1, 0) is an integer point in a subcell at every level, so it
    is refused two levels below the level its denominator gives."""
    calls = count_extensions(monkeypatch)
    corners = (F(1), F(-2), F(5))
    with pytest.raises(ContractViolation, match="not a vertex address"):
        H.harmonic_value_in_cell(2, corners, (F(2, 3), F(0)))
    assert calls == []
    with pytest.raises(ContractViolation, match="not a vertex address"):
        H.harmonic_value_in_cell(3, corners, (F(1), F(0)))
    assert len(calls) == 3


def test_descent_depth_follows_the_denominator():
    """A vertex 20 digits deep, beyond the graph cap, resolves to the value
    of the cell_extension chain along its word; so do the SG points (1, 0)
    and (1, 1), integer points that are vertices of levels 1 and 2."""
    params = G.gasket(2)
    word = tuple(int(c) for c in "12002110201221020011")
    corners = (F(1), F(-2), F(5))
    vals = corners
    for d in word:
        ext = H.cell_extension(2, vals)
        vals = tuple(ext[q] for q in params.cell_points[d])
    p = G.resolve(params, G.VertexAddress(word, 0))
    assert H.harmonic_value_in_cell(2, corners, p) == vals[0]
    ext = H.cell_extension(2, corners)
    assert H.harmonic_value_in_cell(2, corners, (F(1), F(0))) == ext[2, 0]
    top = tuple(ext[q] for q in params.cell_points[0])
    assert H.harmonic_value_in_cell(2, corners, (F(1), F(1))) == H.cell_extension(2, top)[2, 0]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 4, 5]),
       st.tuples(*[st.floats(allow_nan=False, allow_infinity=False, width=64)] * 3))
def test_float_extension_is_the_fraction_weight_formula_bit_for_bit(level, vals):
    # float corner values take float weights; a Fraction weight times a float
    # is float(weight) * value, so the bits are those of the exact weights
    got = H.cell_extension(level, vals)
    v0, v1, v2 = vals
    for pt, w in H.extension_basis(level).items():
        want = w[0] * v0 + w[1] * v1 + w[2] * v2
        assert type(got[pt]) is float and got[pt].hex() == want.hex()


def test_exact_or_mixed_values_keep_the_exact_weights():
    for vals in ((F(1), F(2), F(-3)), (1, -2, 3), (F(1, 3), 2, F(-5, 7)), (1, 0.5, 0.25),
                 (0.5, F(1, 3), 0.25)):
        got = H.cell_extension(3, vals)
        for pt, w in H.extension_basis(3).items():
            want = w[0] * vals[0] + w[1] * vals[1] + w[2] * vals[2]
            assert got[pt] == want and type(got[pt]) is type(want)


@pytest.mark.parametrize("level,d", [(2, 5), (3, 15), (4, 309), (5, 1663)])
def test_integer_weights_over_their_least_common_denominator(level, d):
    """The extension weights of SG_l are integers over one least common
    denominator D_l, and each point's weights sum to D_l: a constant extends
    to itself."""
    got, weights = H.integer_basis(level)
    assert got == d
    basis = H.extension_basis(level)
    assert weights.keys() == basis.keys()
    for pt, ints in weights.items():
        assert all(type(a) is int for a in ints)
        assert tuple(F(a, d) for a in ints) == basis[pt]
        assert sum(ints) == d
    assert math.gcd(d, *(a for ints in weights.values() for a in ints)) == 1


exact_values = st.one_of(st.integers(-50, 50),
                         st.builds(F, st.integers(-50, 50), st.integers(1, 12)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 4, 5]), st.tuples(*[exact_values] * 3),
       st.lists(st.integers(0, 20), max_size=5))
def test_numerator_chain_is_the_fraction_chain(level, vals, picks):
    """Extensions carried in integer numerators down a word of subcells give
    the values of the Fraction weight formula applied step by step."""
    params = G.gasket(level)
    basis = H.extension_basis(level)
    nums, den = vals, None
    for n in picks:
        cell = params.cell_points[n % params.map_count]
        ext, den = H.extension_step(level, nums, den)
        want = {pt: w[0] * vals[0] + w[1] * vals[1] + w[2] * vals[2] for pt, w in basis.items()}
        assert {pt: F(v, den) for pt, v in ext.items()} == want
        assert H.cell_extension(level, vals) == want
        nums, vals = tuple(ext[q] for q in cell), tuple(want[q] for q in cell)
