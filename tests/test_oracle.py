import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketbvp import geometry as G
from gasketbvp import harmonic as H
from gasketbvp import oracle as O
from gasketbvp.errors import ContractViolation, SolvabilityError

F = Fraction


def test_constant_data():
    graph, vals = O.solve_full_gasket(G.gasket(2), 2, (F(3), F(3), F(3)))
    assert all(v == 3 for v in vals)


def test_sg3_level1_matches_extension_rule():
    graph, vals = O.solve_full_gasket(G.gasket(3), 1, (F(1), F(0), F(0)))
    expected = H.harmonic_extend_cell(3, (F(1), F(0), F(0)))
    for pt, v in expected.items():
        vid = graph.vertex_id((F(pt[0], 3), F(pt[1], 3)))
        assert vals[vid] == v


def test_oracle_equals_repeated_extension_exact():
    # l=2 up to m=5; l=3 stops at m=4, the largest level under the
    # 5000-unknown exact-mode cap
    for l, mmax in ((2, 5), (3, 4)):
        data = (F(2), F(-1), F(5, 3))
        for m in range(1, mmax + 1):
            graph, vals = O.solve_full_gasket(G.gasket(l), m, data)
            for i in range(graph.n_vertices()):
                want = H.harmonic_value_in_cell(l, data, graph.point(i))
                assert vals[i] == want


def test_float_mode_matches_rational():
    data = (1.0, 0.0, 0.0)
    graph, vals = O.solve_full_gasket(G.gasket(3), 3, data, mode="float")
    _, exact = O.solve_full_gasket(G.gasket(3), 3, (F(1), F(0), F(0)))
    err = max(abs(vals[i] - float(exact[i])) for i in range(graph.n_vertices()))
    assert err < 1e-11
    bmask = np.zeros(graph.n_vertices(), dtype=bool)
    for c in G.CORNERS_INT:
        bmask[graph.vertex_id((F(c[0]), F(c[1])))] = True
    assert O.matching_residuals(graph, vals, bmask) <= 1e-10


def test_unknown_mode_rejected():
    with pytest.raises(ContractViolation, match="mode"):
        O.solve_full_gasket(G.gasket(3), 3, (1.0, 0.25, -0.5), mode="cg")


def test_maximum_principle_random():
    rng = random.Random(21)
    for _ in range(5):
        data = tuple(rng.uniform(-2, 2) for _ in range(3))
        graph, vals = O.solve_full_gasket(G.gasket(2), 4, data, mode="float")
        assert min(data) - 1e-12 <= min(vals) and max(vals) <= max(data) + 1e-12


def test_empty_boundary_rejected():
    g = G.build_graph(G.gasket(2), 1)
    with pytest.raises(SolvabilityError):
        O.DirichletProblem(g, np.array([], dtype=np.int64), [])


def test_disconnected_interior_rejected():
    g = G.build_graph(G.gasket(2), 1)
    verts = np.array([[0, 0], [1, 1], [5, 5], [6, 6]], dtype=np.int64)
    edges = np.array([[0, 1], [2, 3]], dtype=np.int64)
    fake = G.Graph(g.params, 1, verts, edges, np.zeros(4, np.int64), np.zeros(4, np.int8))
    with pytest.raises(SolvabilityError):
        O.solve(O.DirichletProblem(fake, np.array([0]), [F(1)]))


def test_half_sg3_skeleton_level1():
    sk = O.domain_restricted_graph(G.HalfDomain(3), 1)
    assert sk.graph.n_vertices() == 5
    bpts = {sk.graph.point(int(i)) for i in sk.boundary_ids}
    assert bpts == {G.Q1, (F(1), F(2, 3))}  # q1 and the centre p_empty
    assert set(sk.boundary_kinds) == {G.CORNER, G.CANTOR}


def test_lower_half_skeleton_level1():
    sk = O.domain_restricted_graph(G.LowerDomain(cut_y=F(1)), 1)
    bpts = {sk.graph.point(int(i)) for i in sk.boundary_ids}
    assert bpts == {G.Q1, G.Q2, (F(1, 2), F(1)), (F(3, 2), F(1))}
    interior = set(range(sk.graph.n_vertices())) - set(sk.boundary_ids.tolist())
    assert {sk.graph.point(i) for i in interior} == {(F(1), F(0))}


def test_upper_lambda1_skeleton_level1():
    sk = O.domain_restricted_graph(G.UpperDomain(cut_y=F(0)), 1)
    assert sk.graph.n_vertices() == 10
    bpts = {sk.graph.point(int(i)) for i in sk.boundary_ids}
    assert G.Q0 in bpts and G.Q1 in bpts and G.Q2 in bpts
    assert len(bpts) == 5  # q0 plus the four bottom-row points
    assert sum(1 for k in sk.boundary_kinds if k == G.CORNER) == 1


def test_truncated_half_domain_converges_to_one_third():
    # boundary 1 at q1, 0 on the cut-line atoms: u(F_1 q_0) -> 1/3
    target = (F(1, 3), F(2, 3))
    errs = []
    for m in (2, 3, 4):
        sk = O.domain_restricted_graph(G.HalfDomain(3), m)
        prob = sk.problem(lambda p: F(1) if p == G.Q1 else F(0))
        vals = O.solve(prob)
        vid = sk.graph.vertex_id(target)
        errs.append(abs(vals[vid] - F(1, 3)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < F(1, 100)


def test_values_csv_roundtrip(tmp_path):
    graph, vals = O.solve_full_gasket(G.gasket(2), 1, (F(1), F(0), F(0)))
    path = tmp_path / "vals.csv"
    O.write_values_csv(graph, vals, path)
    back = O.read_values_csv(path)
    assert back == {i: vals[i] for i in range(graph.n_vertices())}


def test_rational_cap_checked_before_assembly():
    with pytest.raises(SolvabilityError, match="capped"):
        O.solve_full_gasket(G.gasket(3), 5, (F(1), F(0), F(0)), mode="rational")


def test_values_csv_bad_header(tmp_path):
    path = tmp_path / "vals.csv"
    path.write_text("id,value\n0,1\n")
    with pytest.raises(SolvabilityError):
        O.read_values_csv(path)


@pytest.mark.parametrize("domain,m", [
    (G.HalfDomain(3), 4),
    (G.LowerDomain(cut_y=F(1)), 6),  # lambda = 1/2
])
def test_float_matches_rational_on_domain_skeletons(domain, m):
    sk = O.domain_restricted_graph(domain, m)
    data = lambda p: F(1) if p == G.Q1 else p[0] - p[1] / 3
    exact = O.solve(sk.problem(data), mode="rational")
    vals = O.solve(sk.problem(lambda p: float(data(p))), mode="float")
    err = max(abs(v - float(e)) for v, e in zip(vals, exact))
    assert err < 1e-11
    bmask = np.zeros(sk.graph.n_vertices(), dtype=bool)
    bmask[sk.boundary_ids] = True
    assert O.matching_residuals(sk.graph, vals, bmask) <= 1e-10


# ---------------------------------------------------------------------------
# float condensation against exact elimination on random cell sets

# a fault in how siblings share a slot shows only on m >= 2 graphs whose
# cells leave some corner untouched, so more examples than test_cylinder's
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def random_problems(draw):
    """A level-m graph of SG_l restricted to a random set of cells, with a
    random nonempty boundary set and Fraction values on it."""
    level = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.integers(1, 3))
    density = draw(st.sampled_from([0.3, 0.6, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def cell_filter(corners):
        keep = rng.random(len(corners)) < density
        keep[rng.integers(len(corners))] = True
        return keep

    graph = G.build_graph(G.gasket(level), m, cell_filter)
    n = graph.n_vertices()
    ids = rng.choice(n, size=rng.integers(1, n // 3 + 2), replace=False)
    values = [F(int(k), 7) for k in rng.integers(-50, 51, len(ids))]
    return O.DirichletProblem(graph, ids, values)


@PROPERTY_SETTINGS
@given(problem=random_problems())
def test_float_condensation_matches_rational_on_random_cells(problem):
    try:
        exact = O.solve(problem, mode="rational")
    except SolvabilityError:
        with pytest.raises(SolvabilityError):
            O.solve(problem, mode="float")
        return
    vals = O.solve(problem, mode="float")
    assert max(abs(v - float(e)) for v, e in zip(vals, exact)) <= 1e-10
    bmask = np.zeros(problem.graph.n_vertices(), dtype=bool)
    bmask[problem.boundary_ids] = True
    assert O.matching_residuals(problem.graph, vals, bmask) <= 1e-10


def test_float_mode_needs_the_cells():
    g = G.build_graph(G.gasket(2), 2)
    bare = G.Graph(g.params, g.m, g.verts, g.edges, g.rep_cell, g.rep_corner)
    problem = O.DirichletProblem(bare, np.array([0]), [1.0])
    with pytest.raises(ContractViolation, match="cells"):
        O.solve(problem, mode="float")
    assert O.solve(problem, mode="rational") == [F(1)] * g.n_vertices()
