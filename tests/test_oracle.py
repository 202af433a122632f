import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache, partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketbvp import _exact, cylinder
from gasketbvp import geometry as G
from gasketbvp import halfdomain as HD
from gasketbvp import harmonic as H
from gasketbvp import oracle as O
from gasketbvp.errors import AddressError, ContractViolation, ResolutionError, SolvabilityError
from graph_helpers import (domain_vertices, min_degree_solve, read_values_csv, reference_rows,
                           solve_full_gasket, write_values_csv)

F = Fraction


def test_constant_data():
    graph, vals = solve_full_gasket(G.gasket(2), 2, (F(3), F(3), F(3)))
    assert all(v == 3 for v in vals)


def test_sg3_level1_matches_extension_rule():
    graph, vals = solve_full_gasket(G.gasket(3), 1, (F(1), F(0), F(0)))
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
            graph, vals = solve_full_gasket(G.gasket(l), m, data)
            for i in range(graph.n_vertices()):
                want = H.harmonic_value_in_cell(l, data, graph.point(i))
                assert vals[i] == want


def test_float_mode_matches_rational():
    data = (1.0, 0.0, 0.0)
    graph, vals = solve_full_gasket(G.gasket(3), 3, data, mode="float")
    _, exact = solve_full_gasket(G.gasket(3), 3, (F(1), F(0), F(0)))
    err = max(abs(vals[i] - float(exact[i])) for i in range(graph.n_vertices()))
    assert err < 1e-11
    bmask = np.zeros(graph.n_vertices(), dtype=bool)
    for c in G.CORNERS_INT:
        bmask[graph.vertex_id((F(c[0]), F(c[1])))] = True
    assert O.matching_residuals(graph, vals, bmask) <= 1e-10


def test_unknown_mode_rejected():
    with pytest.raises(ContractViolation, match="mode"):
        solve_full_gasket(G.gasket(3), 3, (1.0, 0.25, -0.5), mode="cg")


def test_maximum_principle_random():
    rng = random.Random(21)
    for _ in range(5):
        data = tuple(rng.uniform(-2, 2) for _ in range(3))
        graph, vals = solve_full_gasket(G.gasket(2), 4, data, mode="float")
        assert min(data) - 1e-12 <= min(vals) and max(vals) <= max(data) + 1e-12


def test_empty_boundary_rejected():
    # SG below y = 2/3 with no boundary corner: the cut meets no vertex of
    # V_2, so the skeleton has no boundary vertex and poses no problem
    sk = O.domain_restricted_graph(G.Domain(2, 1, F(2, 3), -1, ()), 2)
    assert len(sk.boundary_ids) == 0
    with pytest.raises(SolvabilityError, match="nonempty"):
        sk.problem(lambda p: F(1))


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
    graph, vals = solve_full_gasket(G.gasket(2), 1, (F(1), F(0), F(0)))
    path = tmp_path / "vals.csv"
    write_values_csv(graph, vals, path)
    back = read_values_csv(path)
    assert back == {i: vals[i] for i in range(graph.n_vertices())}


def test_rational_cap_checked_before_assembly():
    with pytest.raises(SolvabilityError, match="capped"):
        solve_full_gasket(G.gasket(3), 5, (F(1), F(0), F(0)), mode="rational")


def test_values_csv_bad_header(tmp_path):
    path = tmp_path / "vals.csv"
    path.write_text("id,value\n0,1\n")
    with pytest.raises(SolvabilityError):
        read_values_csv(path)


@pytest.mark.parametrize("domain,m", [
    (G.HalfDomain(3), 4),
    (G.LowerDomain(cut_y=F(1)), 6),  # lambda = 1/2
    (G.UpperDomain(cut_y=F(2, 3)), 4),  # lambda = 2/3
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
# the condensation against a general elimination on random domains' cells

# a fault in how siblings share a slot shows only on m >= 2 graphs whose
# cells leave some corner untouched, so more examples than test_cylinder's;
# derandomized, so every run draws the same domains and takes the same time
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)


@st.composite
def random_domains(draw):
    """SG_l, l = 2, 3 or 4, on one side of a random cut k/q, q <= 9, along
    either axis, with a random set of boundary corners."""
    level = draw(st.integers(2, 4))
    q = draw(st.integers(1, 9))
    cut = F(draw(st.integers(0, 2 * q)), q)
    corners = tuple(sorted(draw(st.sets(st.integers(0, 2)))))
    return G.Domain(level, draw(st.integers(0, 1)), cut, draw(st.sampled_from([-1, 1])), corners)


def reference_solve(problem):
    """The oracle by the general route: the minimum-degree eliminator, not
    the oracle's kernel, over the Laplacian rows read from
    graph.neighbors."""
    graph = problem.graph
    bmask = np.zeros(graph.n_vertices(), dtype=bool)
    bmask[problem.boundary_ids] = True
    values = [None] * graph.n_vertices()
    for i, v in zip(problem.boundary_ids.tolist(), problem.boundary_values):
        values[i] = F(v)
    rows, rhs = {}, {}
    for i in np.flatnonzero(~bmask).tolist():
        nbrs = graph.neighbors(i).tolist()
        rows[i], rhs[i] = {i: len(nbrs)}, F(0)
        for j in nbrs:
            if bmask[j]:
                rhs[i] += values[j]
            else:
                rows[i][j] = rows[i].get(j, 0) - 1
    for i, v in min_degree_solve(rows, rhs).items():
        values[i] = v
    return values


def random_problem(domain, m, seed):
    """The skeleton of `domain` at level m and random k/7 data on its
    boundary, or None where the skeleton has no cell or no boundary vertex."""
    try:
        sk = O.domain_restricted_graph(domain, m)
    except ResolutionError:
        return None  # no level-m cell lies in the domain's closure
    if len(sk.boundary_ids) == 0:
        return None  # refused by the skeleton: test_empty_boundary_rejected
    rng = random.Random(seed)
    value = {sk.graph.point(int(i)): F(rng.randint(-50, 50), 7) for i in sk.boundary_ids}
    return sk, value


@PROPERTY_SETTINGS
@given(domain=random_domains(), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_condensation_matches_reference_on_random_cells(domain, m, seed):
    drawn = random_problem(domain, m, seed)
    if drawn is None:
        return
    sk, value = drawn
    want = reference_solve(sk.problem(value.__getitem__))
    exact = O.solve(sk.problem(value.__getitem__), mode="rational")
    assert list(exact) == want and all(type(v) is F for v in exact)
    vals = O.solve(sk.problem(lambda p: float(value[p])), mode="float")
    assert max(abs(v - float(w)) for v, w in zip(vals, want)) <= 1e-12


@PROPERTY_SETTINGS
@given(domain=random_domains(), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_float_condensation_matches_rational_on_random_cells(domain, m, seed):
    drawn = random_problem(domain, m, seed)
    if drawn is None:
        return
    sk, value = drawn
    exact = O.solve(sk.problem(value.__getitem__), mode="rational")
    vals = O.solve(sk.problem(lambda p: float(value[p])), mode="float")
    assert max(abs(v - float(e)) for v, e in zip(vals, exact)) <= 1e-10
    bmask = np.zeros(sk.graph.n_vertices(), dtype=bool)
    bmask[sk.boundary_ids] = True
    assert O.matching_residuals(sk.graph, vals, bmask) <= 1e-10


def test_float_mode_is_accurate_to_rounding(monkeypatch):
    # 32,691 vertices, over the rational cap; each cell type is condensed in
    # conductance form, which only adds nonnegative terms, so the error does
    # not grow with the level as a float elimination's does (1e-11 here)
    monkeypatch.setattr(_exact, "EXACT_UNKNOWN_CAP", 10**5)
    sk = O.domain_restricted_graph(G.HalfDomain(3), 6)
    data = lambda p: F(1) if p == G.Q1 else p[0] - p[1] / 3
    exact = O.solve(sk.problem(data), mode="rational")
    vals = O.solve(sk.problem(lambda p: float(data(p))), mode="float")
    assert max(abs(v - float(e)) for v, e in zip(vals, exact)) <= 1e-14


def test_float_types_condense_in_floats():
    # a float solve builds no Fraction: every pivot, weight, conductance and
    # grounding of its types is a float
    shapes = O.CellShapes(G.HalfDomain(3), "float")
    O.solve_domain(shapes.tree(4), batch(lambda p: float(p == G.Q1)), [G.Q1])
    types = [t for t in shapes._types.values() if t]
    assert any(t.schur[2] for t in types)
    for t in types:
        c, g, record = t.schur
        assert all(type(v) is float for row in c for v in row.values())
        assert all(type(v) is float for v, st in zip(g, t.status) if st == O._FREE)
        for _, d, _, weights in record:
            assert type(d) is float and all(type(w) is float for w in weights)


def test_solve_walks_down_only_as_far_as_it_is_read(monkeypatch):
    # half-SG_3 at m = 8 has 1,175,859 vertices; reading the level-3 ones
    # takes the levels 0-3 of the walk, and no value of a finer level
    walked = []
    values_down = O._values_down

    def counted(*args):
        for values in values_down(*args):
            walked.append(len(values))
            yield values

    monkeypatch.setattr(O, "_values_down", counted)
    domain = G.HalfDomain(3)
    sk = O.domain_restricted_graph(domain, 8)
    vals = O.solve(sk.problem(lambda p: float(p == G.Q1)), mode="float")
    assert walked == []
    index, s = sk.graph.index(), 3 ** 5
    coarse = [vals[index[s * x, s * y]] for x, y, _ in domain_vertices(domain, 3)]
    assert len(walked) == 4
    assert 0 <= min(coarse) < max(coarse) == 1


# ---------------------------------------------------------------------------
# the domain entry point against the reference elimination


def solve_at(domain, m, boundary_values, targets, mode):
    """`solve_domain` on the domain's cells of level m; a `frame.terminals`
    partial also gives the listing its data by word, so the cells where
    the data is constant are leaves."""
    data = None
    if isinstance(boundary_values, partial):
        data = (boundary_values.func.__self__, *boundary_values.args)
    return O.solve_domain(O.CellShapes(domain, mode).tree(m, data), boundary_values, targets)


def batch(value):
    """The boundary values of `solve_domain` from a function of one exact
    point."""
    return lambda points, s: [value((F(x, s), F(y, s))) for x, y in points]


def corner_data(domain):
    """Boundary values: 3/7 at the boundary corners, a quadratic on the cut."""
    ends = {G.CORNERS[c] for c in domain.corners}
    return lambda p: F(3, 7) if p in ends else (p[0] - p[1] / 3) ** 2 - F(1, 5)


# half l = 2, 3, 4; upper lambda = 1, 2/3, 1/2, 1/4 and lower lambda = 1/2,
# 1/3 (cut y = 2 - 2 lambda): the cuts y = 1, 3/2 (upper) and 4/3 (lower)
# meet no vertex
TREE_CASES = [(G.HalfDomain(2), 6), (G.HalfDomain(3), 4), (G.HalfDomain(4), 3)]
TREE_CASES += [(G.UpperDomain(cut_y=2 - 2 * F(lam)), 4) for lam in (1, F(2, 3), F(1, 2), F(1, 4))]
TREE_CASES += [(G.LowerDomain(cut_y=2 - 2 * F(lam)), 6) for lam in (F(1, 2), F(1, 3))]


@pytest.mark.parametrize("domain,m", TREE_CASES,
                         ids=["half2", "half3", "half4", "upper1", "upper2_3", "upper1_2",
                              "upper1_4", "lower1_2", "lower1_3"])
def test_domain_tree_matches_the_graph_oracle(domain, m):
    sk = O.domain_restricted_graph(domain, m)
    data = corner_data(domain)
    points = [sk.graph.point(i) for i in range(sk.graph.n_vertices())]
    random.Random(m).shuffle(points)
    ids = [sk.graph.vertex_id(p) for p in points]
    unknowns = sk.graph.n_vertices() - len(sk.boundary_ids)
    assert O.CellShapes(domain, "float").unknowns(m) == unknowns
    # `solve` runs the same engine, so the check is the elimination that
    # shares no code with it
    want = reference_solve(sk.problem(data))
    got = solve_at(domain, m, batch(data), points, "rational")
    assert got == [want[i] for i in ids] and all(type(v) is F for v in got)
    got = solve_at(domain, m, batch(lambda p: float(data(p))), points, "float")
    assert all(type(v) is float for v in got)
    assert max(abs(v - want[i]) for v, i in zip(got, ids)) <= 1e-14


def test_domain_tree_refuses_what_the_graph_oracle_refuses():
    # SG below y = 2/3 with no boundary corner: the cut meets no vertex, so
    # the graph has no boundary vertex and its one component touches none
    domain = G.Domain(2, 1, F(2, 3), -1, ())
    sk = O.domain_restricted_graph(domain, 4)
    with pytest.raises(SolvabilityError) as graph_error:
        sk.problem(lambda p: F(1))
    for mode in ("rational", "float"):
        with pytest.raises(SolvabilityError) as tree_error:
            solve_at(domain, 4, batch(lambda p: F(1)), [G.Q1], mode)
        assert str(tree_error.value) == str(graph_error.value)
    with pytest.raises(ContractViolation, match="mode"):
        solve_at(G.HalfDomain(3), 2, batch(lambda p: F(1)), [G.Q1], "auto")
    with pytest.raises(AddressError, match="not a vertex"):
        solve_at(G.HalfDomain(3), 2, batch(lambda p: F(1)), [(F(2), F(0))], "float")


def test_domain_tree_counts_the_rational_cap():
    # level 9 of half-SG has 14757 unknowns: refused before any condensation
    assert O.CellShapes(G.HalfDomain(2), "float").unknowns(9) == 14757
    with pytest.raises(SolvabilityError, match="capped at 5000 unknowns, got 14757"):
        solve_at(G.HalfDomain(2), 9, batch(lambda p: F(1)), [G.Q1], "rational")


def positive_data(p):
    """Boundary values in [1, 3) on a half domain (x <= 1): no relative error
    exceeds the absolute one."""
    return 1 + (p[0] - p[1] / 3) ** 2 + F(3, 7) * (p == G.Q1)


@pytest.mark.parametrize("level,m", [(2, 8), (3, 4), (4, 3), (8, 2)])
def test_float_domain_solve_is_accurate_to_rounding(level, m):
    # at the largest level under the rational cap, the float solve is within
    # 1e-12 relative of the exact one at every vertex; a float elimination
    # that subtracts on the diagonal loses digits to cancellation here
    domain = G.HalfDomain(level)
    assert (O.CellShapes(domain, "float").unknowns(m) <= _exact.EXACT_UNKNOWN_CAP
            < O.CellShapes(domain, "float").unknowns(m + 1))
    s = level ** m
    points = [(F(x, s), F(y, s)) for x, y, _ in domain_vertices(domain, m)]
    exact = solve_at(domain, m, batch(positive_data), points, "rational")
    vals = solve_at(domain, m, batch(lambda p: float(positive_data(p))), points, "float")
    assert max(abs(v - e) / e for v, e in zip(vals, exact)) <= 1e-12


def test_domain_tree_goes_beyond_the_graph():
    # half-SG_3 at m = 10 has 6**10 cells, over the graph cap; the tree lists
    # only the cells at the cut and at q1, and the discrepancy at the level-2
    # targets keeps falling
    params = G.gasket(3)
    assert params.map_count ** 10 > G.MAX_GRAPH_CELLS
    f = HD.HalfBoundaryData(3, q1=1.0, atoms={("", 1): 0.5, ("0", 1): -0.25},
                            cylinders={"03": 2.0, "30": -1.0}, default=0.0, q0=0.0)
    domain = G.HalfDomain(3)
    targets = [(F(x, 9), F(y, 9)) for x, y, _ in domain_vertices(domain, 2)]
    exact = HD.evaluate_many(f, targets)
    errors = {}
    for m in (8, 10):
        tracemalloc.start()
        vals = solve_at(domain, m, partial(f.st.terminals, f), targets, "float")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 8 * 2**20
        errors[m] = max(abs(v - e) for v, e in zip(vals, exact))
    assert errors[10] <= errors[8] / 10


def independence_case(name):
    """(root frame, boundary data) with cylinders at two depths."""
    from gasketbvp import lowerdomain as LD
    from gasketbvp import upperdomain as UP

    family, arg = name.split(":")
    if family == "half":
        level = int(arg)
        cyl = {"00": 2.0} if level == 2 else {"03": 2.0, "30": -1.0}
        f = HD.HalfBoundaryData(level, q1=1.0, atoms={("", 1): 0.5, ("0", 1): -0.25},
                                cylinders=cyl, default=0.0, q0=0.0)
        return HD.structure(level), f
    if family == "upper":
        lam = UP.TriadicLambda(F(arg))
        cyl = {"1": 0.5, "31": -1.0} if lam.value == 1 else {"4": 0.5, "51": -1.0}
        return UP.UpperFrame(lam), UP.UpperBoundaryData(lam, q0=1.0, cylinders=cyl, default=0.25)
    lam = LD.BinaryLambda(F(arg))
    cyl = {"1": 0.5, "20": -1.0} if lam.value == F(1, 2) else {"01": 0.5, "0201": -1.0}
    return LD.LowerFrame(lam), LD.LowerBoundaryData(lam, q1=1.0, q2=-0.5, cylinders=cyl,
                                                    default=0.25)


@pytest.mark.parametrize("name", ["half:2", "half:3", "upper:1", "upper:2/3", "lower:1/2",
                                  "lower:1/3"])
def test_boundary_lookup_and_domain_solve_use_no_extension(name, monkeypatch):
    # the oracle is the independent check of the extension formulas: its
    # boundary values are a data lookup, and its solve touches no extend step
    from gasketbvp import lowerdomain as LD
    from gasketbvp import upperdomain as UP

    frame, f = independence_case(name)
    domain = frame.domain
    targets = [(F(x, domain.level ** 2), F(y, domain.level ** 2))
               for x, y, _ in domain_vertices(domain, 2)]
    want = {m: solve_at(domain, m, partial(frame.terminals, f), targets, "float")
            for m in (2, 3, 4)}

    def refuse(*args):
        raise AssertionError("the oracle used an extension formula")

    for module, attr in ((H, "cell_extension"), (H, "extend_numerators"),
                         (HD, "extend_step"), (UP, "extend_step_upper"),
                         (LD, "extend_step_lower"), (cylinder.Frame, "values")):
        monkeypatch.setattr(module, attr, refuse)
    for m, vals in want.items():
        got = solve_at(domain, m, partial(frame.terminals, f), targets, "float")
        assert got == vals and all(type(v) is float for v in got)


# ---------------------------------------------------------------------------
# the listing by shape and data word against the per-cell reference tree


def compression_case(name):
    """(root frame, data constructor (cylinders, atoms, default, corner
    value), alphabet at position k of a word)."""
    from gasketbvp import lowerdomain as LD
    from gasketbvp import upperdomain as UP

    family, arg = name.split(":")
    if family == "half":
        level = int(arg)
        frame = HD.structure(level)
        return (frame, lambda cyl, atoms, d, c: HD.HalfBoundaryData(
            level, q1=c, atoms=atoms, cylinders=cyl, default=d, q0=d), lambda k: frame.alphabet)
    if family == "upper":
        lam = UP.TriadicLambda(F(arg))
        return (UP.UpperFrame(lam), lambda cyl, atoms, d, c: UP.UpperBoundaryData(
            lam, q0=c, cylinders=cyl, default=d), lambda k: UP.word_alphabet(lam, k))
    lam = LD.BinaryLambda(F(arg))
    return (LD.LowerFrame(lam), lambda cyl, atoms, d, c: LD.LowerBoundaryData(
        lam, q1=c, q2=-c, cylinders=cyl, default=d), lambda k: LD.word_alphabet(lam, k))


@lru_cache(maxsize=None)
def cached_reference_rows(domain, m, number):
    return reference_rows(domain, m, number)


# (case, level in floats, level in Fractions): a rational solve of the
# reference's 10^4 cells (upper lambda = 1 at m = 8, half-SG3 at m = 10)
# takes about 2 s, so those two are checked exactly a level or more lower
COMPRESSION_CASES = [("upper:1", 8, 6), ("half:3", 10, 7), ("lower:1/2", 10, 10),
                     ("half:4", 5, 5)]
# float results of the two listings agree to this many units of roundoff
# u = 2**-53 of max|f| (4 u max|f| is the largest difference seen)
FLOAT_ULPS = 64


@pytest.mark.parametrize("name,m_float,m_exact", COMPRESSION_CASES,
                         ids=[c[0] for c in COMPRESSION_CASES])
@settings(max_examples=6, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_listing_by_shape_matches_the_reference_tree(name, m_float, m_exact, data):
    # random cylinder data, read in one `frame.terminals` batch by each:
    # the cells where the data is constant are leaves of the listing, and
    # every cell at the cut is a row of the reference
    frame, make, alphabet = compression_case(name)
    exact = data.draw(st.booleans())
    value = st.integers(-50, 50).map(lambda n: F(n, 7) if exact else n / 7)
    word = st.lists(st.integers(0, 5), max_size=3).map(lambda picks: "".join(
        G.WORD_CHARS[alphabet(k)[n % len(alphabet(k))]] for k, n in enumerate(picks, start=1)))
    cyl = data.draw(st.dictionaries(word, value, max_size=5))
    atoms = {}
    if isinstance(frame, HD.HalfStructure):
        atom = st.tuples(word, st.integers(1, frame.atom_count))
        atoms = data.draw(st.dictionaries(atom, value, max_size=2))
    default, corner = data.draw(value), data.draw(value)
    f = make(cyl, atoms, default, corner)
    domain, m = frame.domain, m_exact if exact else m_float
    mode, number = ("rational", F) if exact else ("float", float)
    s, calls = domain.level ** m, []

    def lookup(points, s):
        calls.append(len(points))
        return frame.terminals(f, points, s)

    targets = [(x * domain.level ** (m - 2), y * domain.level ** (m - 2))
               for x, y, _ in domain_vertices(domain, 2)]
    with mock.patch.object(_exact, "EXACT_UNKNOWN_CAP", 10**9):
        got = O.solve_domain(O.CellShapes(domain, mode).tree(m, (frame, f)), lookup,
                             [(F(x, s), F(y, s)) for x, y in targets])
        levels = O._solve_rows(domain.params, cached_reference_rows(domain, m, number),
                               lambda points: lookup(points, s), number)
    found = {}
    for values in levels:
        found.update(values)
        if all(p in found for p in targets):
            break
    want = [found[p] for p in targets]
    assert len(calls) == 2
    if exact:
        assert got == want and all(type(v) is F for v in got)
    else:
        sup = max(abs(v) for v in [*cyl.values(), *atoms.values(), default, corner])
        assert max(abs(a - b) for a, b in zip(got, want)) <= FLOAT_ULPS * 2 ** -53 * sup
