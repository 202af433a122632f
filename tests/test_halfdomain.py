import random
from collections import defaultdict
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketbvp import cylinder
from gasketbvp import geometry as G
from gasketbvp import halfdomain as HD
from gasketbvp import oracle as O
from gasketbvp.errors import AddressError, ContractViolation
from graph_helpers import min_degree_solve

F = Fraction


def ha_data():
    """Boundary data of h_a restricted to the half domain: 1 at q1, 0 on X."""
    return HD.HalfBoundaryData(3, q1=F(1), default=F(0), q0=F(0))


def random_cylinder_data(rng, depth, level=3):
    st = HD.structure(level)
    cyl = {}

    def fill(word, k):
        if k == 0:
            cyl[word] = F(rng.randrange(-6, 7), rng.randrange(1, 4))
            return
        for i in st.alphabet:
            fill(word + G.WORD_CHARS[i], k - 1)

    fill("", depth)
    atoms = {}
    for d in range(depth):
        def short(word, k):
            if k == 0:
                for j in range(1, st.atom_count + 1):
                    atoms[(word, j)] = F(rng.randrange(-6, 7), rng.randrange(1, 4))
                return
            for i in st.alphabet:
                short(word + G.WORD_CHARS[i], k - 1)
        short("", d)
    return HD.HalfBoundaryData(
        level, q1=F(rng.randrange(-6, 7)), atoms=atoms, cylinders=cyl, q0=F(0)
    )


def test_structure_weights():
    st3 = HD.structure(3)
    assert st3.weights == {0: F(1, 7), 3: F(4, 7)}
    assert st3.atom_base == [F(2, 7)]
    st2 = HD.structure(2)
    assert st2.weights == {0: F(1, 3)}
    assert st2.atom_base == [F(2, 3)]
    # each structure's atoms and digit weights sum to 1 exactly, or it is
    # refused as it is built
    for level in range(2, 9):
        HD.structure(level)
    st4 = HD.structure(4)
    assert sum(st4.atom_base) + sum(st4.weights.values()) == 1


def test_antisymmetric_values_sg3():
    vals = HD.antisymmetric_values(3)
    cp = HD.crucial_points(3)
    assert vals[cp["x"]] == F(4, 15)
    assert vals[cp["y"]] == F(1, 3)
    assert vals[cp["z"]] == F(1, 15)
    assert vals[cp["p"]] == 0
    assert vals[G.Q1] == 1


def test_antisymmetric_values_sg2():
    vals = HD.antisymmetric_values(2)
    assert vals[HD.crucial_points(2)["z"]] == F(1, 5)
    assert vals[HD.crucial_points(2)["p"]] == 0


def test_atom_masses():
    assert HD.atom_mass(3, "") == F(2, 7)
    assert HD.atom_mass(3, "0") == F(2, 49)
    assert HD.atom_mass(3, "3") == F(8, 49)
    # SG: mass(p_k) = 2 * 3^-(k+1)
    for k in range(4):
        assert HD.atom_mass(2, "0" * k) == 2 * F(1, 3) ** (k + 1)


@pytest.mark.parametrize("level,j", [(4, 0), (4, -1), (4, 3), (3, 2), (3, 5)])
def test_atom_index_out_of_range(level, j):
    # j = 0 and j = -1 used to read the last atoms' masses from the end of the table
    with pytest.raises(AddressError):
        HD.atom_mass(level, "", j)
    with pytest.raises(AddressError):
        HD.atom_point(level, "", j)


def test_atom_index_in_range():
    assert HD.structure(4).atom_count == 2
    assert HD.atom_mass(4, "", 2) == F(18, 41)
    assert HD.atom_point(4, "", 2) != HD.atom_point(4, "", 1)


def test_negative_depths_rejected():
    # (5/7)^-1 = 7/5 would be a residual mass above 1
    with pytest.raises(ContractViolation):
        HD.residual_mass(3, -1)
    f = HD.HalfBoundaryData(2, q1=0, atoms={"": F(1)}, default=F(0), q0=F(0))
    with pytest.raises(ContractViolation):
        HD.dirichlet_to_neumann_sg(f, -1)
    assert HD.dirichlet_to_neumann_sg(f, 0).terms


def test_residual_mass():
    for d in range(5):
        assert HD.residual_mass(3, d) == F(5, 7) ** d
    # total atom mass telescopes to 1
    total = sum(
        HD.atom_mass(3, w)
        for k in range(12)
        for w in ("".join(c) for c in __import__("itertools").product("03", repeat=k))
    )
    assert total == 1 - HD.residual_mass(3, 12)


def test_integrate_examples():
    c = HD.constant_data(3, F(5, 2))
    assert HD.integrate(c) == F(5, 2)
    ind = HD.HalfBoundaryData(3, q1=0, atoms={"": F(1)}, default=F(0), q0=F(0))
    assert HD.integrate(ind) == F(2, 7)
    # SG with f(p_k) = 3^k for k <= 2 else 0: sum = 2
    f = HD.HalfBoundaryData(
        2, q1=0, atoms={"": F(1), "0": F(3), "00": F(9)}, default=F(0), q0=F(0)
    )
    assert HD.integrate(f) == 2


def test_integrate_deep_cylinder_exactly():
    f = HD.HalfBoundaryData(3, q1=0, cylinders={"0" * 26: F(1)}, default=F(0), q0=F(0))
    assert HD.integrate(f) == F(1, 7 ** 26)


def test_integrate_self_similarity():
    rng = random.Random(2)
    f = random_cylinder_data(rng, 2)
    total = HD.integrate(f)
    parts = (
        F(1, 7) * HD.integrate(f, "0")
        + F(4, 7) * HD.integrate(f, "3")
        + F(2, 7) * f.atom("", 1)
    )
    assert total == parts



def test_normal_derivative_q1():
    assert HD.normal_derivative_q1(HD.constant_data(3, F(9))) == 0
    assert HD.normal_derivative_q1(ha_data()) == 3
    ind3 = HD.HalfBoundaryData(3, q1=0, atoms={"3": F(1)}, default=F(0), q0=F(0))
    assert HD.normal_derivative_q1(ind3) == -F(24, 49)


def test_extend_step_sg3():
    assert HD.extend_step_sg3(ha_data()) == (F(4, 15), F(1, 3), F(1, 15))
    ones = HD.constant_data(3, F(1))
    assert HD.extend_step_sg3(ones) == (1, 1, 1)
    ind = HD.HalfBoundaryData(3, q1=0, atoms={"": F(1)}, default=F(0), q0=F(0))
    assert HD.extend_step_sg3(ind) == (F(1, 15), F(1, 3), F(4, 15))


def test_extend_step_sg():
    f = HD.HalfBoundaryData(2, q1=F(1), default=F(0), q0=F(0))
    assert HD.extend_step_sg(f) == F(1, 5)
    assert HD.extend_step_sg(HD.constant_data(2, F(1))) == 1
    ind1 = HD.HalfBoundaryData(2, q1=0, atoms={"0": F(1)}, default=F(0), q0=F(0))
    assert HD.extend_step_sg(ind1) == F(2, 5)


def test_extend_step_matches_general_solver():
    # the level-1 solve against the paper's closed forms, keyed by the
    # crucial points at scale l: equal values, and Fractions both
    rng = random.Random(5)
    for level in (2, 3):
        f = random_cylinder_data(rng, 2, level)
        points = HD.crucial_points(level)
        closed = HD.extend_step_sg3(f) if level == 3 else (HD.extend_step_sg(f),)
        names = "xyz" if level == 3 else "z"
        want = {(int(level * points[n][0]), int(level * points[n][1])): v
                for n, v in zip(names, closed)}
        got = HD.extend_step(f)
        assert got == want
        assert all(type(got[pt]) is type(v) is F for pt, v in want.items())


def matrix_form_extend_step(f):
    """The SG_l half domain's level-1 system as Laplacian rows and a
    right-hand side summed exactly, float data made exact first, solved by
    the minimum-degree eliminator; float data take float values, rounded
    once."""
    frame = f.st
    points = frame.params.cell_points
    exact = lambda v: F(v) if type(v) is float else v
    boundary = {(0, 0): exact(f.q1)}
    for j, cell in enumerate(frame.params.atom_cells):
        boundary[points[cell][2]] = exact(f.atom("", j + 1))
    rows, rhs = defaultdict(dict), defaultdict(F)
    for cs in (points[i] for i in HD._contained_cells_level1(f.level)):
        for x, y in permutations(cs, 2):
            if x in boundary:
                continue
            row = rows[x]
            row[x] = row.get(x, 0) + 1
            if y in boundary:
                rhs[x] += boundary[y]
            else:
                row[y] = row.get(y, 0) - 1
    for i in frame.alphabet:
        p = points[i][1]
        rows[p][p] += 3
        rhs[p] += 3 * exact(HD.integrate(f, G.WORD_CHARS[i]))
    floats = any(type(v) is float for v in (f.q1, *f.data_values()))
    return {p: float(v) if floats else v for p, v in sorted(min_degree_solve(rows, rhs).items())}


@st.composite
def half_cylinder_data(draw):
    """Data on the half domain of SG_l, l = 4..8: q1, the depth-0 atoms,
    atoms and cylinders down to depth 1 or 2, exact or float values."""
    level = draw(st.integers(4, 8))
    number = draw(st.sampled_from([F, float]))
    value = st.fractions(min_value=-9, max_value=9, max_denominator=7).map(number)
    frame = HD.structure(level)
    depth = draw(st.integers(1, 2))
    words = [""]
    atoms = {}
    for _ in range(depth):
        atoms.update({(w, j): draw(value) for w in words
                      for j in range(1, frame.atom_count + 1)})
        words = [w + G.WORD_CHARS[i] for w in words for i in frame.alphabet]
    cylinders = {w: draw(value) for w in words}
    return HD.HalfBoundaryData(level, q1=draw(value), atoms=atoms, cylinders=cylinders,
                               q0=draw(value))


@settings(max_examples=60, deadline=None, database=None)
@given(half_cylinder_data())
def test_extend_step_system_keeps_the_matrix_form_values(f):
    got, want = HD.extend_step(f), matrix_form_extend_step(f)
    assert list(got) == list(want)
    if type(f.q1) is float:
        assert repr(got) == repr(want)
    else:
        assert got == want and all(type(v) is F for v in got.values())


def test_extend_step_sg4_against_oracle():
    # the general Eq-5.2 solve for SG_4, cross-checked against the
    # truncated finite-graph oracle (agreement improves with level)
    rng = random.Random(8)
    f = random_cylinder_data(rng, 1, level=4)
    step = HD.extend_step(f)
    errs = []
    for m in (2, 3):
        sk = O.domain_restricted_graph(G.HalfDomain(4), m)
        prob = sk.problem(lambda p: HD.boundary_value_at(f, p))
        vals = O.solve(prob, mode="float")
        worst = max(
            abs(float(v) - vals[sk.graph.vertex_id(pt_frac(pt, 4))])
            for pt, v in step.items()
        )
        errs.append(worst)
    assert errs[1] < errs[0]
    assert errs[1] < 0.05


def pt_frac(pt, level):
    return (F(pt[0], level), F(pt[1], level))


def test_evaluate_sg4_against_oracle():
    # the recursive evaluator also runs on SG_4 through the per-level solve
    st = HD.structure(4)
    atoms = {("", 1): F(3), ("", 2): F(-1)}
    f = HD.HalfBoundaryData(4, q1=F(2), atoms=atoms, default=F(1, 3), q0=F(1, 3))
    sk = O.domain_restricted_graph(G.HalfDomain(4), 4)
    vals = O.solve(sk.problem(lambda p: float(HD.boundary_value_at(f, p))),
                   mode="float")
    sk2 = O.domain_restricted_graph(G.HalfDomain(4), 2)
    worst = max(
        abs(float(HD.evaluate(f, sk2.graph.point(i)))
            - vals[sk.graph.vertex_id(sk2.graph.point(i))])
        for i in range(sk2.graph.n_vertices())
    )
    assert worst < 5e-3


def test_evaluate_examples():
    f = ha_data()
    cp = HD.crucial_points(3)
    assert HD.evaluate(f, cp["y"]) == F(1, 3)
    x0 = G.apply_word(G.gasket(3), (0,), cp["x"])
    assert HD.evaluate(f, x0) == F(4, 225)
    assert HD.evaluate(HD.constant_data(3, F(7)), x0) == 7
    assert HD.evaluate(f, G.Q1) == 1
    assert HD.evaluate(f, HD.atom_point(3, "03")) == 0
    assert HD.evaluate_many(f, []) == []


@pytest.mark.parametrize("n", [63, 80])
def test_evaluate_goes_as_deep_as_the_point(n):
    """F_3 F_0^n x is a vertex n + 2 levels deep, below every data word.
    With data a at q1 and c on X_3, the copy F_3 carries u(x) at its q1
    (F_3 q1 = x) and c on its X, and each copy F_0 of that carries
    u(z) - c = (q1 - c) / 15 (z = F_0 q1), so u = c + (4/15) (u(x) - c) / 15**n
    from the closed-form extend step alone."""
    cp = HD.crucial_points(3)
    p = G.apply_word(G.gasket(3), (3,) + (0,) * n, cp["x"])
    assert HD.evaluate(HD.constant_data(3, F(2, 7)), p) == F(2, 7)
    c = F(-1, 3)
    f = HD.HalfBoundaryData(3, q1=F(1), cylinders={"3": c}, default=F(1, 2), q0=F(1, 2))
    ux = HD.extend_step_sg3(f)[0]
    assert HD.evaluate(f, p) == c + F(4, 15) * (ux - c) / 15 ** n


def test_evaluate_refuses_a_point_no_power_of_l_clears(monkeypatch):
    """(1/2, 0) lies on the bottom edge, inside the closed half domain of
    SG_3, but no power of 3 clears its denominator: it is refused with the
    rest of its batch before any extend step."""
    for owner in (HD, cylinder.Frame):
        attr = "extend_step" if owner is HD else "values"
        monkeypatch.setattr(owner, attr, lambda *args: pytest.fail("an extend step ran"))
    points = [HD.crucial_points(3)["y"], (F(1, 2), F(0))]
    with pytest.raises(AddressError, match="is no vertex: its denominator divides no power of 3"
                       ) as refused:
        HD.evaluate_many(ha_data(), [(F(x), F(y)) for x, y in points])
    assert str(refused.value).startswith(str(points[1]))


def test_evaluate_vs_oracle_decreasing():
    rng = random.Random(13)
    f = random_cylinder_data(rng, 2)
    sk2 = O.domain_restricted_graph(G.HalfDomain(3), 2)
    targets = [sk2.graph.point(i) for i in range(sk2.graph.n_vertices())]
    exact = {p: HD.evaluate(f, p) for p in targets}
    sup = float(max(abs(v) for v in exact.values()) or 1)
    errs = []
    for m in (3, 4, 5):
        sk = O.domain_restricted_graph(G.HalfDomain(3), m)
        prob = sk.problem(lambda p: HD.boundary_value_at(f, p))
        vals = O.solve(prob, mode="float")
        errs.append(max(
            abs(float(exact[p]) - vals[sk.graph.vertex_id(p)]) for p in targets
        ))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.05 * sup


def test_energy_form_q():
    assert HD.energy_form_Q(HD.constant_data(3, F(3)), 4) == 0
    f = ha_data()
    for d in (0, 1, 3):
        assert HD.energy_form_Q(f, d) == 1
    ind = HD.HalfBoundaryData(3, q1=0, atoms={"": F(1)}, default=F(0), q0=F(0))
    assert HD.energy_form_Q(ind, 1) == 3
    # partial sums are nondecreasing in depth
    rng = random.Random(17)
    g = random_cylinder_data(rng, 2)
    qs = [HD.energy_form_Q(g, d) for d in range(5)]
    assert all(a <= b for a, b in zip(qs, qs[1:]))
    assert qs[2] == qs[3] == qs[4]  # cylinder-constant at depth 2


def test_energy_form_q_rejects_negative_depth():
    with pytest.raises(ContractViolation, match="depth must be >= 0"):
        HD.energy_form_Q(ha_data(), -1)


def test_domain_energy_against_gauss_green():
    # E_{O_m}(h_a, u) converges to 3 f(q1) - 3 int f inside the
    # geometric envelope (30/7)(5/7)^(m-1) ||f||
    rng = random.Random(19)
    for _ in range(3):
        f = random_cylinder_data(rng, 2)
        target = HD.normal_derivative_q1(f)
        sup = f.sup()
        for m in (2, 4, 6):
            e = HD.gauss_green_pairing(ha_data(), f, m)
            assert abs(e - target) <= F(30, 7) * F(5, 7) ** (m - 1) * sup


def test_energy_sandwich():
    rng = random.Random(23)
    ratios = []
    for _ in range(10):
        f = random_cylinder_data(rng, 2)
        q = HD.energy_form_Q(f, 3)
        e = HD.domain_energy(f)
        if q == 0:
            assert e == 0
            continue
        assert e <= F(225, 28) * q
        ratios.append(e / q)
    assert min(ratios) > 0


def test_first_term_lower_bound():
    # E_{O_1}(u) >= (45/28) (f(q1) - f(p))^2 exactly
    rng = random.Random(29)
    for _ in range(10):
        f = random_cylinder_data(rng, 1)
        cells, _ = cylinder.stage(HD.structure(3), f)
        e1 = sum(
            (1 / HD.structure(3).r) * __import__("gasketbvp.harmonic", fromlist=["x"]).triangle_energy(c)
            for c in cells
        )
        assert e1 >= F(45, 28) * (f.q1 - f.atom("", 1)) ** 2


def test_energy_of_ha_is_three():
    assert HD.domain_energy(ha_data()) == 3
    assert HD.domain_energy(HD.constant_data(3, F(2))) == 0


def test_domain_energy_rejects_data_never_constant():
    # a geometric tail with B != 0 is constant on no cylinder, so the
    # energy recursion would not end
    with pytest.raises(ContractViolation):
        HD.domain_energy(HD.neumann_inverse_sg([1, 2, 3]))


def test_geometric_tail_not_mixed_with_cylinders():
    # every atom of this data would read the tail value 1, but its integral
    # would read the cylinder value 5
    with pytest.raises(ContractViolation):
        HD.HalfBoundaryData(2, q1=0, cylinders={"": 5}, geometric_tail=(1, 0, F(3, 5), 0), q0=1)
    f = HD.HalfBoundaryData(2, q1=0, geometric_tail=(1, 0, F(3, 5), 0), q0=1)
    assert f.atom("00", 1) == 1
    assert HD.integrate(f) == 1


def test_dtn_forward():
    const = HD.constant_data(2, F(3))
    res = HD.dirichlet_to_neumann_sg(const, 10)
    assert all(t == 0 for t in res.terms)
    assert res.limit == 0
    ind0 = HD.HalfBoundaryData(2, q1=0, atoms={"": F(1)}, default=F(0), q0=F(0))
    res = HD.dirichlet_to_neumann_sg(ind0, 40)
    assert res.limit == F(9, 4) * F(2, 3)
    assert abs(res.partial_sums[-1] - res.limit) < F(1, 10**10)


def test_dtn_requires_q0():
    f = HD.HalfBoundaryData(2, q1=0, default=F(0))
    with pytest.raises(ContractViolation):
        HD.dirichlet_to_neumann_sg(f, 5)
    # a q0 value inconsistent with the atom limit is a contract violation
    g = HD.HalfBoundaryData(2, q1=0, default=F(0), q0=F(1))
    with pytest.raises(ContractViolation):
        HD.dirichlet_to_neumann_sg(g, 5)


def test_neumann_inverse_closed_form():
    f = HD.neumann_inverse_sg([F(1)])
    for k in range(5):
        assert f.atom("0" * k, 1) == -1 + F(4, 3) * F(3, 5) ** (k + 1)
    assert f.q0 == -1
    f2 = HD.neumann_inverse_sg([F(0), F(1)])
    assert f2.atom("", 1) == F(1, 3)  # closed form; the forward map round-trips
    assert f2.q0 == -F(4, 3)


def test_neumann_round_trip():
    rng = random.Random(31)
    for _ in range(5):
        etas = [F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(rng.randrange(1, 5))]
        f = HD.neumann_inverse_sg(etas)
        nd_q1, terms = HD.forward_derivatives_sg(f, len(etas) + 2)
        assert nd_q1 == etas[0]
        for k, t in enumerate(terms):
            want = etas[k + 1] if k + 1 < len(etas) else 0
            assert t == want
