import itertools
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketbvp import geometry as G
from gasketbvp import lowerdomain as LD
from gasketbvp import oracle as O
from gasketbvp.errors import AddressError, ContractViolation, ResolutionError
from graph_helpers import domain_vertices

F = Fraction


def all_words(lam, m):
    pool = [""]
    for k in range(1, m + 1):
        pool = [w + G.WORD_CHARS[d] for w in pool for d in LD.word_alphabet(lam, k)]
    return pool


def random_dyadic_data(lam, rng):
    d = lam.dyadic_depth
    cyl = {
        w: F(rng.randrange(-8, 9), rng.randrange(1, 5)) for w in all_words(lam, d)
    }
    return LD.LowerBoundaryData(
        lam, q1=F(rng.randrange(-4, 5)), q2=F(rng.randrange(-4, 5)), cylinders=cyl
    )


def test_binary_lambda_basics():
    lam = LD.BinaryLambda(F(5, 8))
    assert [lam.digit(k) for k in (1, 2, 3, 4)] == [1, 0, 1, 0]
    assert lam.dyadic and lam.dyadic_depth == 3
    assert lam.shift().value == F(1, 4)
    third = LD.BinaryLambda(F(1, 3))
    assert not third.dyadic
    assert [third.digit(k) for k in (1, 2, 3, 4)] == [0, 1, 0, 1]
    assert third.shift().value == F(2, 3)
    with pytest.raises(ResolutionError):
        LD.BinaryLambda(1)


def test_parse():
    assert LD.BinaryLambda.parse("5/8").value == F(5, 8)
    assert LD.BinaryLambda.parse("bits:101").value == F(5, 8)
    assert LD.BinaryLambda.parse("bits:101periodic:0").value == F(5, 8)
    assert LD.BinaryLambda.parse("bits:periodic:01").value == F(1, 3)
    with pytest.raises(ResolutionError):
        LD.BinaryLambda.parse("bits:1periodic:1")


def test_eta_fixed_point_and_half():
    ep = LD.eta_pair(LD.BinaryLambda(0))
    assert (ep.eta1, ep.eta2) == (2, 1) and ep.exact
    assert LD.t0(F(2), F(1)) == (F(2), F(1))
    assert abs(float(LD.t0(2.0, 1.0)[0]) - 2) < 1e-14
    ep12 = LD.eta_pair(LD.BinaryLambda(F(1, 2)))
    assert (ep12.eta1, ep12.eta2) == (F(35, 12), F(5, 12))
    assert LD.t1(F(2), F(1)) == (F(35, 12), F(5, 12))


def test_eta_closed_form_ones():
    lam12 = LD.BinaryLambda(F(1, 2))
    e1, e2 = LD.closed_form_ones(lam12, 1)
    assert e1 == pytest.approx(35 / 12, rel=1e-13)
    assert e2 == pytest.approx(5 / 12, rel=1e-13)
    lam34 = LD.BinaryLambda(F(3, 4))
    ep = LD.eta_pair(lam34)
    c1, c2 = LD.closed_form_ones(lam34, 2)
    assert c1 == pytest.approx(float(ep.eta1), rel=1e-12)
    assert c2 == pytest.approx(float(ep.eta2), rel=1e-12)


def test_eta_closed_form_zeros():
    lam = LD.BinaryLambda(F(3, 32))  # digits 0,0,0,1,1
    ep = LD.eta_pair(lam)
    s, d = LD.closed_form_zero_prefix(lam, 3)
    assert s == ep.eta1 + ep.eta2
    assert d == ep.eta1 - ep.eta2
    m = LD.closed_form_zero_matrix(lam, 3)
    mw = LD.transfer_matrix(lam, "000")
    for i in range(2):
        for j in range(2):
            assert m[i][j] == pytest.approx(float(mw[i][j]), rel=1e-12)
    assert m[0][0] + m[0][1] == pytest.approx(1.0, rel=1e-13)
    assert m[0][0] == m[1][1] and m[0][1] == m[1][0]


def test_eta_monotone_on_grid():
    vals = [LD.eta_pair(LD.BinaryLambda(F(k, 16))) for k in range(0, 14)]
    e1 = [float(v.eta1) for v in vals]
    e2 = [float(v.eta2) for v in vals]
    assert all(a <= b + 1e-9 for a, b in zip(e1, e1[1:]))
    assert all(a >= b - 1e-9 for a, b in zip(e2, e2[1:]))
    assert all(v.eta1 >= 2 - 1e-9 and 0 - 1e-9 <= v.eta2 <= 1 + 1e-9 for v in vals)
    assert all(v.eta1 + v.eta2 >= 3 - 1e-9 for v in vals)


def test_seed_independence():
    rng = random.Random(7)
    tested = 0
    for _ in range(25):
        lam = LD.BinaryLambda(F(rng.randrange(1, 3 ** 13), 3 ** 13) * F(7, 8))
        if lam.dyadic:
            continue
        a = LD.composite_eta(lam, 60, (2.0, 1.0))
        b = LD.composite_eta(lam, 60, (3.0, 1.0))
        assert abs(a[0] - b[0]) < 1e-10 and abs(a[1] - b[1]) < 1e-10
        tested += 1
    assert tested >= 20


def test_convergence_bound():
    lam = LD.BinaryLambda(F(1, 3))
    for seed in ((2.0, 1.0), (3.0, 1.0)):
        for m in (10, 15, 20):
            a = LD.composite_eta(lam, m, seed)
            b = LD.composite_eta(lam, m + 5, seed)
            bound = LD.error_bound(lam, m, seed)
            assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) <= bound


def test_accuracy_error_near_one():
    lam = LD.BinaryLambda(1 - F(1, 2 ** 300))
    with pytest.raises((LD.AccuracyError, ContractViolation)):
        LD.eta_pair(lam, tol=1e-12, max_depth=50)


def test_transfer_matrix_examples():
    lam12 = LD.BinaryLambda(F(1, 2))
    assert LD.transfer_matrix(lam12, "") == ((1, 0), (0, 1))
    m1 = LD.transfer_matrix(lam12, "1")
    assert m1 == ((1, 0), (-F(1, 4), F(1, 4)))
    with pytest.raises(AddressError):
        LD.transfer_matrix(lam12, "0")  # e_1 = 1 forbids digit 0
    lam14 = LD.BinaryLambda(F(1, 4))
    m0 = LD.transfer_matrix(lam14, "0")
    assert m0[0][0] + m0[0][1] == 1 and m0[1][0] + m0[1][1] == 1
    assert m0[0][1] == m0[1][0]


def test_closed_form_ones_matrix():
    lam34 = LD.BinaryLambda(F(3, 4))
    for word in ("11", "12", "21", "22"):
        closed = LD.closed_form_ones_matrix(lam34, 2, word)
        iterative = LD.transfer_matrix(lam34, word)
        for i in range(2):
            for j in range(2):
                assert closed[i][j] == pytest.approx(float(iterative[i][j]), rel=1e-10)


def test_measures():
    lam12 = LD.BinaryLambda(F(1, 2))
    assert LD.lower_measures(lam12, "") == (1, 1)
    assert LD.lower_measures(lam12, "1") == (F(5, 6), F(1, 6))
    assert LD.lower_measures(lam12, "2") == (F(1, 6), F(5, 6))
    # level sums are exactly 1 for dyadic lambda, 1e-10 for floats
    for lv in (F(1, 2), F(3, 8)):
        lam = LD.BinaryLambda(lv)
        for m in range(1, 7):
            s1 = sum(LD.lower_measures(lam, w)[0] for w in all_words(lam, m))
            s2 = sum(LD.lower_measures(lam, w)[1] for w in all_words(lam, m))
            assert s1 == 1 and s2 == 1
    lam3 = LD.BinaryLambda(F(1, 3))
    for m in range(1, 7):
        s1 = sum(LD.lower_measures(lam3, w)[0] for w in all_words(lam3, m))
        assert s1 == pytest.approx(1.0, abs=1e-10)


def test_measures_nonnegative():
    rng = random.Random(3)
    for lv in (F(1, 2), F(5, 8), F(1, 3), F(2, 5)):
        lam = LD.BinaryLambda(lv)
        for w in all_words(lam, 4):
            m1, m2 = LD.lower_measures(lam, w)
            assert m1 >= -1e-14 and m2 >= -1e-14


def test_normal_derivatives():
    lam12 = LD.BinaryLambda(F(1, 2))
    const = LD.constant_lower(lam12, F(3))
    assert LD.normal_derivatives_lower(lam12, const) == (0, 0)
    h1 = LD.LowerBoundaryData(lam12, q1=F(1), q2=F(0), default=F(0))
    ep = LD.etas(lam12)
    assert LD.normal_derivatives_lower(lam12, h1) == (ep.eta1, -ep.eta2)
    ind1 = LD.LowerBoundaryData(lam12, q1=F(0), q2=F(0), cylinders={"1": F(1)}, default=F(0))
    d1, d2 = LD.normal_derivatives_lower(lam12, ind1)
    assert d1 == -(ep.eta1 - ep.eta2) * F(5, 6)
    assert d2 == -(ep.eta1 - ep.eta2) * F(1, 6)


def test_extend_step_cases():
    lam12 = LD.BinaryLambda(F(1, 2))
    ones = LD.constant_lower(lam12, F(1))
    step = LD.extend_step_lower(lam12, ones)
    assert set(step.values()) == {F(1)}
    f = LD.LowerBoundaryData(lam12, q1=F(1), q2=F(2), cylinders={"1": F(3), "2": F(4)})
    (p12, u12), = LD.extend_step_lower(lam12, f).items()
    assert u12 == F(5, 2)  # forced mean value over the four boundary points
    lam14 = LD.BinaryLambda(F(1, 4))
    h1 = LD.LowerBoundaryData(lam14, q1=F(1), q2=F(0), default=F(0))
    step = LD.extend_step_lower(lam14, h1)
    p01 = G.apply_word(G.gasket(2), (0,), G.Q1)
    assert step[p01] == F(9, 32)
    ones14 = LD.constant_lower(lam14, F(1))
    assert set(LD.extend_step_lower(lam14, ones14).values()) == {F(1)}


def test_extend_step_vs_oracle_dyadic():
    rng = random.Random(11)
    for lv in (F(1, 2), F(1, 4), F(3, 8)):
        lam = LD.BinaryLambda(lv)
        f = random_dyadic_data(lam, rng)
        step = LD.extend_step_lower(lam, f)
        m = max(lam.dyadic_depth, 1) + 1
        sk = O.domain_restricted_graph(G.LowerDomain(cut_y=lam.cut_height()), m)
        def bv(p):
            if p == G.Q1:
                return f.q1
            if p == G.CORNERS[2]:
                return f.q2
            return LD.boundary_value_at_lower(lam, f, p)
        vals = O.solve(sk.problem(bv))
        for pt, v in step.items():
            assert vals[sk.graph.vertex_id(pt)] == v


def test_evaluate_equals_oracle_dyadic():
    rng = random.Random(13)
    for lv in (F(1, 2), F(1, 4), F(3, 8)):
        lam = LD.BinaryLambda(lv)
        f = random_dyadic_data(lam, rng)
        m = max(lam.dyadic_depth, 2) + 1
        sk = O.domain_restricted_graph(G.LowerDomain(cut_y=lam.cut_height()), m)
        def bv(p):
            if p == G.Q1:
                return f.q1
            if p == G.CORNERS[2]:
                return f.q2
            return LD.boundary_value_at_lower(lam, f, p)
        vals = O.solve(sk.problem(bv))
        for i in range(sk.graph.n_vertices()):
            assert LD.evaluate_lower(lam, f, sk.graph.point(i)) == vals[i]


@settings(max_examples=12, deadline=None, database=None)
@given(k=st.integers(0, 7), level=st.integers(1, 7), rng=st.randoms(use_true_random=False))
def test_domain_solve_equals_evaluate_on_dyadic_data(k, level, rng):
    # lambda = k/8 has dyadic depth d <= 3; from m = d on, the rational oracle
    # equals the extension at every vertex, up to m = 7, the largest level
    # under the rational cap for every such lambda
    lam = LD.BinaryLambda(F(k, 8))
    m = max(level, lam.dyadic_depth)
    f = random_dyadic_data(lam, rng)
    frame = LD.LowerFrame(lam)
    s = 2 ** m
    points = [(F(x, s), F(y, s)) for x, y, _ in domain_vertices(frame.domain, m)]
    tree = O.CellShapes(frame.domain, "rational").tree(m, (frame, f))
    got = O.solve_domain(tree, partial(frame.terminals, f), points)
    assert got == LD.evaluate_lower_many(lam, f, points)


def test_evaluate_h1_claim_bound():
    # 0 <= h_1(F_w q_i) <= (3/5)^{|w|} (eta_1 - eta_2)
    for lv in (F(1, 3), F(2, 5)):
        lam = LD.BinaryLambda(lv)
        h1 = LD.LowerBoundaryData(lam, q1=1.0, q2=0.0, default=0.0)
        ep = LD.etas(lam)
        spread = float(ep.eta1 - ep.eta2)
        params = G.gasket(2)
        for w in all_words(lam, 3):
            word = tuple(int(c) for c in w)
            for corner in (1, 2):
                p = G.apply_word(params, word, G.CORNERS[corner])
                v = LD.evaluate_lower(lam, h1, p)
                assert -1e-12 <= v <= (3 / 5) ** len(w) * spread + 1e-12


def test_gauss_green_telescope():
    for lv in (F(1, 2), F(3, 8)):
        lam = LD.BinaryLambda(lv)
        for m in range(1, 7):
            tot, base, _ = LD.gauss_green_telescope(lam, F(2), F(-1), m)
            assert tot == base
    lam3 = LD.BinaryLambda(F(1, 3))
    for m in range(1, 7):
        tot, base, per = LD.gauss_green_telescope(lam3, 1.0, 0.5, m)
        assert tot == pytest.approx(base, abs=1e-10)
        assert all(v >= -1e-12 for _, v in per)  # nonnegative for nonneg corner data


def test_evaluate_below_cut_only():
    lam = LD.BinaryLambda(F(1, 2))
    f = LD.constant_lower(lam, F(0))
    with pytest.raises(ResolutionError):
        LD.evaluate_lower(lam, f, G.Q0)


def test_division_safety():
    with pytest.raises(ContractViolation):
        LD.t1(F(0), F(0))


def test_data_for_another_lambda_is_refused():
    # f is built for lambda = 1/4; read at 1/2 its words would be taken for
    # the other lambda's cylinders (7/10 at (1/2, 0) instead of 7/4)
    lam2, lam4 = LD.BinaryLambda(F(1, 2)), LD.BinaryLambda(F(1, 4))
    f = LD.LowerBoundaryData(lam4, q1=F(1), q2=F(2), cylinders={"01": F(3), "02": F(4)},
                             default=F(0))
    for call in (
        lambda: LD.evaluate_lower(lam2, f, (F(1, 2), F(0))),
        lambda: LD.evaluate_lower_many(lam2, f, [(F(1, 2), F(0))]),
        lambda: LD.normal_derivatives_lower(lam2, f),
        lambda: LD.boundary_value_at_lower(lam2, f, (F(1, 2), F(1))),
    ):
        with pytest.raises(ContractViolation, match="built for lambda = 1/4 used at 1/2"):
            call()
    assert LD.evaluate_lower(lam4, f, (F(1, 2), F(0))) == F(7, 4)
