import itertools
import math
import random
from fractions import Fraction

import pytest

from gasketbvp import geometry as G
from gasketbvp import harmonic as H
from gasketbvp import oracle as O
from gasketbvp import upperdomain as UP
from gasketbvp.errors import AddressError, ContractViolation, ResolutionError

F = Fraction

ALPHA1 = (75 - math.sqrt(2353)) / 60


def lam_mixed_program():
    """A mixed digit program with both branch types: prefix (1,1)(2,1)(3,2)
    with the all-2 tail (value 5/9)."""
    return UP.TriadicLambda.parse("digits:(1,1)(2,1)(3,2)periodic:(1,2)")


def test_digit_expansion():
    lam = UP.TriadicLambda(1)
    assert [lam.pair(k) for k in range(1, 4)] == [(1, 2), (2, 2), (3, 2)]
    lam23 = UP.TriadicLambda(F(2, 3))
    assert lam23.pair(1) == (1, 1) and lam23.pair(2) == (2, 2)
    lam13 = UP.TriadicLambda(F(1, 3))
    assert lam13.pair(1) == (2, 2)
    with pytest.raises(ResolutionError):
        UP.TriadicLambda(0)
    with pytest.raises(ResolutionError):
        UP.TriadicLambda(F(5, 4))


def test_parse_programs():
    lam = lam_mixed_program()
    assert lam.value == F(5, 9)
    assert [lam.pair(k) for k in range(1, 5)] == [(1, 1), (2, 1), (3, 2), (4, 2)]
    assert UP.TriadicLambda.parse("1/2").value == F(1, 2)
    prog = UP.TriadicLambda.parse("digits:(1,1)(3,2)periodic:(2,2)")
    # 3^-1 + 2*3^-3 + 2*(3^-5 + 3^-7 + ...)
    assert prog.value == F(1, 3) + F(2, 27) + F(2, 243) / (1 - F(1, 9))
    with pytest.raises(ResolutionError):
        UP.TriadicLambda.parse("digits:(1,3)")


def test_shift_and_dilate():
    lam = UP.TriadicLambda(F(5, 9))
    assert lam.shift().value == F(5, 9) * 3 - 1  # == 2/3
    lam19 = UP.TriadicLambda(F(1, 9))
    assert lam19.m1 == 3  # triadic rationals take the all-2 tail form
    assert lam19.dilate().value == F(1, 3)
    lam15 = UP.TriadicLambda(F(1, 5))
    assert lam15.m1 == 2 and lam15.dilate().value == F(3, 5)
    with pytest.raises(ResolutionError):
        UP.TriadicLambda(1).dilate()


def test_alpha_lambda_one():
    ea = UP.eta_alpha(UP.TriadicLambda(1), tol=1e-12)
    assert abs(ea.alpha - ALPHA1) <= 1e-9
    assert ea.depth <= 60
    assert ea.err <= 1e-12
    assert ea.eta == pytest.approx(2 * (15 / 7) * (1 - ALPHA1), abs=1e-9)


def test_alpha_dilation_invariance():
    a1 = UP.eta_alpha(UP.TriadicLambda(1)).alpha
    a13 = UP.eta_alpha(UP.TriadicLambda(F(1, 3))).alpha
    a19 = UP.eta_alpha(UP.TriadicLambda(F(1, 9))).alpha
    assert abs(a1 - a13) < 1e-12 and abs(a1 - a19) < 1e-12
    a23 = UP.eta_alpha(UP.TriadicLambda(F(2, 3))).alpha
    a29 = UP.eta_alpha(UP.TriadicLambda(F(2, 9))).alpha
    assert abs(a23 - a29) < 1e-12


def test_alpha_monotone_on_grid():
    vals = [UP.eta_alpha(UP.TriadicLambda(F(k, 24))).alpha for k in range(9, 25)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0 < a <= ALPHA1 + 1e-11 for a in vals)


def test_alpha_half_exact():
    # lambda=1/2 is a fixed point of the iota=1 branch: alpha = 7/30
    ea = UP.eta_alpha(UP.TriadicLambda(F(1, 2)))
    assert abs(ea.alpha - 7 / 30) < 1e-12
    assert abs(UP.eta_of(UP.TriadicLambda(F(1, 2))) - 23 / 7) < 1e-11


def test_measure_weights():
    lam12 = UP.TriadicLambda(F(1, 2))
    assert UP.measure_weights(lam12) == {4: 0.5, 5: 0.5}
    lam1 = UP.TriadicLambda(1)
    w = UP.measure_weights(lam1)
    assert w[1] == pytest.approx(0.304400, abs=1e-6)
    assert w[3] == pytest.approx(0.391200, abs=1e-6)
    assert w[1] + w[2] + w[3] == pytest.approx(1.0, abs=1e-14)
    assert 0.25 < w[1] < 1 / 3 < w[3] < 0.5


def test_cylinder_mass():
    lam1 = UP.TriadicLambda(1)
    assert UP.cylinder_mass(lam1, "") == 1.0
    w = UP.measure_weights(lam1)
    assert UP.cylinder_mass(lam1, "31") == pytest.approx(
        w[3] * UP.measure_weights(lam1.shift())[1]
    )
    with pytest.raises(AddressError):
        UP.cylinder_mass(lam1, "4")  # iota_1 = 2 level has alphabet {1,2,3}


def test_level_mass_sums_to_one():
    for lam in (UP.TriadicLambda(1), lam_mixed_program(), UP.TriadicLambda(F(2, 3))):
        for depth in (1, 2, 3, 4):
            total = 0.0
            def walk(cur, word, k):
                nonlocal total
                if k == 0:
                    total += UP.cylinder_mass(lam, word)
                    return
                for d in UP.level_alphabet(cur):
                    walk(cur.shift(), word + G.WORD_CHARS[d], k - 1)
            walk(lam, "", depth)
            assert total == pytest.approx(1.0, abs=1e-12)


def test_pushforward_identity():
    # mu(X_{wv}) = mu(X_w) * mu^{lambda_n}(X_v)
    lam = lam_mixed_program()
    lam2 = lam.shift().shift()
    for w, v in (("4", "5"), ("45", "1"), ("45", "23")):
        if len(w) != 2:
            cur = lam.shift()
            lhs = UP.cylinder_mass(lam, w + v[:0])  # guard: only 2-level prefix used below
            continue
        lhs = UP.cylinder_mass(lam, w + v)
        rhs = UP.cylinder_mass(lam, w) * UP.cylinder_mass(lam2, v)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_normal_derivative_q0():
    lam1 = UP.TriadicLambda(1)
    assert UP.normal_derivative_q0(lam1, UP.constant_upper(lam1, 3.0)) == pytest.approx(0.0, abs=1e-12)
    h0 = UP.UpperBoundaryData(lam1, q0=1.0, default=0.0)
    eta = UP.eta_of(lam1)
    assert UP.normal_derivative_q0(lam1, h0) == pytest.approx(eta, rel=1e-13)
    ind3 = UP.UpperBoundaryData(lam1, q0=0.0, cylinders={"3": 1.0}, default=0.0)
    w = UP.measure_weights(lam1)
    assert UP.normal_derivative_q0(lam1, ind3) == pytest.approx(-eta * w[3], rel=1e-12)
    # from the alpha(1) radical: eta(1) = (sqrt(2353)-15)/14 = 2.3934094,
    # mu_3 = (3+eta)/(9+2eta): product 0.9363028 (see ledger on rounding)
    eta_exact = (math.sqrt(2353) - 15) / 14
    mu3_exact = (3 + eta_exact) / (9 + 2 * eta_exact)
    assert -eta * w[3] == pytest.approx(-eta_exact * mu3_exact, abs=1e-9)


def test_extend_step_cases():
    lam12 = UP.TriadicLambda(F(1, 2))
    ones = UP.constant_upper(lam12, 1.0)
    step = UP.extend_step_upper(lam12, ones)
    assert all(v == pytest.approx(1.0, abs=1e-13) for v in step.values())
    h0 = UP.UpperBoundaryData(lam12, q0=1.0, default=0.0)
    eta_r = UP.eta_of(lam12.shift())
    step = UP.extend_step_upper(lam12, h0)
    assert step[4] == pytest.approx(1 / (1 + eta_r), rel=1e-13)
    lam1 = UP.TriadicLambda(1)
    h0 = UP.UpperBoundaryData(lam1, q0=1.0, default=0.0)
    eta_r = UP.eta_of(lam1.shift())
    step = UP.extend_step_upper(lam1, h0)
    assert step[3] == pytest.approx(
        (6 + 2 * eta_r) / (6 + 15 * eta_r + 3 * eta_r ** 2), rel=1e-13
    )
    closed = UP.h0_crucial_values(lam1)
    for d in (1, 2, 3):
        assert step[d] == pytest.approx(closed[d], rel=1e-13)


def test_evaluate_upper():
    lam12 = UP.TriadicLambda(F(1, 2))
    h0 = UP.UpperBoundaryData(lam12, q0=1.0, default=0.0)
    a = UP.eta_alpha(lam12).alpha
    p4 = G.apply_word(G.gasket(3), (4,), G.Q0)
    assert UP.evaluate_upper(lam12, h0, p4) == pytest.approx(a, rel=1e-12)
    p44 = G.apply_word(G.gasket(3), (4, 4), G.Q0)
    assert UP.evaluate_upper(lam12, h0, p44) == pytest.approx(a * a, rel=1e-12)
    const = UP.constant_upper(lam12, 2.5)
    assert UP.evaluate_upper(lam12, const, p44) == pytest.approx(2.5, abs=1e-13)
    with pytest.raises(ResolutionError):
        UP.evaluate_upper(lam12, h0, G.Q1)  # below the cut


def test_evaluate_vs_oracle_lambda1():
    lam1 = UP.TriadicLambda(1)
    f = UP.UpperBoundaryData(
        lam1, q0=0.5, cylinders={"1": 1.0, "2": -0.5, "3": 0.25}, default=0.0
    )
    step = UP.extend_step_upper(lam1, f)
    errs = []
    for m in (3, 4, 5):
        sk = O.domain_restricted_graph(G.UpperDomain(cut_y=F(0)), m)
        def bval(p):
            if p == G.Q0:
                return f.q0
            return UP.boundary_value_at_upper(lam1, f, p)
        vals = O.solve(sk.problem(bval), mode="float")
        crucial = UP._crucial_points(G.gasket(3))
        errs.append(max(
            abs(step[d] - vals[sk.graph.vertex_id(crucial[d])]) for d in step
        ))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 2e-2


def test_h0_flux_factorizes_through_measure():
    lams = [UP.TriadicLambda(1), UP.TriadicLambda(F(2, 3)), lam_mixed_program()]
    for lam in lams:
        eta = UP.eta_of(lam)
        h0 = UP.UpperBoundaryData(lam, q0=1.0, default=0.0)
        words = []
        cur = lam
        pool = [""]
        for _ in range(3):
            nxt = []
            for w in pool:
                c = lam
                for ch in w:
                    c = c.shift()
                for d in UP.level_alphabet(c):
                    nxt.append(w + G.WORD_CHARS[d])
            words += nxt
            pool = nxt
        for w in words:
            pt = _f_lambda_point(lam, w)
            h0val = UP.evaluate_upper(lam, h0, pt)
            cur = lam
            for ch in w:
                cur = cur.shift()
            m_n = lam.pair(len(w))[0]
            lhs = float(UP.RATIO) ** m_n * UP.eta_of(cur) * h0val
            rhs = UP.cylinder_mass(lam, w) * eta
            assert lhs == pytest.approx(rhs, rel=1e-8)


def _f_lambda_point(lam, word):
    """F^lambda_w q_0 as an exact point."""
    params = G.gasket(3)
    digits = []
    cur = lam
    for ch in word:
        digits += [0] * (cur.m1 - 1) + [G.WORD_CHARS.index(ch)]
        cur = cur.shift()
    return G.apply_word(params, tuple(digits), G.Q0)


def test_haar_zero_mean_and_expand():
    lam1 = UP.TriadicLambda(1)
    for j in (1, 2):
        psi = UP.haar_data(lam1, "", j)
        assert UP.integrate_upper(psi).value == pytest.approx(0.0, abs=1e-14)
    const = UP.constant_upper(lam1, 4.0)
    b, coeffs = UP.haar_expand(lam1, const, 2)
    assert b == pytest.approx(4.0)
    assert all(abs(c) < 1e-14 for c in coeffs.values())
    psi1 = UP.haar_data(lam1, "", 1)
    b, coeffs = UP.haar_expand(lam1, psi1, 2)
    assert coeffs[("", 1)] == pytest.approx(1.0)
    assert sum(abs(c) for k, c in coeffs.items() if k != ("", 1)) < 1e-13
    ind = UP.UpperBoundaryData(lam1, q0=0.0, cylinders={"1": 1.0}, default=0.0)
    b, coeffs = UP.haar_expand(lam1, ind, 2)
    w = UP.measure_weights(lam1)
    assert b == pytest.approx(w[1])
    assert coeffs[("", 1)] == pytest.approx(0.5)
    assert coeffs[("", 2)] == pytest.approx(0.5)


def test_haar_and_energy_reject_negative_depth():
    lam1 = UP.TriadicLambda(1)
    f = UP.UpperBoundaryData(lam1, q0=0.0, cylinders={"1": 1.0}, default=0.0)
    with pytest.raises(ContractViolation, match="depth must be >= 0"):
        UP.haar_expand(lam1, f, -1)
    with pytest.raises(ContractViolation, match="depth must be >= 0"):
        UP.energy_estimate_upper(lam1, f.q0, f, -1)


def test_haar_reconstruction_random():
    rng = random.Random(6)
    for lam in (UP.TriadicLambda(1), lam_mixed_program()):
        cyl = {}
        def fill(cur, word, k):
            if k == 0:
                cyl[word] = rng.uniform(-2, 2)
                return
            for d in UP.level_alphabet(cur):
                fill(cur.shift(), word + G.WORD_CHARS[d], k - 1)
        fill(lam, "", 2)
        f = UP.UpperBoundaryData(lam, q0=0.0, cylinders=cyl)
        b, coeffs = UP.haar_expand(lam, f, 2)
        for word in cyl:
            assert UP.haar_reconstruct(lam, b, coeffs, word) == pytest.approx(
                cyl[word], abs=1e-11
            )


def test_energy_h0_band_and_gauss_green():
    for k in list(range(1, 21)):
        lam = UP.TriadicLambda(F(k, 21)) if k < 21 else UP.TriadicLambda(1)
        eta = UP.eta_of(lam)
        lo, hi = UP.h0_band(lam)
        assert lo <= eta < hi
        egg, rem = UP.gauss_green_h0_energy(lam, 14)
        assert egg + rem == pytest.approx(eta, rel=1e-12)
        assert abs(egg - eta) / eta < 1e-6


def test_energy_orthogonality():
    for lam in (UP.TriadicLambda(1), lam_mixed_program()):
        funcs = [("h0", None)]
        pool = [""]
        words = [""]
        for _ in range(2):
            nxt = []
            for w in pool:
                c = lam
                for ch in w:
                    c = c.shift()
                for d in UP.level_alphabet(c):
                    nxt.append(w + G.WORD_CHARS[d])
            words += nxt
            pool = nxt
        for w in words:
            c = lam
            for ch in w:
                c = c.shift()
            js = (1,) if c.iota1 == 1 else (1, 2)
            for j in js:
                funcs.append((w, j))
        datas = {}
        for key in funcs:
            if key == ("h0", None):
                datas[key] = (1.0, UP.constant_upper(lam, 0.0))
            else:
                datas[key] = (0.0, UP.haar_data(lam, key[0], key[1]))
        selfe = {
            key: UP.domain_energy_upper(lam, a, d) for key, (a, d) in datas.items()
        }
        for k1, k2 in itertools.combinations(funcs, 2):
            a1, d1 = datas[k1]
            a2, d2 = datas[k2]
            cross = UP.domain_energy_upper(lam, a1, d1, a2, d2)
            assert abs(cross) <= 1e-8 * math.sqrt(selfe[k1] * selfe[k2])


def test_energy_estimate_consistency():
    rng = random.Random(11)
    for lam in (UP.TriadicLambda(F(7, 10)), lam_mixed_program(), UP.TriadicLambda(1)):
        cyl = {}
        def fill(cur, word, k):
            if k == 0:
                cyl[word] = rng.uniform(-1, 1)
                return
            for d in UP.level_alphabet(cur):
                fill(cur.shift(), word + G.WORD_CHARS[d], k - 1)
        fill(lam, "", 2)
        f = UPdata = UP.UpperBoundaryData(lam, q0=0.7, cylinders=cyl, default=0.0)
        est = UP.energy_estimate_upper(lam, 0.7, f, 4)
        assert est.energy == pytest.approx(est.orthogonal_energy, rel=1e-9)
        assert est.bracket[0] <= est.energy * (1 + 1e-12)
        assert est.energy <= est.bracket[1] * (1 + 1e-12)
        assert est.weighted_sum > 0


def test_domain_energy_upper_rejects_callback_data():
    # callback data is never constant on a cylinder, so the energy
    # recursion would not end
    lam = UP.TriadicLambda(1)
    f = UP.UpperBoundaryData(lam, q0=0.0, fn=lambda w: 0.5, sup_bound=1.0)
    with pytest.raises(ContractViolation):
        UP.domain_energy_upper(lam, 0.0, f)


def test_empirical_generator_ratios():
    lo, hi = UP.empirical_generator_ratios()
    assert 0 < lo <= hi < float("inf")


def test_psi_energy_equals_generator():
    lam = lam_mixed_program()
    est = UP.energy_estimate_upper(lam, 0.0, UP.haar_data(lam, "", 1), 2)
    gen = UP.domain_energy_upper(lam, 0.0, UP.haar_data(lam, "", 1))
    assert est.energy == pytest.approx(gen, rel=1e-12)
    assert est.orthogonal_energy == pytest.approx(gen, rel=1e-9)


def test_cylinder_words_checked_against_level_alphabet():
    # lambda = 1 uses {1,2,3} at every level; lambda = 2/3 starts with {4,5}
    with pytest.raises(AddressError):
        UP.UpperBoundaryData(UP.TriadicLambda(1), q0=0.0, cylinders={"4": 1.0}, default=0.0)
    with pytest.raises(AddressError):
        UP.UpperBoundaryData(UP.TriadicLambda(1), cylinders={"15": 1.0}, default=0.0)
    with pytest.raises(AddressError):
        UP.UpperBoundaryData(UP.TriadicLambda(F(2, 3)), cylinders={"1": 1.0}, default=0.0)
    ok = UP.UpperBoundaryData(UP.TriadicLambda(F(2, 3)), cylinders={"53": 1.0}, default=0.0)
    assert ok.shifted(5, 0.0).cylinders == {"3": 1.0}
