"""The shared cylinder boundary-data type, checked on all three families:
property tests of restriction, integration and sup over random valid
cylinder sets, of the measures splitting over the children of random
words, and of batched routing."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketbvp import cylinder, geometry, harmonic, oracle
from gasketbvp import halfdomain as HD
from gasketbvp import lowerdomain as LD
from gasketbvp import upperdomain as UP
from gasketbvp.errors import AddressError, ContractViolation, ResolutionError
from graph_helpers import domain_cell_tree, domain_vertices, solve_full_gasket

F = Fraction


# ---------------------------------------------------------------------------
# property tests on random valid cylinder sets


def cycle(*alphabets):
    """Per-position alphabet (1-based) repeating the given digit strings."""
    return lambda k: alphabets[(k - 1) % len(alphabets)]


def head_then(first, rest):
    return lambda k: first if k == 1 else rest


# name: (data constructor, alphabet at position k, corner values of a
# sub-copy, exact arithmetic)
FAMILIES = {
    "half-sg3": (
        lambda cyl, default: HD.HalfBoundaryData(
            3, q1=default, cylinders=cyl, default=default, q0=default),
        cycle("03"), (F(0),), True),
    "upper-1": (
        lambda cyl, default: UP.UpperBoundaryData(
            UP.TriadicLambda(1), q0=default, cylinders=cyl, default=default),
        cycle("123"), (None,), False),
    "upper-2/3": (
        lambda cyl, default: UP.UpperBoundaryData(
            UP.TriadicLambda(F(2, 3)), q0=default, cylinders=cyl, default=default),
        head_then("45", "123"), (None,), False),
    "lower-1/2": (
        lambda cyl, default: LD.LowerBoundaryData(
            LD.BinaryLambda(F(1, 2)), q1=default, q2=default, cylinders=cyl, default=default),
        head_then("12", "0"), (None, None), True),
    "lower-1/3": (
        lambda cyl, default: LD.LowerBoundaryData(
            LD.BinaryLambda(F(1, 3)), q1=default, q2=default, cylinders=cyl, default=default),
        cycle("0", "12"), (None, None), False),
}

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, database=None)


def words(alphabet, min_len=0, max_len=3):
    """Valid words: each position's digit is picked from its alphabet."""
    return st.lists(st.integers(0, 5), min_size=min_len, max_size=max_len).map(
        lambda picks: "".join(
            alphabet(k)[n % len(alphabet(k))] for k, n in enumerate(picks, start=1)
        )
    )


def values(exact):
    return st.integers(-50, 50).map(lambda n: F(n, 7) if exact else n / 7)


@st.composite
def family_data(draw, name, constant=False):
    make, alphabet, _, exact = FAMILIES[name]
    default = draw(values(exact))
    value = st.just(default) if constant else values(exact)
    cyl = draw(st.dictionaries(words(alphabet), value, max_size=5))
    return make(cyl, default)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_shifted_subtree_matches_prefixed_subtree(name, data):
    _, alphabet, corners, _ = FAMILIES[name]
    f = data.draw(family_data(name))
    word = data.draw(words(alphabet, min_len=1, max_len=4))
    child = f.shifted(int(word[0]), *corners)
    assert child.subtree(word[1:]) == f.subtree(word)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_integral_of_constant_data_is_the_constant(name, data):
    exact = FAMILIES[name][3]
    f = data.draw(family_data(name, constant=True))
    c = f.default
    if name.startswith("half"):
        results = [HD.integrate(f)]
    elif name.startswith("upper"):
        results = [UP.integrate_upper(f)]
    else:
        results = [LD.integrate_lower(f, measure) for measure in (1, 2)]
    for value in results:
        if exact:
            assert value == c
        else:
            assert abs(value - c) <= 1e-12


@pytest.mark.parametrize("name", sorted(FAMILIES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_sup_bounds_every_cylinder_value(name, data):
    alphabet = FAMILIES[name][1]
    f = data.draw(family_data(name))
    sup = f.sup()
    for v in list(f.cylinders.values()) + [f.default]:
        assert abs(v) <= sup
    sub = f.subtree(data.draw(words(alphabet, max_len=4)))
    if sub is not None:
        assert abs(sub) <= sup


@pytest.mark.parametrize("name", sorted(FAMILIES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_constant_subtree_agrees_with_cylinders_below(name, data):
    alphabet = FAMILIES[name][1]
    f = data.draw(family_data(name))
    word = data.draw(words(alphabet, max_len=3))
    sub = f.subtree(word)
    if sub is not None:
        assert all(v == sub for c, v in f.cylinders.items() if c.startswith(word))


# ---------------------------------------------------------------------------
# data words hold at most MAX_RECURSION digits, and integrals reach them


def first_digits(alphabet, n):
    return "".join(alphabet(k)[0] for k in range(1, n + 1))


def integral_and_mass(name, f, word):
    if name.startswith("half"):
        return HD.integrate(f), f.st.word_weight(word)
    if name.startswith("upper"):
        return UP.integrate_upper(f), UP.cylinder_mass(f.lam, word)
    return LD.integrate_lower(f, 1), LD.lower_measures(f.lam, word)[0]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_cylinder_words_hold_at_most_max_recursion_digits(name):
    make, alphabet, _, exact = FAMILIES[name]
    one, zero = (F(1), F(0)) if exact else (1.0, 0.0)
    n = cylinder.MAX_RECURSION
    word = first_digits(alphabet, n)
    integral, mass = integral_and_mass(name, make({word: one}, zero), word)
    assert mass > 0
    assert integral == (mass if exact else pytest.approx(mass, rel=1e-12))
    with pytest.raises(ContractViolation, match="length 65 exceeds the 64-digit limit"):
        make({first_digits(alphabet, n + 1): one}, zero)


@pytest.mark.parametrize("level", [2, 3, 4])
def test_half_atom_words_hold_at_most_max_recursion_digits(level):
    n = cylinder.MAX_RECURSION
    digit = geometry.WORD_CHARS[HD.structure(level).alphabet[-1]]
    f = HD.HalfBoundaryData(level, atoms={digit * n: F(1)}, default=F(0))
    assert HD.integrate(f) == HD.atom_mass(level, digit * n)
    with pytest.raises(ContractViolation, match="atom word length 65 exceeds"):
        HD.HalfBoundaryData(level, atoms={digit * (n + 1): F(1)}, default=F(0))


def test_geometric_tail_starts_within_max_recursion_digits():
    # f(p_k) = 1 for k < n and 1 + (3/5)^k from n on: the atoms from depth
    # n on add sum_k mu(p_k) (3/5)^k = mu(p) (3 mu/5)^n / (1 - 3 mu/5)
    n = cylinder.MAX_RECURSION
    f = HD.HalfBoundaryData(2, q0=F(1), default=F(1), geometric_tail=(F(1), F(1), F(3, 5), n))
    mu = HD.residual_mass(2, 1)
    assert HD.integrate(f) == 1 + HD.atom_mass(2, "") * (F(3, 5) * mu) ** n / (1 - F(3, 5) * mu)
    with pytest.raises(ContractViolation, match="geometric tail start 65 exceeds"):
        HD.HalfBoundaryData(2, q0=F(1), geometric_tail=(F(1), F(1), F(3, 5), n + 1))


# ---------------------------------------------------------------------------
# the measures split over the children of random words


@pytest.mark.parametrize("level", [3, 4])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_half_measure_splits_into_children_and_atoms(level, data):
    s = HD.structure(level)
    digits = "".join(geometry.WORD_CHARS[i] for i in s.alphabet)
    word = data.draw(words(cycle(digits), max_len=4))
    children = sum(s.word_weight(word + d) for d in digits)
    atoms = sum(HD.atom_mass(level, word, j) for j in range(1, s.atom_count + 1))
    assert children + atoms == s.word_weight(word)


@pytest.mark.parametrize("name", ["upper-1", "upper-2/3"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_upper_measure_splits_and_integrates_indicators(name, data):
    make, alphabet = FAMILIES[name][:2]
    word = data.draw(words(alphabet, max_len=4))
    indicator = make({word: 1.0}, 0.0)
    mass = UP.cylinder_mass(indicator.lam, word)
    children = sum(UP.cylinder_mass(indicator.lam, word + d) for d in alphabet(len(word) + 1))
    assert abs(children - mass) <= 1e-12
    assert abs(UP.integrate_upper(indicator) - mass) <= 1e-12


@pytest.mark.parametrize("name", ["lower-1/2", "lower-1/3"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_lower_measures_split_and_integrate_indicators(name, data):
    make, alphabet, _, exact = FAMILIES[name]
    tol = 0 if exact else 1e-12
    word = data.draw(words(alphabet, max_len=4))
    indicator = make({word: F(1)}, F(0)) if exact else make({word: 1.0}, 0.0)
    masses = LD.lower_measures(indicator.lam, word)
    children = [LD.lower_measures(indicator.lam, word + d) for d in alphabet(len(word) + 1)]
    for i in (0, 1):
        assert abs(sum(c[i] for c in children) - masses[i]) <= tol
        assert abs(LD.integrate_lower(indicator, i + 1) - masses[i]) <= tol


def test_lower_measures_have_mass_one():
    assert LD.lower_measures(LD.BinaryLambda(F(1, 2)), "") == (1, 1)


# ---------------------------------------------------------------------------
# batched routing: one route over many points equals one route per point,
# and the per-point route of the reference below


def reference_value_in_cell(level, vals, p):
    """Descent of one point through the subcells: the first 1-cell
    containing it, extended from its parent's corner values."""
    params = geometry.gasket(level)
    point = (F(p[0]), F(p[1]))
    while point not in geometry.CORNERS:
        i = geometry.cells_containing(params, point)[0]
        ext = harmonic.cell_extension(level, vals)
        tr = params.int_translations[i]
        vals = tuple(ext[(x + int(tr[0]), y + int(tr[1]))] for x, y in geometry.CORNERS_INT)
        point = params.unapply_map(i, point)
    return vals[geometry.CORNERS.index(point)]


def reference_route(frame, f, p):
    """One point's walk: the node's one harmonic cell if it is one, else a
    boundary value, a V_1 value, the first full cell containing it, or else
    the first sub-copy containing it."""
    params = frame.params
    corners = frame.params.cell_corners
    contains = lambda i, p: geometry.cells_containing(params, params.unapply_map(i, p))
    while True:
        whole = frame.cell(f)
        if whole is not None:
            return reference_value_in_cell(frame.level, whole, p)
        value = frame.terminal(f, p)
        if value is not None:
            return value
        values = frame.values(f)
        if p in values:
            return values[p]
        for i in frame.full_cells():
            if contains(i, p):
                vals = tuple(values[q] for q in corners[i])
                return reference_value_in_cell(frame.level, vals, params.unapply_map(i, p))
        d = next(d for d in frame.copies() if contains(d, p))
        f = f.shifted(d, *(values[corners[d][s]] for s in frame.slots))
        frame, p = frame.shift(d), params.unapply_map(d, p)


def _route_case(name):
    """(data constructor (cylinders, default, corner), alphabet at position
    k, domain descriptor and skeleton level, exact data allowed, root frame,
    evaluator of one point, evaluator of a batch)."""
    family, arg = name.split(":")
    chars = lambda ds: "".join(geometry.WORD_CHARS[d] for d in ds)
    if family == "half":
        level = int(arg)
        return (
            lambda cyl, d, c: HD.HalfBoundaryData(level, q1=c, cylinders=cyl, default=d, q0=d),
            cycle(chars(HD.structure(level).alphabet)), geometry.HalfDomain(level),
            {2: 4, 3: 3, 4: 2}[level], True, HD.structure(level),
            HD.evaluate, HD.evaluate_many)
    if family == "upper":
        lam = UP.TriadicLambda(F(arg))
        return (
            lambda cyl, d, c: UP.UpperBoundaryData(lam, q0=c, cylinders=cyl, default=d),
            lambda k: chars(UP.word_alphabet(lam, k)), geometry.UpperDomain(cut_y=lam.cut_height()),
            3, False, UP.UpperFrame(lam),
            lambda f, p: UP.evaluate_upper(lam, f, p),
            lambda f, ps: UP.evaluate_upper_many(lam, f, ps))
    lam = LD.BinaryLambda(F(arg))
    return (
        lambda cyl, d, c: LD.LowerBoundaryData(lam, q1=c, q2=-c, cylinders=cyl, default=d),
        lambda k: chars(LD.word_alphabet(lam, k)), geometry.LowerDomain(cut_y=lam.cut_height()),
        4, lam.dyadic, LD.LowerFrame(lam),
        lambda f, p: LD.evaluate_lower(lam, f, p),
        lambda f, ps: LD.evaluate_lower_many(lam, f, ps))


ROUTE_CASES = (
    ["half:2", "half:3", "half:4"]
    + [f"upper:{lam}" for lam in ("1", "2/3", "5/9", "1/4", "1/9")]
    + [f"lower:{lam}" for lam in ("1/2", "1/3", "5/8")]
)


@functools.lru_cache(maxsize=None)
def skeleton_points(name):
    _, _, domain, m, *_ = _route_case(name)
    g = oracle.domain_restricted_graph(domain, m).graph
    return tuple(g.point(i) for i in range(g.n_vertices()))


@pytest.mark.parametrize("name", ROUTE_CASES)
def test_domain_readers_agree(name):
    """The frame's domain, classify_boundary, the skeleton's boundary and
    the evaluators' domain check read one descriptor: no skeleton vertex is
    outside, the boundary ids are exactly its cut-line and corner vertices,
    and the batched evaluator rejects every gasket vertex outside."""
    make, _, domain, m, _, frame, _, many = _route_case(name)
    assert frame.domain == domain
    sk = oracle.domain_restricted_graph(domain, m)
    kinds = [geometry.classify_boundary(domain, sk.graph.point(i))
             for i in range(sk.graph.n_vertices())]
    assert geometry.OUTSIDE not in kinds
    assert dict(zip(sk.boundary_ids.tolist(), sk.boundary_kinds)) == {
        i: k for i, k in enumerate(kinds) if k != geometry.INTERIOR}
    assert len(sk.boundary_kinds) == len(set(sk.boundary_ids.tolist()))
    full = geometry.build_graph(domain.params, m)
    outside = [p for p in map(full.point, range(full.n_vertices()))
               if geometry.classify_boundary(domain, p) == geometry.OUTSIDE]
    # lambda = 1 cuts the upper domain at y = 0, so it is the whole gasket
    assert bool(outside) == (name != "upper:1")
    f = make({}, 0, 0)
    for p in outside:
        with pytest.raises(ResolutionError, match="lies outside the closed"):
            many(f, [p])


@pytest.mark.parametrize("name", ROUTE_CASES)
def test_evaluators_reject_points_off_the_gasket(name):
    make, _, domain, *_, many = _route_case(name)
    l = domain.level
    # the centroid of a removed triangle, at barycentric coordinates
    # (2/3, 2/3, l - 4/3) / l, and a point left of the outer triangle
    for p in ((F(2 * (l - 1), l), F(4, 3 * l)), (F(-1), F(0))):
        assert not geometry.cells_containing(domain.params, p)
        with pytest.raises(AddressError, match="lies outside the gasket"):
            many(make({}, 0, 0), [p])


@pytest.mark.parametrize("name", ROUTE_CASES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_batched_route_matches_one_point_route(name, data):
    make, alphabet, _, _, exact_ok, frame, one, many = _route_case(name)
    exact = exact_ok and data.draw(st.booleans())
    f = make(
        data.draw(st.dictionaries(words(alphabet), values(exact), max_size=4)),
        data.draw(values(exact)), data.draw(values(exact)))
    points = skeleton_points(name)
    picked = data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=12, unique=True))
    batch = many(f, picked)
    for p, v in zip(picked, batch):
        for single in (one(f, p), reference_route(frame, f, p)):
            assert type(v) is type(single)
            assert v == single and repr(v) == repr(single)


# the skeleton levels, and levels at which an upper domain's dilation into
# F_0^n reaches level m at the root (1/9, 1/27, 5/27, 1/4) or in a copy (4/9)
WALK_CASES = [(name, None) for name in ROUTE_CASES + ["lower:0"]] + [
    ("upper:1/9", 2), ("upper:1/27", 3), ("upper:5/27", 2), ("upper:1/4", 2),
    ("upper:4/9", 1), ("upper:4/9", 2), ("upper:1/3", 1), ("upper:1", 1),
    ("half:3", 1), ("lower:1/2", 1), ("lower:0", 1),
]


@pytest.mark.parametrize("name,level", WALK_CASES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_walk_matches_evaluate(name, level, data):
    """The walk's rows are the vertices `domain_vertices` lists, and the
    value of each is the evaluator's: equal, of the same type and with the
    same repr (bit-identical floats)."""
    make, alphabet, domain, m, exact_ok, frame, _, many = _route_case(name)
    exact = exact_ok and data.draw(st.booleans())
    f = make(
        data.draw(st.dictionaries(words(alphabet), values(exact), max_size=4)),
        data.draw(values(exact)), data.draw(values(exact)))
    assert_walk_matches_evaluate(frame, f, domain, level or m, many)


def walk_values(frame, f, m):
    """{(x, y): value} of the walk's rows, an exact numerator and its
    denominator read as a Fraction."""
    return {key: n if den is None else F(n, den)
            for key, (_, _, n, den) in cylinder.walk(frame, f, m).items()}


def assert_walk_matches_evaluate(frame, f, domain, m, many):
    walked = walk_values(frame, f, m)
    keys = [(x, y) for x, y, _ in domain_vertices(domain, m)]
    assert sorted(walked) == keys
    s = domain.level ** m
    for key, v in zip(keys, many(f, [(F(x, s), F(y, s)) for x, y in keys])):
        w = walked[key]
        assert type(w) is type(v)
        assert w == v and repr(w) == repr(v)
    return walked


# each family's levels up to where the reference listing stays cheap
ROW_CASES = [(f"half:{l}", m) for l, top in ((2, 6), (3, 4), (4, 3)) for m in range(1, top + 1)] + [
    (f"{name}:{lam}", m) for name, lams, top in (("upper", ("1", "2/3", "1/9"), 4),
                                                 ("lower", ("1/2", "1/3", "0"), 6))
    for lam in lams for m in range(1, top + 1)]


@pytest.mark.parametrize("name,level", ROW_CASES)
@settings(max_examples=4, deadline=None, database=None)
@given(data=st.data())
def test_walk_rows_match_the_reference_listing(name, level, data):
    """The walk's rows are `domain_vertices`' vertices with their addresses,
    (x, y, word, corner), in (x, y) order: the least (word, corner) over the
    level-m cells in the closed domain, though the walk also reaches points
    that no such cell holds (a node's V_1 points), and the refusals of
    `check_domain_level` are the reference's."""
    make, alphabet, domain, _, exact_ok, frame, _, _ = _route_case(name)
    exact = exact_ok and data.draw(st.booleans())
    f = make(data.draw(st.dictionaries(words(alphabet), values(exact), max_size=4)),
             data.draw(values(exact)), data.draw(values(exact)))
    try:
        want = [(x, y, geometry.word_to_str(a.word), a.corner)
                for x, y, a in domain_vertices(domain, level)]
    except ResolutionError as exc:
        with pytest.raises(ResolutionError, match=str(exc)):
            geometry.check_domain_level(domain, level)
        return
    geometry.check_domain_level(domain, level)
    rows = cylinder.walk(frame, f, level)
    assert [(x, y, *rows[x, y][:2]) for x, y in sorted(rows)] == want


@pytest.mark.parametrize("name", ["half:2", "half:3", "half:4", "lower:1/2", "lower:5/8"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_walk_matches_evaluate_on_integer_data(name, data):
    """Python ints are exact data too: the walk extends its cells in integer
    numerators and the cut line averages exactly, so every value is an int
    or a Fraction, equal to the evaluator's with the same type and repr."""
    make, alphabet, domain, m, _, frame, _, many = _route_case(name)
    ints = st.integers(-50, 50)
    f = make(data.draw(st.dictionaries(words(alphabet), ints, max_size=4)),
             data.draw(ints), data.draw(ints))
    walked = assert_walk_matches_evaluate(frame, f, domain, m, many)
    assert {type(v) for v in walked.values()} <= {int, F}


def test_cut_line_values_of_integer_data_are_exact():
    """Cut-line values of int data are exact: one cylinder's value, or at a
    junction of two cylinders (upper lambda = 2/3, the point (1, 2/3)
    between X_4 and X_5) their exact mean."""
    lam = LD.BinaryLambda(F(1, 2))
    f = LD.LowerBoundaryData(lam, q1=1, q2=-2, cylinders={"1": 3, "2": -1}, default=0)
    walked = walk_values(LD.LowerFrame(lam), f, 2)
    assert [walked[2, 4], walked[6, 4]] == [3, -1]
    assert type(walked[2, 4]) is type(walked[6, 4]) is F
    lam = UP.TriadicLambda(F(2, 3))
    f = UP.UpperBoundaryData(lam, q0=1, cylinders={"4": 1, "5": 2}, default=0)
    for got in (walk_values(UP.UpperFrame(lam), f, 2)[9, 6],
                UP.evaluate_upper_many(lam, f, [(F(1), F(2, 3))])[0]):
        assert got == F(3, 2) and type(got) is F


@PROPERTY_SETTINGS
@given(data=st.data())
def test_lower_lambda_zero_is_one_harmonic_cell(data):
    """At lambda = 0 the lower domain is the whole gasket and X is the point
    q0, where f is the value of its deepest cylinder: the batch equals the
    harmonic function with corner values (f(q0), q1, q2), cell by cell and,
    on exact data, the full-gasket oracle."""
    lam = LD.BinaryLambda(0)
    exact = data.draw(st.booleans())
    cyl = data.draw(st.dictionaries(st.integers(0, 3).map(lambda n: "0" * n), values(exact),
                                    max_size=3))
    default, q1, q2 = (data.draw(values(exact)) for _ in range(3))
    f = LD.LowerBoundaryData(lam, q1=q1, q2=q2, cylinders=cyl, default=default)
    corners = (cyl[max(cyl, key=len)] if cyl else default, q1, q2)
    graph, solution = solve_full_gasket(
        geometry.gasket(2), 3, corners, mode="rational" if exact else "float")
    ids = data.draw(st.permutations(range(graph.n_vertices())))
    points = [graph.point(i) for i in ids]
    for i, p, v in zip(ids, points, LD.evaluate_lower_many(lam, f, points)):
        cell = harmonic.harmonic_value_in_cell(2, corners, p)
        assert type(v) is type(cell)
        assert v == cell and repr(v) == repr(cell)
        if exact:
            assert v == solution[i]
        else:
            assert v == pytest.approx(float(solution[i]), abs=1e-12)


# ---------------------------------------------------------------------------
# the boundary values of the oracle: one batched integer descent equals the
# one-point lookup, and the per-point Fraction lookup of the reference below


def reference_cut_value(frame, f, p):
    """One cut-line point located from the root in Fractions: every copy
    whose cell holds it, depth first, averaged at a junction."""
    params = frame.params
    vals = []

    def rec(frame, data, p):
        sub = data.subtree("")
        if sub is not None:
            vals.append(sub)
            return
        for d in frame.copies():
            local = params.unapply_map(d, p)
            if geometry.cells_containing(params, local):
                rec(frame.shift(d), data.shifted(d, *(None,) * len(frame.slots)), local)

    rec(frame, f, p)
    return sum(vals) / len(vals)


def reference_atom_value(f, p):
    """One half-domain cut-line point: the atom found by following the first
    cylinder cell containing it, in Fractions, or q0."""
    st_, word = f.st, ""
    while p != geometry.Q0 and p not in st_.atom_points:
        i = next(i for i in geometry.cells_containing(st_.params, p) if i in st_.alphabet)
        word, p = word + geometry.WORD_CHARS[i], st_.params.unapply_map(i, p)
    return f.q0 if p == geometry.Q0 else f.atom(word, st_.atom_points.index(p) + 1)


def reference_terminal(frame, f, p):
    for c, v in zip(frame.domain.corners, frame.corner_values(f)):
        if p == geometry.CORNERS[c]:
            return v
    if isinstance(frame, HD.HalfStructure):
        return reference_atom_value(f, p)
    return reference_cut_value(frame, f, p)


# junctions of two cylinders on every cut, and upper cuts whose domain sits
# in F_0 (1/9, 4/9 in a copy) or F_0 F_0 (1/9)
BOUNDARY_CASES = (
    ["half:2", "half:3", "half:4"]
    + [f"upper:{lam}" for lam in ("1", "2/3", "1/2", "1/9", "4/9")]
    + [f"lower:{lam}" for lam in ("1/2", "1/3")]
)


@pytest.mark.parametrize("name", BOUNDARY_CASES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_boundary_batch_matches_one_point_lookup(name, data):
    """At every boundary vertex of `domain_cell_tree` (the corners marked in
    its level-m rows), `terminals` gives the one-point `terminal` and the
    reference lookup: equal, of the same type and with the same repr."""
    make, alphabet, domain, _, _, frame, *_ = _route_case(name)
    exact = data.draw(st.booleans())
    f = make(
        data.draw(st.dictionaries(words(alphabet, max_len=4), values(exact), max_size=5)),
        data.draw(values(exact)), data.draw(values(exact)))
    m = data.draw(st.integers(1, 5))
    cells = domain_cell_tree(domain, m)
    ends = list(dict.fromkeys(
        (x + qx, y + qy) for x, y, bits in cells[m]
        for j, (qx, qy) in enumerate(geometry.CORNERS_INT) if bits >> j & 1))
    s = domain.level ** m
    for (x, y), v in zip(ends, frame.terminals(f, ends, s)):
        p = (F(x, s), F(y, s))
        for single in (frame.terminal(f, p), reference_terminal(frame, f, p)):
            assert type(v) is type(single)
            assert v == single and repr(v) == repr(single)
