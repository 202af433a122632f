import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketbvp import geometry as G
from gasketbvp import halfdomain as HD
from gasketbvp import harmonic as H
from gasketbvp.errors import AddressError, CapabilityError, ResolutionError
from graph_helpers import domain_vertices, min_degree_solve


def F(a, b=1):
    return Fraction(a, b)


def test_map_count():
    for l in (2, 3, 4, 5):
        assert G.gasket(l).map_count == (l * l + l) // 2


def test_corner_maps_fix_corners():
    for l in (2, 3, 4):
        p = G.gasket(l)
        for i in range(3):
            assert p.apply_map(i, G.CORNERS[i]) == G.CORNERS[i]


def test_sg3_translation_convention():
    # F_3 shifts by (q1+q2)/3, F_4 by (q0+q2)/3, F_5 by (q0+q1)/3
    p = G.gasket(3)
    thirds = lambda a, b: ((a[0] + b[0]) / 3, (a[1] + b[1]) / 3)
    assert p.translations[3] == thirds(G.Q1, G.Q2)
    assert p.translations[4] == thirds(G.Q0, G.Q2)
    assert p.translations[5] == thirds(G.Q0, G.Q1)


def test_apply_word_examples():
    p2 = G.gasket(2)
    assert G.apply_word(p2, (), G.Q1) == G.Q1
    assert G.apply_word(p2, (1,), G.Q1) == G.Q1
    mid = ((G.Q0[0] + G.Q1[0]) / 2, (G.Q0[1] + G.Q1[1]) / 2)
    assert G.apply_word(p2, (0,), G.Q1) == mid
    with pytest.raises(AddressError):
        p2.apply_map(3, G.Q1)


def test_level_cap():
    with pytest.raises(CapabilityError):
        G.gasket(9)
    with pytest.raises(CapabilityError):
        G.gasket(1)


def test_build_graph_counts():
    g = G.build_graph(G.gasket(2), 0)
    assert g.n_vertices() == 3 and len(g.edges) == 3
    g2 = G.build_graph(G.gasket(2), 2)
    assert g2.n_vertices() == 15
    g31 = G.build_graph(G.gasket(3), 1)
    assert g31.n_vertices() == 10 and len(g31.edges) == 18


def test_edges_deduplicated():
    for l, m in ((2, 3), (3, 2)):
        g = G.build_graph(G.gasket(l), m)
        seen = {tuple(sorted(e)) for e in g.edges.tolist()}
        assert len(seen) == len(g.edges)


def test_degrees():
    # corners have degree 2; junctions degree 4; for l >= 3 the subdivision
    # centres sit in three cells and have degree 6.
    expected = {2: {2, 4}, 3: {2, 4, 6}, 4: {2, 4, 6}}
    for l, allowed in expected.items():
        for m in range(0, 5):
            g = G.build_graph(G.gasket(l), m)
            degs = set(g.degrees().tolist())
            assert degs <= allowed
            for c in G.CORNERS_INT:
                vid = g.vertex_id((F(c[0]), F(c[1])))
                assert g.degrees()[vid] == 2


def test_contraction_diameter():
    # squared diameter of F_w SG_l is l^(-2|w|) * 5 exactly
    rng = random.Random(7)
    for l in (2, 3):
        p = G.gasket(l)
        for _ in range(10):
            w = tuple(rng.randrange(p.map_count) for _ in range(rng.randrange(1, 5)))
            cs = [G.apply_word(p, w, q) for q in G.CORNERS]
            d2 = max(
                (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
                for a in cs
                for b in cs
            )
            assert d2 == Fraction(5, l ** (2 * len(w)))


def test_canonicalization_properties():
    rng = random.Random(11)
    for l in (2, 3):
        p = G.gasket(l)
        addrs = [
            G.VertexAddress(
                tuple(rng.randrange(p.map_count) for _ in range(rng.randrange(0, 6))),
                rng.randrange(3),
            )
            for _ in range(40)
        ]
        for a in addrs:
            ca = G.canonicalize(p, a)
            assert G.canonicalize(p, ca) == ca
            assert G.resolve(p, ca) == G.resolve(p, a)
        # coordinate equality iff canonical equality (same word length)
        for a in addrs:
            for b in addrs:
                if len(a.word) != len(b.word):
                    continue
                same_pt = G.resolve(p, a) == G.resolve(p, b)
                same_canon = G.canonicalize(p, a) == G.canonicalize(p, b)
                assert same_pt == same_canon


def test_addresses_and_domains_are_frozen_records():
    a = G.VertexAddress((0, 2), 1)
    assert a == G.VertexAddress((0, 2), 1, canonical=False) != G.VertexAddress((0, 2), 1, True)
    assert hash(a) == hash(G.VertexAddress((0, 2), 1))
    assert repr(a) == "VertexAddress(word=(0, 2), corner=1, canonical=False)" and str(a) == "02:1"
    d = G.HalfDomain(3)
    assert d == G.Domain(3, 0, F(1), -1, (1,)) and hash(d) == hash(G.HalfDomain(3))
    assert repr(d) == "Domain(level=3, axis=0, cut=Fraction(1, 1), side=-1, corners=(1,))"
    assert d.params is G.gasket(3)
    for record, field in ((a, "corner"), (d, "cut"), (a, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


def test_alias_of_shared_midpoint():
    p = G.gasket(2)
    a = G.VertexAddress((0,), 1)  # F_0 q_1 == F_1 q_0
    b = G.VertexAddress((1,), 0)
    assert G.canonicalize(p, a) == G.canonicalize(p, b)
    assert G.canonicalize(p, b).word == (0,)


def test_renormalization_factors():
    assert G.renormalization_factor(2) == F(3, 5)
    assert G.renormalization_factor(3) == F(7, 15)
    # the generic derivation must reproduce the closed-form levels
    for l in (2, 3):
        p = G.gasket(l)
        vals = G._gamma1_harmonic_values(p, (F(1), F(0), F(0)))
        g = G.build_graph(p, 1)
        e1 = sum(
            (vals[tuple(map(int, g.verts[i]))] - vals[tuple(map(int, g.verts[j]))]) ** 2
            for i, j in g.edges
        )
        assert e1 / 2 == G.renormalization_factor(l)
    r4 = G.renormalization_factor(4)
    assert 0 < r4 < 1 and r4.denominator < 10**6


def direct_gamma1_solve(params, corner_values):
    """The Gamma_1 Dirichlet problem for the given corner values, solved
    exactly on its own by the minimum-degree eliminator: the reference for
    the shared unit basis."""
    corner_pts = {cell[c]: c for c, cell in enumerate(params.cell_points[:3])}
    rows, rhs = {}, {}
    for k, nb in G.gamma1_neighbors(params.level).items():
        if k in corner_pts:
            continue
        row = rows[k] = {k: len(nb)}
        rhs[k] = F(0)
        for q in nb:
            if q in corner_pts:
                rhs[k] += corner_values[corner_pts[q]]
            else:
                row[q] = row.get(q, 0) - 1
    out = {k: corner_values[c] for k, c in corner_pts.items()}
    out.update(min_degree_solve(rows, rhs))
    return out


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6, 7, 8])
def test_gamma1_extension_from_the_basis_equals_its_own_solve(l):
    """Every Gamma_1 extension is read off one cached basis, equal (and in
    the same key order) to the Dirichlet problem solved for its data: the
    unit triples, h_a's (0, 1, -1) and random exact triples."""
    p = G.gasket(l)
    rng = random.Random(l)
    triples = [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)), (F(0), F(1), F(-1))]
    triples += [tuple(F(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(3)) for _ in range(4)]
    for values in triples:
        got, want = G._gamma1_harmonic_values(p, values), direct_gamma1_solve(p, values)
        assert list(got) == list(want)
        assert got == want


def test_gamma1_is_solved_once_per_level(monkeypatch):
    """The renormalization factor, the half frame's h_a and the extension
    weights of a level share one exact solve on Gamma_1."""
    calls = []
    solve = G.solve
    monkeypatch.setattr(G, "solve", lambda c, g, b: calls.append(len(c)) or solve(c, g, b))
    monkeypatch.setattr(H, "_BASIS_CACHE", {})
    G.gamma1_basis.cache_clear()
    G.renormalization_factor.cache_clear()
    for l in (3, 5):
        HD.HalfStructure(l)
        H.extension_basis(l)
    assert calls == [7, 18]


@pytest.mark.parametrize("l", range(2, G.MAX_LEVEL + 1))
def test_level1_table_matches_build_graph(l):
    """The level-1 table against the vectorised graph builder at m = 1."""
    p = G.gasket(l)
    assert not any(isinstance(v, np.ndarray) for v in vars(p).values())
    g = G.build_graph(p, 1)
    pts = [tuple(v) for v in g.verts.tolist()]
    nbrs = G.gamma1_neighbors(l)
    assert list(nbrs) == pts
    for i, q in enumerate(pts):
        assert sorted(nbrs[q]) == sorted(pts[j] for j in g.neighbors(i).tolist())
    coords = G._cell_corner_coords(p, 1).tolist()
    assert p.cell_points == tuple(tuple(map(tuple, cell)) for cell in coords)
    assert p.cell_corners == tuple(
        tuple(G.apply_word(p, (i,), q) for q in G.CORNERS) for i in range(p.map_count)
    )
    # q0, q1, q2 at slots 0-2, and V_1 numbered densely: one slot per point
    assert [p.cell_slots[c][c] for c in range(3)] == [0, 1, 2]
    slot_of = {}
    for cell, slots in zip(p.cell_points, p.cell_slots):
        for q, s in zip(cell, slots):
            assert slot_of.setdefault(q, s) == s
    assert sorted(slot_of.values()) == list(range(len(pts)))


@pytest.mark.parametrize("l,m", [(3, 9), (8, 6)])
def test_graph_cap_counts_cells(l, m):
    # 6**9 and 36**6 cells exceed 3**14, the count of SG at the level cap;
    # refused before any array is allocated
    with pytest.raises(ResolutionError, match=f"has {G.gasket(l).map_count ** m} cells"):
        G.domain_graph(G.HalfDomain(l), m)


def test_classify_half_sg3():
    d = G.HalfDomain(3)
    p = d.params
    assert G.classify_boundary(d, G.VertexAddress((), 1)) == G.CORNER
    p_empty = G.apply_word(p, (3,), G.Q0)
    assert G.classify_boundary(d, p_empty) == G.CANTOR
    assert G.classify_boundary(d, G.VertexAddress((), 0)) == G.CANTOR  # q0 is on X
    assert G.classify_boundary(d, G.VertexAddress((1,), 0)) == G.INTERIOR
    assert G.classify_boundary(d, G.VertexAddress((), 2)) == G.OUTSIDE


def test_classify_lower_and_upper():
    low = G.LowerDomain(cut_y=F(1))  # lambda = 1/2
    assert G.classify_boundary(low, G.VertexAddress((1,), 2)) == G.INTERIOR
    assert G.classify_boundary(low, G.VertexAddress((1,), 0)) == G.CANTOR
    assert G.classify_boundary(low, G.VertexAddress((), 1)) == G.CORNER
    assert G.classify_boundary(low, G.VertexAddress((), 0)) == G.OUTSIDE
    up = G.UpperDomain(cut_y=F(0))  # lambda = 1
    assert G.classify_boundary(up, G.VertexAddress((), 0)) == G.CORNER
    assert G.classify_boundary(up, G.VertexAddress((), 1)) == G.CANTOR
    g3 = G.gasket(3)
    centre = G.apply_word(g3, (3,), G.Q0)
    assert G.classify_boundary(up, centre) == G.INTERIOR


def test_classify_rejects_non_gasket_point():
    with pytest.raises(AddressError):
        G.classify_boundary(G.HalfDomain(3), (F(1), F(1)))


def test_domain_graph_half_sg3():
    d = G.HalfDomain(3)
    g = G.domain_graph(d, 1)
    # O_1 = F_1 SG_3 union F_5 SG_3: five distinct vertices
    assert g.n_vertices() == 5 and len(g.edges) == 6


@pytest.mark.parametrize("domain,m", [
    (G.HalfDomain(2), 5), (G.HalfDomain(3), 3), (G.HalfDomain(4), 2),
    (G.UpperDomain(cut_y=F(2, 3)), 3), (G.LowerDomain(cut_y=F(1, 2)), 4),
], ids=["half-sg", "half-sg3", "half-l4", "upper-2_3", "lower-3_4"])
def test_domain_graph_vertices_in_xy_order(domain, m):
    # solve prints its rows in this order
    pts = [(int(x), int(y)) for x, y in G.domain_graph(domain, m).verts]
    assert all(a < b for a, b in zip(pts, pts[1:]))


# levels kept to a few thousand cells, so that each example stays fast
VERTEX_LEVELS = {2: 6, 3: 4, 4: 3, 5: 3}


@st.composite
def cut_domains(draw):
    kind = draw(st.sampled_from(["half", "upper", "lower"]))
    if kind == "half":
        domain = G.HalfDomain(draw(st.integers(2, 5)))
    elif kind == "upper":
        j = draw(st.integers(0, 4))
        lam = F(draw(st.integers(1, 3 ** j)), 3 ** j)
        domain = G.UpperDomain(cut_y=2 - 2 * lam)
    else:
        j = draw(st.integers(0, 5))
        lam = draw(st.just(F(1, 3)) | st.integers(0, 2 ** j - 1).map(lambda k: F(k, 2 ** j)))
        domain = G.LowerDomain(cut_y=2 - 2 * lam)
    return domain, draw(st.integers(1, VERTEX_LEVELS[domain.level]))


@settings(max_examples=60, deadline=None, database=None)
@given(case=cut_domains())
def test_domain_vertices_match_domain_graph(case):
    domain, m = case
    try:
        g = G.domain_graph(domain, m)
    except ResolutionError as exc:
        with pytest.raises(ResolutionError, match=str(exc)):
            domain_vertices(domain, m)
        return
    want = [(int(x), int(y), g.address(i)) for i, (x, y) in enumerate(g.verts)]
    assert domain_vertices(domain, m) == want


@pytest.mark.parametrize("m", [0, -1])
def test_domain_vertices_need_level_one(m):
    with pytest.raises(ResolutionError, match="domain restriction needs m >= 1"):
        domain_vertices(G.HalfDomain(3), m)


@pytest.mark.parametrize("domain", [G.LowerDomain(cut_y=F(1, 2)), G.UpperDomain(cut_y=F(16, 9))],
                         ids=["lower-3_4", "upper-1_9"])
def test_domain_vertices_without_contained_cells(domain):
    # no 1-cell lies wholly below y = 1/2 in SG, or above y = 16/9 in SG_3
    with pytest.raises(ResolutionError, match="no cells of this level are contained"):
        domain_vertices(domain, 1)


def test_domain_vertices_check_the_cap_before_walking(monkeypatch):
    monkeypatch.setattr(G, "_closed_side", lambda *a: pytest.fail("walked past the cap"))
    with pytest.raises(ResolutionError, match=f"level 9 of SG_3 has {6 ** 9} cells"):
        domain_vertices(G.HalfDomain(3), 9)


def test_export_csv(tmp_path):
    g = G.build_graph(G.gasket(2), 1)
    e, v = tmp_path / "edges.csv", tmp_path / "verts.csv"
    G.export_graph_csv(g, e, v)
    lines = v.read_text().strip().splitlines()
    assert lines[0] == "vertex_id,word,corner,x,y"
    assert len(lines) == 1 + g.n_vertices()
    # deterministic output
    G.export_graph_csv(g, tmp_path / "e2.csv", tmp_path / "v2.csv")
    assert (tmp_path / "e2.csv").read_text() == e.read_text()


def test_vertex_lookup_on_unsorted_vertices():
    g = G.build_graph(G.gasket(2), 2)
    perm = np.random.default_rng(3).permutation(g.n_vertices())
    shuffled = G.Graph(g.params, 2, g.verts[perm], g.edges, g.rep_cell[perm], g.rep_corner[perm])
    idx = shuffled.index()
    assert len(idx) == g.n_vertices()
    for i in range(g.n_vertices()):
        x, y = (int(c) for c in shuffled.verts[i])
        assert idx[(x, y)] == i
        assert idx.get((x, y)) == i
        assert shuffled.vertex_id(shuffled.point(i)) == i


def test_vertex_lookup_misses():
    g = G.build_graph(G.gasket(2), 2)  # coordinates scaled by 4
    idx = g.index()
    for key in ((1, 1), (0, 5), (-1, 0), (9, 0), (4, 9), (10**30, 0)):
        assert key not in idx and idx.get(key) is None
        with pytest.raises(KeyError):
            idx[key]
    with pytest.raises(AddressError):  # not on the level-2 lattice
        g.vertex_id((F(1, 8), F(0)))
    with pytest.raises(AddressError):  # a lattice point off the gasket
        g.vertex_id((F(1, 4), F(1, 4)))
    with pytest.raises(AddressError):  # outside the graph's triangle
        g.vertex_id((F(3), F(0)))


# ---------------------------------------------------------------------------
# integer point location against a Fraction-barycentric reference


def reference_cells(params, p):
    """cells_containing computed with Fraction barycentric coordinates
    relative to (q0, q1, q2): y = 2 b0, x = b0 + 2 b2."""
    x, y = Fraction(p[0]), Fraction(p[1])
    b0 = y / 2
    b2 = (x - b0) / 2
    b = (b0, 1 - b0 - b2, b2)
    if min(b) < 0 or max(b) > 1:
        return []
    l = params.level
    return [i for i, t in enumerate(params.cells) if all(b[k] * l >= t[k] for k in range(3))]


@st.composite
def located_points(draw):
    """(level, point): random rationals in and around the triangle, points
    on the edges of level-k cells and their junctions (corners), as int or
    Fraction coordinates."""
    level = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["rational", "edge", "junction", "int"]))
    if kind == "int":
        return level, (draw(st.integers(-2, 4)), draw(st.integers(-2, 4)))
    den = level ** draw(st.integers(0, 3))
    if kind == "rational":
        den *= draw(st.integers(1, 12))
        coord = st.integers(-den, 3 * den).map(lambda n: Fraction(n, den))
        return level, (draw(coord), draw(coord))
    word = draw(st.lists(st.integers(0, level * (level + 1) // 2 - 1), max_size=3))
    params = G.gasket(level)
    a, b = draw(st.permutations(G.CORNERS))[:2]
    if kind == "junction":
        return level, G.apply_word(params, word, a)
    t = Fraction(draw(st.integers(0, den)), den)
    return level, G.apply_word(params, word, tuple(a[k] + t * (b[k] - a[k]) for k in range(2)))


@settings(max_examples=300, deadline=None, database=None)
@given(case=located_points())
def test_cells_containing_matches_fraction_reference(case):
    level, p = case
    params = G.gasket(level)
    assert G.cells_containing(params, p) == reference_cells(params, p)
