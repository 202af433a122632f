import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketbvp import geometry as G
from gasketbvp.errors import AddressError, CapabilityError


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
