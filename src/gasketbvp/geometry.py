"""Geometry, addressing and graph construction for level-l Sierpinski gaskets.

The gasket sits in the triangle with corners q0=(1,2), q1=(0,0), q2=(2,0),
an affine image of the usual equilateral placement.  Every level-m vertex
then has coordinates (integer / l**m), so vertex identity, cell membership
and domain classification are decided in exact integer arithmetic.

Cells at one subdivision level are indexed by barycentric offset triples
(a, b, c) with a+b+c = l-1; index 0/1/2 are the corner cells fixing
q0/q1/q2, the rest are numbered top-to-bottom, left-to-right (for l = 3
the conventional order is 3 = bottom middle, 4 = right, 5 = left).

Graphs are numpy arrays, and numpy is imported inside the functions that
build or read them, so that only a caller that builds a graph pays for it:
graph export, and the domain skeletons (`oracle.domain_restricted_graph`,
on `domain_graph`) that the tests and demos give to `oracle.solve`.
`check_domain_level` refuses a level of a domain before `solve` walks
its cells (`cylinder.walk` lists the vertices with their addresses).
For the oracle, `cell_shape` tells what a cell of a domain's graph is
from its shape alone: the cut's place in the cell's own coordinates, its
boundary corners and its depth.  The oracle lists a level's cells by
shape within MAX_TREE_CELLS, which counts the cells it lists one by one
and the shapes it makes.
"""

import math
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from . import _exact
from .errors import AddressError, CapabilityError, ContractViolation, ResolutionError

MAX_LEVEL = 8
MAX_GRAPH_LEVEL = 14
MAX_GRAPH_CELLS = 3 ** MAX_GRAPH_LEVEL
# the oracle's budget for one level of a domain: the cells it lists one by
# one (those above the leaves, and the leaves) plus the shapes made so far.
# Half-SG_3 without data by word lists 16,383 cells at m = 13
MAX_TREE_CELLS = 30_000

Q0 = (Fraction(1), Fraction(2))
Q1 = (Fraction(0), Fraction(0))
Q2 = (Fraction(2), Fraction(0))
CORNERS = (Q0, Q1, Q2)
CORNERS_INT = ((1, 2), (0, 0), (2, 0))

WORD_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def word_to_str(word):
    return "".join(map(WORD_CHARS.__getitem__, word))


def word_from_str(s):
    """The digits of a word written in WORD_CHARS."""
    digits = tuple(WORD_CHARS.find(ch) for ch in s)
    if -1 in digits:
        raise AddressError(f"word {s!r}: {s[digits.index(-1)]!r} is not a digit (0-9, a-z)")
    return digits


class VertexAddress(namedtuple("VertexAddress", ["word", "corner", "canonical"], defaults=[False])):
    """A level-|word| vertex F_w(q_corner); canonical iff it is the
    lexicographically least (word, corner) pair among coordinate aliases."""

    __slots__ = ()

    def __str__(self):
        return f"{word_to_str(self.word)}:{self.corner}"


class GasketParams:
    """Contraction system of SG_l: cell triples, translations, corners, and
    the level-1 table of the 1-cells' corners F_i q_c."""

    def __init__(self, level):
        if not (2 <= level <= MAX_LEVEL):
            raise CapabilityError(f"gasket level must be in [2, {MAX_LEVEL}], got {level}")
        self.level = level
        self.cells = _cell_triples(level)
        self.map_count = len(self.cells)
        # F_i(z) = z/l + t_i with t_i = (a*q0 + b*q1 + c*q2)/l; l t_i is an
        # integer vector
        self.int_translations = tuple((a + 2 * c, 2 * a) for (a, b, c) in self.cells)
        self.translations = tuple(
            (Fraction(tx, level), Fraction(ty, level)) for tx, ty in self.int_translations
        )
        # the level-1 table: corner c of 1-cell i is F_i q_c, at integer
        # coordinates l F_i q_c = q_c + l t_i and as an exact point, and its
        # slot among the points of V_1, q0, q1 and q2 at slots 0-2 (corner
        # cell c fixes q_c)
        self.cell_points = tuple(
            tuple((x + tx, y + ty) for x, y in CORNERS_INT) for tx, ty in self.int_translations
        )
        self.cell_corners = tuple(
            tuple((Fraction(x, level), Fraction(y, level)) for x, y in cell)
            for cell in self.cell_points
        )
        slot = {cell[c]: c for c, cell in enumerate(self.cell_points[:3])}
        self.cell_slots = tuple(
            tuple(slot.setdefault(p, len(slot)) for p in cell) for cell in self.cell_points
        )
        # cells meeting the vertical symmetry line in a Cantor piece (b == c),
        # top to bottom: the digit alphabet of the half-domain boundary.
        self.half_alphabet = tuple(
            i for i, (a, b, c) in sorted(enumerate(self.cells), key=lambda t: -t[1][0])
            if b == c
        )
        # cells whose q2-corner lies on the symmetry line (a + 2c == l - 2):
        # those corners are the atoms p_{j,·}, ordered top to bottom.
        atom_cells = [
            (a, i) for i, (a, b, c) in enumerate(self.cells) if a + 2 * c == level - 2
        ]
        atom_cells.sort(key=lambda t: -t[0])
        self.atom_cells = tuple(i for _, i in atom_cells)

    def __repr__(self):
        return f"GasketParams(level={self.level})"

    @property
    def renorm_factor(self):
        return renormalization_factor(self.level)

    def apply_map(self, i, p):
        if not (0 <= i < self.map_count):
            raise AddressError(f"digit {i} out of range for level {self.level}")
        t = self.translations[i]
        return (p[0] / self.level + t[0], p[1] / self.level + t[1])

    def unapply_map(self, i, p):
        t = self.translations[i]
        return ((p[0] - t[0]) * self.level, (p[1] - t[1]) * self.level)


def _cell_triples(level):
    corners = {(level - 1, 0, 0): 0, (0, level - 1, 0): 1, (0, 0, level - 1): 2}
    triples = [None, None, None]
    for t, i in corners.items():
        triples[i] = t
    rest = [
        (a, b, c)
        for a in range(level - 1, -1, -1)
        for c in range(0, level - a)
        for b in [level - 1 - a - c]
        if (a, b, c) not in corners
    ]
    if level == 3:
        rest = [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    return tuple(triples) + tuple(rest)


@lru_cache(maxsize=None)
def gasket(level):
    return GasketParams(level)


@lru_cache(maxsize=None)
def renormalization_factor(level):
    """Energy renormalization factor r of SG_l (3/5 for SG, 7/15 for SG_3):
    E_1(h) / E_0(h) for the harmonic extension h of (1,0,0) to Gamma_1,
    with E_0(h) = 2 and, by Gauss-Green, E_1(h) = 2 - h(F_0 q1) - h(F_0 q2).
    """
    _, p1, p2 = gasket(level).cell_points[0]
    basis = gamma1_basis(level)
    r = 1 - (basis[p1][0] + basis[p2][0]) / 2
    if not 0 < r < 1:
        raise ContractViolation(f"renormalization factor of SG_{level} is {r}, not in (0, 1)")
    return r


@lru_cache(maxsize=None)
def gamma1_basis(level):
    """{pt: (w0, w1, w2)}: the exact graph-harmonic extension of V_0 data to
    Gamma_1 is w0 v0 + w1 v1 + w2 v2 at pt, keyed by integer vertex
    coordinates at scale l, the V_0 corners first, then the rest in (x, y)
    order: the level-1 system with every 1-cell full, solved for the unit
    value at each corner.  Shared; do not mutate."""
    points = gasket(level).cell_points
    corners = [cell[c] for c, cell in enumerate(points[:3])]
    unknown = tuple(sorted({p for cell in points for p in cell} - set(corners)))
    sources, rows, den = level1_system(level, (), tuple(range(len(points))), unknown, (), True)
    cols = [sources.index(q) for q in corners]
    basis = {q: tuple(Fraction(int(c == j)) for j in range(3)) for c, q in enumerate(corners)}
    basis.update((p, tuple(Fraction(row[j], den) for j in cols)) for p, row in sorted(rows))
    return basis


@lru_cache(maxsize=None)
def level1_system(level, slots, full, unknown, links, exact):
    """(sources, rows, den): the package's one level-1 solve, a frame's
    level-1 system (`cylinder.Frame.values`) or Gamma_1's, eliminated row by
    row from the base in (y, x) order and solved for the unit value of each
    source, a known point or the number of a copy's integral: rows (p, [u_p
    for each source]) of the unknowns, exactly as integers over den, else
    in floats."""
    points, number = gasket(level).cell_points, Fraction if exact else float
    c = {p: {} for p in unknown}
    loads = []  # (p, w, source): a grounding w at p, loaded with w times the source

    def edge(p, q, w):
        if p in c:
            if q in c:
                c[p][q] = number(w)
            else:
                loads.append((p, w, q))

    for i in full:
        for p, q in permutations(points[i], 2):
            edge(p, q, 1)
    n = 0
    for d, link, *cs in links:
        corners = [points[d][s] for s in slots]
        for p, w in zip(corners, cs):
            edge(p, n, w)
            n += 1
        if link:
            for p, q in permutations(corners, 2):
                edge(p, q, link)
    order = sorted(unknown, key=lambda p: p[::-1])
    g = {p: number(sum(w for q, w, _ in loads if q == p)) for p in order}
    record = _exact._eliminate({p: c[p] for p in order}, g, order)
    sources = list(dict.fromkeys(src for _, _, src in loads))
    units = [{} for _ in sources]
    for source, u in zip(sources, units):
        b = {p: sum(number(w) for q, w, src in loads if (q, src) == (p, source)) for p in order}
        _exact._backward(record, _exact._forward(record, b), u)
    if not exact:
        return sources, [(p, [u[p] for u in units]) for p in order], None
    den = math.lcm(*(u[p].denominator for u in units for p in order))
    return sources, [(p, [int(u[p] * den) for u in units]) for p in order], den


# ---------------------------------------------------------------------------
# words and addresses


def apply_word(params, word, p):
    """F_w(p) in exact rational coordinates; the empty word is the identity."""
    q = (Fraction(p[0]), Fraction(p[1]))
    for d in reversed(word):
        q = params.apply_map(d, q)
    return q


def resolve(params, addr):
    if not (0 <= addr.corner <= 2):
        raise AddressError(f"corner must be 0, 1 or 2, got {addr.corner}")
    return apply_word(params, addr.word, CORNERS[addr.corner])


def exact_point(params, v):
    """The exact point of a VertexAddress, or of a point given by coordinates
    (a tuple of Fractions is returned as it is, not copied)."""
    if isinstance(v, VertexAddress):
        return resolve(params, v)
    x, y = v
    if type(v) is tuple and type(x) is Fraction and type(y) is Fraction:
        return v
    return (Fraction(x), Fraction(y))


def cells_containing(params, p):
    """Indices of the 1-cells whose closed triangle contains p (1-3 of them),
    decided exactly."""
    x, y = Fraction(p[0]), Fraction(p[1])
    xd, yd = x.denominator, y.denominator
    return cells_at(params, x.numerator * yd, y.numerator * xd, xd * yd)


def scaled(points):
    """(s, [(k, x, y), ...]): the k-th point is (x/s, y/s), with integers x, y
    over the common denominator s of all the coordinates."""
    s = math.lcm(*{Fraction(c).denominator for p in points for c in p})

    def scale(c):
        c = Fraction(c)
        return c.numerator * (s // c.denominator)

    return s, [(k, scale(x), scale(y)) for k, (x, y) in enumerate(points)]


def unapply_shifts(params, s):
    """s l t_i for every map i: F_i^-1 takes the point (x/s, y/s) to
    ((l x - sx_i)/s, (l y - sy_i)/s), over the same denominator s."""
    return [(s * tx, s * ty) for tx, ty in params.int_translations]


def cells_at(params, x, y, s):
    """`cells_containing` of the point (x/s, y/s), for integers x, y, s > 0.

    The barycentric coordinates relative to (q0, q1, q2), b0 = y/2 and
    b2 = (2x - y)/4, are compared as the integers B_k = 4s b_k: the point
    lies in cell (a0, a1, a2) iff l b_k >= a_k, that is a_k <= floor(l B_k / 4s),
    for each k."""
    b0, b2 = 2 * y, 2 * x - y
    den = 4 * s
    b1 = den - b0 - b2
    if b0 < 0 or b1 < 0 or b2 < 0:
        return []
    l = params.level
    f0, f1, f2 = l * b0 // den, l * b1 // den, l * b2 // den
    return [i for i, (a, b, c) in enumerate(params.cells) if a <= f0 and b <= f1 and c <= f2]


def aliases(params, addr):
    """All (word, corner) addresses of the same length resolving to addr's point."""
    p = resolve(params, addr)
    m = len(addr.word)
    found = []

    def descend(prefix, q):
        if len(prefix) == m:
            for c in range(3):
                if q == CORNERS[c]:
                    found.append(VertexAddress(tuple(prefix), c))
            return
        for i in cells_containing(params, q):
            descend(prefix + [i], params.unapply_map(i, q))

    descend([], p)
    if not found:
        raise AddressError(f"{addr} does not resolve to a vertex of V_{m}")
    return sorted(found, key=lambda a: (a.word, a.corner))


def canonicalize(params, addr):
    best = aliases(params, addr)[0]
    return VertexAddress(best.word, best.corner, canonical=True)


# ---------------------------------------------------------------------------
# graphs


class Graph:
    """Level-m approximating graph (possibly restricted to a domain).

    Vertices carry exact coordinates verts[i] / l**m; rep_cell/rep_corner
    give one (word, corner) address per vertex.  The arrays are numpy
    int64, rep_corner int8: verts (N, 2), coordinates times l**m; edges
    (E, 2), vertex ids; rep_cell, words encoded base map_count.  The
    oracle lists a domain's cells by shape, never a graph's.
    """

    def __init__(self, params, m, verts, edges, rep_cell, rep_corner):
        self.params, self.m, self.verts, self.edges = params, m, verts, edges
        self.rep_cell, self.rep_corner = rep_cell, rep_corner
        self._index = self._adj = None

    @property
    def scale(self):
        return self.params.level ** self.m

    def n_vertices(self):
        return len(self.verts)

    def point(self, i):
        s = self.scale
        return (Fraction(int(self.verts[i, 0]), s), Fraction(int(self.verts[i, 1]), s))

    def index(self):
        """Read-only map from integer coordinates (x, y) to vertex id."""
        if self._index is None:
            self._index = VertexIndex(self.verts, self.scale)
        return self._index

    def vertex_id(self, p):
        s = self.scale
        x, y = Fraction(p[0]) * s, Fraction(p[1]) * s
        if x.denominator != 1 or y.denominator != 1:
            raise AddressError(f"{p} is not a level-{self.m} vertex")
        i = self.index().get((int(x), int(y)))
        if i is None:
            raise AddressError(f"{p} is not a vertex of this graph")
        return i

    def address(self, i):
        word = []
        code = int(self.rep_cell[i])
        for _ in range(self.m):
            word.append(code % self.params.map_count)
            code //= self.params.map_count
        return VertexAddress(tuple(reversed(word)), int(self.rep_corner[i]))

    def neighbors(self, i):
        if self._adj is None:
            import numpy as np

            n = self.n_vertices()
            both = np.concatenate([self.edges, self.edges[:, ::-1]])
            order = np.argsort(both[:, 0], kind="stable")
            sorted_e = both[order]
            starts = np.searchsorted(sorted_e[:, 0], np.arange(n + 1))
            self._adj = (sorted_e[:, 1].copy(), starts)
        tgt, starts = self._adj
        return tgt[starts[i]:starts[i + 1]]

    def degrees(self):
        import numpy as np

        return np.bincount(self.edges.ravel(), minlength=self.n_vertices())


class VertexIndex(Mapping):
    """Vertex ids of `build_graph`'s vertices, which come sorted by the
    integer keys x*(2s+1)+y, by binary search over those keys."""

    def __init__(self, verts, scale):
        import numpy as np

        self._verts = verts
        self._stride = 2 * scale + 1
        self._keys = keys = verts[:, 0] * np.int64(self._stride) + verts[:, 1]
        # Python-int bounds, so that no query key overflows int64
        self._klo, self._khi = (int(keys[0]), int(keys[-1])) if len(keys) else (0, -1)

    def __getitem__(self, point):
        x, y = point
        k = x * self._stride + y
        if not (0 <= y < self._stride and self._klo <= k <= self._khi):
            raise KeyError(point)
        pos = int(self._keys.searchsorted(k))
        if self._keys[pos] != k:
            raise KeyError(point)
        return pos

    def __iter__(self):
        return ((int(x), int(y)) for x, y in self._verts)

    def __len__(self):
        return len(self._verts)


def check_graph_level(params, m):
    """Refuse a level-m graph of more than MAX_GRAPH_CELLS cells, the count
    of SG at level MAX_GRAPH_LEVEL."""
    count = params.map_count ** m
    if count > MAX_GRAPH_CELLS:
        # past 1000 levels the count has more digits than str() converts
        shown = count if m <= 1000 else f"{params.map_count}**{m}"
        raise ResolutionError(
            f"level {m} of SG_{params.level} has {shown} cells; graphs are "
            f"capped at {MAX_GRAPH_CELLS} cells (SG at level {MAX_GRAPH_LEVEL})"
        )


def _cell_corner_coords(params, m):
    """Integer corner coordinates of every level-m cell: shape (ncells, 3, 2).

    l**m * F_w(q_j) = q_j + sum_k l**(m-k) * (l * t_{w_k}).  The cell count
    is checked (`check_graph_level`) before any array is allocated.
    """
    import numpy as np

    check_graph_level(params, m)
    l = params.level
    tr = np.array(params.int_translations, dtype=np.int64)
    offs = np.zeros((1, 2), dtype=np.int64)
    for _ in range(m):
        offs = (l * offs)[:, None, :] + tr[None, :, :]
        offs = offs.reshape(-1, 2)
    qs = np.array(CORNERS_INT, dtype=np.int64)
    corners = offs[:, None, :] + qs[None, :, :]
    return corners


def build_graph(params, m, domain=None):
    """Gamma_m of SG_l, or, given a domain of SG_l, the graph of the level-m
    cells contained in its closure: those with every corner on the closed
    side of its cut."""
    import numpy as np

    if m < 0:
        raise ResolutionError("graph level must be >= 0")
    corners = _cell_corner_coords(params, m)
    cell_ids = np.arange(len(corners), dtype=np.int64)
    if domain is not None:
        keep = _closed_side(domain, m)(corners[:, :, domain.axis]).all(axis=1)
        corners, cell_ids = corners[keep], cell_ids[keep]
        if len(corners) == 0:
            raise ResolutionError("no cells of this level are contained in the domain")
    s = params.level ** m
    keys = corners[:, :, 0] * np.int64(2 * s + 1) + corners[:, :, 1]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    inverse = inverse.reshape(keys.shape)
    verts = corners.reshape(-1, 2)[first]
    rep_cell = np.repeat(cell_ids, 3)[first]
    rep_corner = np.tile(np.array([0, 1, 2], dtype=np.int8), len(corners))[first]
    e = np.concatenate(
        [inverse[:, (0, 1)], inverse[:, (0, 2)], inverse[:, (1, 2)]], axis=0
    )
    e.sort(axis=1)
    return Graph(params, m, verts, e, rep_cell, rep_corner)


# ---------------------------------------------------------------------------
# domains


class Domain(namedtuple("Domain", ["level", "axis", "cut", "side", "corners"])):
    """SG_level on one side of a straight cut: the points whose coordinate
    number `axis` (0 for x, 1 for y) is at most `cut` (side -1) or at least
    `cut` (side +1).  Its boundary is the V_0 corners q_c for c in
    `corners` plus the Cantor set on the cut line."""

    __slots__ = ()

    @property
    def params(self):
        return gasket(self.level)


def HalfDomain(level):
    """Left half of SG_l cut along the vertical symmetry line x = 1."""
    return Domain(level, 0, Fraction(1), -1, (1,))


def UpperDomain(cut_y, level=3):
    """Part of SG_3 above the horizontal line y = cut_y."""
    return Domain(level, 1, Fraction(cut_y), 1, (0,))


def LowerDomain(cut_y, level=2):
    """Part of SG below the horizontal line y = cut_y."""
    return Domain(level, 1, Fraction(cut_y), -1, (1, 2))


INTERIOR = "interior"
CANTOR = "cantor-boundary"
CORNER = "corner-boundary"
OUTSIDE = "outside"


def classify_boundary(domain, vertex):
    """Classify a vertex address (or exact point) relative to a domain."""
    params = domain.params
    if isinstance(vertex, VertexAddress):
        p = resolve(params, vertex)
    else:
        p = (Fraction(vertex[0]), Fraction(vertex[1]))
        if not cells_containing(params, p):
            raise AddressError(f"{p} lies outside the gasket")
    if any(p == CORNERS[c] for c in domain.corners):
        return CORNER
    offset = (p[domain.axis] - domain.cut) * domain.side
    if offset == 0:
        return CANTOR
    return INTERIOR if offset > 0 else OUTSIDE


def outside(domain, x, y, s):
    """True when the point (x/s, y/s), for integers x, y, s > 0, lies
    strictly on the far side of the domain's cut and is none of its boundary
    corners: `classify_boundary` would call it OUTSIDE."""
    if any((x, y) == (s * CORNERS_INT[c][0], s * CORNERS_INT[c][1]) for c in domain.corners):
        return False
    cut = domain.cut
    return ((x, y)[domain.axis] * cut.denominator - cut.numerator * s) * domain.side < 0


def _closed_side(domain, m):
    """The test whether an integer coordinate c along the domain's axis, at
    scale l**m, lies on the closed side of its cut (elementwise on arrays).
    The coordinates are integers, so the scaled cut rounds inwards."""
    cut = domain.cut * domain.params.level ** m
    if domain.side < 0:
        bound = math.floor(cut)
        return lambda c: c <= bound
    bound = math.ceil(cut)
    return lambda c: c >= bound


def domain_graph(domain, m):
    """Level-m graph of the cells contained in the domain closure."""
    if m < 1:
        raise ResolutionError("domain restriction needs m >= 1")
    return build_graph(domain.params, m, domain)


def check_domain_level(domain, m):
    """Refuse the level-m vertices of a domain before any walk over its
    cells: m < 1, a level over the graph cap (`check_graph_level`), or a
    level at which no cell is contained in the domain closure.  Every cell
    is a translate of the corner cell at the domain's far corner, and that
    one lies farthest into the closed side, so it alone is tested."""
    if m < 1:
        raise ResolutionError("domain restriction needs m >= 1")
    params = domain.params
    check_graph_level(params, m)
    # corner j of the cell at corner c is at (l**m - 1) q_c + q_j
    reach = [q[domain.axis] for q in CORNERS_INT]
    far = (min if domain.side < 0 else max)(reach)
    closed = _closed_side(domain, m)
    if not all(closed((params.level ** m - 1) * far + r) for r in reach):
        raise ResolutionError("no cells of this level are contained in the domain")


# a cell inside the domain graph that holds no boundary vertex
PLAIN = -1


def cell_shape(domain, tau, bits, d):
    """What a cell d levels above the graph's level m is in
    `domain_graph(domain, m)`, from its shape alone: tau / q, where the cut
    lies along the domain's axis in the cell's own coordinates (the cell
    taken as the gasket of corners q_j), an integer over the denominator q
    of the domain's cut, and bits, the mask of its corners that are
    boundary corners of the domain.  The closed side rounds the cut as the
    graph does, at the cell's scale l**d.

    Returns None when no level-m cell of the graph lies in the cell, PLAIN
    when the whole cell is in the graph and holds no boundary vertex, the
    mask of its boundary corners (on the cut line or in bits) at d = 0, and
    else the shapes (tau, bits) of its children by digit: child t has the
    cut at l tau / q - (l t_t) along the axis, or at -1 or 3, clear of the
    whole cell, when the cut meets nothing below, and keeps bit t."""
    params, axis, q = domain.params, domain.axis, domain.cut.denominator
    l = params.level
    scaled = tau * l ** d
    # the last coordinate on the closed side, at scale l**d
    bound = scaled // q if domain.side < 0 else -(-scaled // q)
    reach = [l ** d * c[axis] for c in CORNERS_INT]
    inside = [(r - bound) * domain.side >= 0 for r in reach]
    line = sum(1 << j for j, r in enumerate(reach) if r * q == scaled)
    if d == 0:
        return bits | line if all(inside) else None
    if not any(inside):
        return None
    if all(inside) and not bits | line:
        return PLAIN
    if all(inside) and not line:
        # the cut meets nothing below: every child sees it from afar, so
        # one cut stands for all (the cells of the domain's corners share it)
        return tuple(((-1 if domain.side > 0 else 3) * q, bits & 1 << n)
                     for n in range(params.map_count))
    return tuple((l * tau - t[axis] * q, bits & 1 << n)
                 for n, t in enumerate(params.int_translations))


def boundary_masks(domain, graph):
    """(cantor, corner): masks of the vertices of a domain graph that lie on
    the cut line, and of those at the domain's boundary corners."""
    import numpy as np

    s = graph.scale
    corner = np.zeros(graph.n_vertices(), dtype=bool)
    for c in domain.corners:
        corner |= (graph.verts == np.array(CORNERS_INT[c]) * s).all(axis=1)
    cut = domain.cut
    cantor = graph.verts[:, domain.axis] * cut.denominator == cut.numerator * s
    return cantor & ~corner, corner


# ---------------------------------------------------------------------------
# CSV export


def export_graph_csv(graph, edge_path, vertex_path):
    """Edge list `vertex_id,vertex_id` plus a sidecar
    `vertex_id,word,corner,x,y` with exact rational coordinates."""
    import numpy as np

    order = np.lexsort((graph.edges[:, 1], graph.edges[:, 0]))
    with open(edge_path, "w") as fh:
        fh.write("vertex_id,vertex_id\n")
        for i, j in graph.edges[order]:
            fh.write(f"{i},{j}\n")
    with open(vertex_path, "w") as fh:
        fh.write("vertex_id,word,corner,x,y\n")
        for i in range(graph.n_vertices()):
            a = graph.address(i)
            x, y = graph.point(i)
            fh.write(f"{i},{word_to_str(a.word)},{a.corner},{x},{y}\n")
