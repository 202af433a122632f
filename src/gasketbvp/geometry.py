"""Geometry, addressing and graph construction for level-l Sierpinski gaskets.

The gasket sits in the triangle with corners q0=(1,2), q1=(0,0), q2=(2,0),
an affine image of the usual equilateral placement.  Every level-m vertex
then has coordinates (integer / l**m), so vertex identity, cell membership
and domain classification are decided in exact integer arithmetic.

Cells at one subdivision level are indexed by barycentric offset triples
(a, b, c) with a+b+c = l-1; index 0/1/2 are the corner cells fixing
q0/q1/q2, the rest are numbered top-to-bottom, left-to-right (for l = 3
the conventional order is 3 = bottom middle, 4 = right, 5 = left).
"""

from __future__ import annotations

import math
import string
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._exact import solve
from .errors import AddressError, CapabilityError, ContractViolation, ResolutionError

MAX_LEVEL = 8
MAX_GRAPH_LEVEL = 14

Q0 = (Fraction(1), Fraction(2))
Q1 = (Fraction(0), Fraction(0))
Q2 = (Fraction(2), Fraction(0))
CORNERS = (Q0, Q1, Q2)
CORNERS_INT = ((1, 2), (0, 0), (2, 0))

WORD_CHARS = string.digits + string.ascii_lowercase


def word_to_str(word):
    return "".join(WORD_CHARS[d] for d in word)


def word_from_str(s):
    return tuple(WORD_CHARS.index(ch) for ch in s)


@dataclass(frozen=True)
class VertexAddress:
    """A level-|word| vertex F_w(q_corner); canonical iff it is the
    lexicographically least (word, corner) pair among coordinate aliases."""

    word: tuple
    corner: int
    canonical: bool = False

    def __str__(self):
        return f"{word_to_str(self.word)}:{self.corner}"


class GasketParams:
    """Contraction system of SG_l: cell triples, translations and corners."""

    def __init__(self, level):
        if not (2 <= level <= MAX_LEVEL):
            raise CapabilityError(f"gasket level must be in [2, {MAX_LEVEL}], got {level}")
        self.level = level
        self.cells = _cell_triples(level)
        self.map_count = len(self.cells)
        self.cell_index = {t: i for i, t in enumerate(self.cells)}
        self.corners = CORNERS
        # F_i(z) = z/l + t_i with t_i = (a*q0 + b*q1 + c*q2)/l
        self.translations = tuple(
            (
                Fraction(a * Q0[0] + b * Q1[0] + c * Q2[0], level),
                Fraction(a * Q0[1] + b * Q1[1] + c * Q2[1], level),
            )
            for (a, b, c) in self.cells
        )
        # l * t_i is an integer vector; used by the vectorised graph builder.
        self.int_translations = np.array(
            [
                (a * 1 + c * 2, a * 2)
                for (a, b, c) in self.cells
            ],
            dtype=np.int64,
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
    """Energy renormalization factor r of SG_l (3/5 for SG, 7/15 for SG_3).

    For l >= 4 it is derived at runtime: extend (1,0,0) harmonically to
    Gamma_1 by the exact Dirichlet solve and take the level-1/level-0
    unweighted energy ratio.
    """
    if level == 2:
        return Fraction(3, 5)
    if level == 3:
        return Fraction(7, 15)
    vals = _gamma1_harmonic_values(gasket(level), (Fraction(1), Fraction(0), Fraction(0)))
    nbrs = gamma1_neighbors(level)
    # every edge is seen from both ends, and E_0 of (1,0,0) is 2
    r = sum((vals[p] - vals[q]) ** 2 for p, nb in nbrs.items() for q in nb) / 4
    if not 0 < r < 1:
        raise ContractViolation(f"renormalization factor of SG_{level} is {r}, not in (0, 1)")
    return r


@lru_cache(maxsize=None)
def gamma1_neighbors(level):
    """Neighbour lists of Gamma_1 of SG_l, keyed by integer vertex
    coordinates at scale l in vertex order.  Shared; do not mutate."""
    g = build_graph(gasket(level), 1)
    pts = [tuple(map(int, v)) for v in g.verts]
    nbrs = {p: [] for p in pts}
    for i, j in g.edges:
        nbrs[pts[i]].append(pts[j])
        nbrs[pts[j]].append(pts[i])
    return nbrs


def _gamma1_harmonic_values(params, corner_values):
    """Exact graph-harmonic extension of V_0 data to Gamma_1, as a dict
    keyed by integer vertex coordinates at scale l."""
    l = params.level
    corner_pts = {(l, 2 * l): 0, (0, 0): 1, (2 * l, 0): 2}
    rows, rhs = {}, {}
    for k, nb in gamma1_neighbors(l).items():
        if k in corner_pts:
            continue
        row = rows[k] = {k: len(nb)}
        rhs[k] = Fraction(0)
        for q in nb:
            if q in corner_pts:
                rhs[k] += corner_values[corner_pts[q]]
            else:
                row[q] = row.get(q, 0) - 1
    out = {k: corner_values[c] for k, c in corner_pts.items()}
    out.update(solve(rows, rhs))
    return out


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
    return [(s * int(t[0]), s * int(t[1])) for t in params.int_translations]


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


@dataclass
class Graph:
    """Level-m approximating graph (possibly restricted to a domain).

    Vertices carry exact coordinates verts[i] / l**m; rep_cell/rep_corner
    give one (word, corner) address per vertex.  Graphs from build_graph
    also keep their level-m cells: the corner vertex ids of each (cells,
    corner j at column j) and its word code (cell_codes, ascending).
    """

    params: GasketParams
    m: int
    verts: np.ndarray          # (N, 2) int64, coordinates * l**m
    edges: np.ndarray          # (E, 2) int64 vertex ids
    rep_cell: np.ndarray       # (N,) int64 word encoded base map_count
    rep_corner: np.ndarray     # (N,) int8
    cells: np.ndarray = None       # (C, 3) int64 vertex ids
    cell_codes: np.ndarray = None  # (C,) int64 word encoded base map_count
    _index: VertexIndex = field(default=None, repr=False)
    _adj: object = field(default=None, repr=False)

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
            n = self.n_vertices()
            both = np.concatenate([self.edges, self.edges[:, ::-1]])
            order = np.argsort(both[:, 0], kind="stable")
            sorted_e = both[order]
            starts = np.searchsorted(sorted_e[:, 0], np.arange(n + 1))
            self._adj = (sorted_e[:, 1].copy(), starts)
        tgt, starts = self._adj
        return tgt[starts[i]:starts[i + 1]]

    def degrees(self):
        return np.bincount(self.edges.ravel(), minlength=self.n_vertices())


class VertexIndex(Mapping):
    """Vertex ids by binary search over the integer keys x*(2s+1)+y.

    build_graph emits vertices already sorted by these keys; other vertex
    arrays are sorted once.  The key range widens to cover coordinates
    outside [0, 2s], so distinct points never share a key.
    """

    def __init__(self, verts, scale):
        self._verts = verts
        ys = verts[:, 1]
        self._ylo = int(ys.min(initial=0))
        self._stride = int(ys.max(initial=2 * scale)) - self._ylo + 1
        keys = verts[:, 0] * np.int64(self._stride) + (ys - self._ylo)
        self._order = None
        if (keys[1:] < keys[:-1]).any():
            self._order = np.argsort(keys, kind="stable")
            keys = keys[self._order]
        self._keys = keys
        # Python-int bounds, so that no query key overflows int64
        self._klo, self._khi = (int(keys[0]), int(keys[-1])) if len(keys) else (0, -1)

    def __getitem__(self, point):
        x, y = point
        if not (self._ylo <= y < self._ylo + self._stride):
            raise KeyError(point)
        k = x * self._stride + (y - self._ylo)
        if not (self._klo <= k <= self._khi):
            raise KeyError(point)
        pos = int(np.searchsorted(self._keys, k))
        if self._keys[pos] != k:
            raise KeyError(point)
        return pos if self._order is None else int(self._order[pos])

    def __iter__(self):
        return ((int(x), int(y)) for x, y in self._verts)

    def __len__(self):
        return len(self._verts)


def _cell_corner_coords(params, m, cell_mask=None):
    """Integer corner coordinates of every level-m cell: shape (ncells, 3, 2).

    l**m * F_w(q_j) = q_j + sum_k l**(m-k) * (l * t_{w_k}).
    """
    l = params.level
    if m > MAX_GRAPH_LEVEL:
        raise ResolutionError(f"graph level capped at {MAX_GRAPH_LEVEL}")
    offs = np.zeros((1, 2), dtype=np.int64)
    for _ in range(m):
        offs = (l * offs)[:, None, :] + params.int_translations[None, :, :]
        offs = offs.reshape(-1, 2)
    qs = np.array(CORNERS_INT, dtype=np.int64)
    corners = offs[:, None, :] + qs[None, :, :]
    return corners


def build_graph(params, m, cell_filter=None):
    """Gamma_m of SG_l, optionally restricted to cells passing cell_filter.

    cell_filter(corners) takes the (ncells, 3, 2) integer corner array and
    returns a boolean mask of cells to keep (used for domain restriction).
    """
    if m < 0:
        raise ResolutionError("graph level must be >= 0")
    corners = _cell_corner_coords(params, m)
    ncells = len(corners)
    cell_ids = np.arange(ncells, dtype=np.int64)
    if cell_filter is not None:
        mask = cell_filter(corners)
        corners = corners[mask]
        cell_ids = cell_ids[mask]
        if len(corners) == 0:
            raise ResolutionError("no cells of this level are contained in the domain")
    s = params.level ** m
    keys = corners[:, :, 0] * np.int64(2 * s + 1) + corners[:, :, 1]
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    inverse = inverse.reshape(keys.shape)
    verts = corners.reshape(-1, 2)[first]
    rep_cell = np.repeat(cell_ids, 3)[first]
    rep_corner = np.tile(np.array([0, 1, 2], dtype=np.int8), len(corners))[first]
    e = np.concatenate(
        [inverse[:, (0, 1)], inverse[:, (0, 2)], inverse[:, (1, 2)]], axis=0
    )
    e.sort(axis=1)
    return Graph(params, m, verts, e, rep_cell, rep_corner, inverse, cell_ids)


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class HalfDomain:
    """Left half of SG_l cut along the vertical symmetry line x = 1."""

    level: int

    @property
    def params(self):
        return gasket(self.level)


@dataclass(frozen=True)
class UpperDomain:
    """Part of SG_3 strictly above the horizontal line y = cut_y."""

    cut_y: Fraction
    level: int = 3

    @property
    def params(self):
        return gasket(self.level)


@dataclass(frozen=True)
class LowerDomain:
    """Part of SG strictly below the horizontal line y = cut_y."""

    cut_y: Fraction
    level: int = 2

    @property
    def params(self):
        return gasket(self.level)


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
    if isinstance(domain, HalfDomain):
        if p == Q1:
            return CORNER
        if p[0] == 1:
            return CANTOR
        return INTERIOR if p[0] < 1 else OUTSIDE
    if isinstance(domain, UpperDomain):
        if p == Q0:
            return CORNER
        if p[1] == domain.cut_y:
            return CANTOR
        return INTERIOR if p[1] > domain.cut_y else OUTSIDE
    if isinstance(domain, LowerDomain):
        if p == Q1 or p == Q2:
            return CORNER
        if p[1] == domain.cut_y:
            return CANTOR
        return INTERIOR if p[1] < domain.cut_y else OUTSIDE
    raise ResolutionError(f"unknown domain descriptor {domain!r}")


def contained_cell_filter(domain, m):
    """Mask of level-m cells contained in the domain closure (corner test)."""
    params = domain.params
    s = params.level ** m

    def filt(corners):
        if isinstance(domain, HalfDomain):
            return (corners[:, :, 0] <= s).all(axis=1)
        num, den = domain.cut_y.numerator, domain.cut_y.denominator
        ys = corners[:, :, 1] * np.int64(den)
        bound = np.int64(num) * s
        if isinstance(domain, UpperDomain):
            return (ys >= bound).all(axis=1)
        return (ys <= bound).all(axis=1)

    return filt


def domain_graph(domain, m):
    """Level-m graph of the cells contained in the domain closure."""
    return build_graph(domain.params, m, contained_cell_filter(domain, m))


# ---------------------------------------------------------------------------
# CSV export


def export_graph_csv(graph, edge_path, vertex_path):
    """Edge list `vertex_id,vertex_id` plus a sidecar
    `vertex_id,word,corner,x,y` with exact rational coordinates."""
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
