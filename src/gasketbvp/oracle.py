"""The finite-graph oracle: the Dirichlet problem on approximating graphs.

Given boundary vertices and values, it solves the mean-value equations
deg(x) u(x) = sum of neighbour values at every interior vertex.  This is
the independent ground truth for every closed-form extension algorithm in
the package, and it uses none of them: no renormalisation constant, no
extension formula.

It is one static condensation over the cell hierarchy.  The graph
Laplacian is a sum of one triangle block per level-m cell, and each coarser
cell eliminates its inner vertices onto its three corners.  How a cell
condenses depends only on its type, the free, boundary or absent status of
every vertex below it, and a cut domain has few types per level.  So each
type is condensed once, exactly in Fractions, and a zero pivot there is the
exact test that an interior component does not touch the boundary.  Per
cell only loads go up and values come down; the modes differ only in their
number type, Fraction in rational mode and float in float mode.

One engine runs it, on a cell tree in the form of geometry.domain_cell_tree
from one of two sources.  A domain's tree lists only the cells that cross
the cut or hold a boundary vertex; every other cell inside is the one
unloaded type of its depth (PLAIN), so the cost follows the boundary and
the graph is never built.  A graph's tree, for any graph of build_graph's
cells with any boundary set, lists every cell, so it is for small m.
Values come down one level at a time, only as far as they are read.
`solve_domain` (compare) asks the caller for its boundary values in one
batch of integer points, a data lookup only, stops at its last target and
keeps only the targets' values.  `solve` walks the domain's tree for a
problem of DomainSkeleton.problem and the graph's for any other, and
returns a sequence over vertex ids that walks down to a vertex's level
when the vertex is read.  numpy holds only the graph and the boundary
ids; the arithmetic is plain Python.
"""

from __future__ import annotations

import importlib
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import index, mul

from . import _exact, geometry
from .errors import AddressError, ContractViolation, ResolutionError, SolvabilityError


def __getattr__(name):
    # bench/tracing.py wraps `oracle.spla`; only a traced run loads scipy
    if name == "spla":
        return importlib.import_module("scipy.sparse.linalg")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# cell types, condensed exactly in lists of Fractions


# status of a cell's corner: no vertex there, a boundary vertex, an unknown
_ABSENT, _BOUNDARY, _FREE = 0, 1, 2

# the graph Laplacian is the sum over level-m cells of this triangle block
_TRIANGLE = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))


@dataclass(eq=False)
class _CellType:
    """One cell type: the status of its corners, the number of free
    vertices strictly inside it, and whether a boundary vertex lies in it
    (`loaded`: a cell without one carries no load).  `parts` is what a
    coarser type is made of, (level, children per digit, status of every
    V_1 slot), and None for a level-m cell.  Its matrices are condensed on
    first use, so counting free vertices condenses nothing.  Types compare
    by identity: the cache of `_condense_type` gives equal children the
    same parent object."""

    status: tuple
    free: int
    loaded: bool
    parts: tuple = None

    @cached_property
    def local(self):
        """The local matrix on the V_1 slots, summed from the children's
        Schur blocks, with a unit diagonal on the inner slots of no vertex
        and of boundary vertices, whose rows and columns are empty."""
        level, children, status = self.parts
        a = [[Fraction(0)] * len(status) for _ in status]
        for corners, child in zip(geometry.gasket(level).cell_slots, children):
            if child is not None:
                for i, row in zip(corners, child.blocks[0]):
                    for j, v in zip(corners, row):
                        a[i][j] += v
        return _with_dead_diagonal(a, (_FREE,) * 3 + status[3:])

    @cached_property
    def blocks(self):
        """(schur, x), exact: the Schur complement onto the corners and, over
        the inner slots, X = Minv A_ic.  The local matrix is symmetric, so
        A_ci Minv = X^T."""
        if self.parts is None:
            # boundary rows and columns of the triangle block are empty
            free = [st == _FREE for st in self.status]
            return [[Fraction(t if free[i] and free[j] else 0) for j, t in enumerate(row)]
                    for i, row in enumerate(_TRIANGLE)], None
        a = self.local
        x = _solve([row[3:] for row in a[3:]], [row[:3] for row in a[3:]])
        schur = [[v - w for v, w in zip(row[:3], prod)]
                 for row, prod in zip(a[:3], _matmul([row[3:] for row in a[:3]], x))]
        return schur, x

    @cached_property
    def minv(self):
        """The inverse Minv of the local matrix over the inner slots: only
        the values of a loaded cell's inner slots need it."""
        return _inverse([row[3:] for row in self.local[3:]])

    @cached_property
    def float_x(self):
        return [[float(v) for v in row] for row in self.blocks[1]]

    @cached_property
    def float_minv(self):
        return [[float(v) for v in row] for row in self.minv]


def _matmul(a, b):
    """The product of two matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


@lru_cache(maxsize=None)
def _finest_types():
    """The 8 level-m cell types: bit j is set when corner j is a boundary
    vertex."""
    return [_CellType(tuple(_BOUNDARY if t >> j & 1 else _FREE for j in range(3)), 0, t > 0)
            for t in range(8)]


def _solve(a, b):
    """a^-1 b, exact, for a symmetric positive semidefinite matrix a of
    Fractions, by Gauss-Jordan without pivoting.  A zero pivot occurs
    exactly when a is singular, that is when some interior component does
    not touch the boundary."""
    n = len(a)
    aug = [list(row) + list(rhs) for row, rhs in zip(a, b)]
    for k in range(n):
        pivot = aug[k][k]
        if pivot == 0:
            raise SolvabilityError("an interior component does not touch the boundary")
        aug[k] = [v / pivot for v in aug[k]]
        for i in range(n):
            f = aug[i][k]
            if i != k and f != 0:
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def _inverse(a):
    return _solve(a, [[Fraction(int(i == j)) for j in range(len(a))] for i in range(len(a))])


def _with_dead_diagonal(a, status):
    """a with a unit diagonal on the slots of no vertex and of boundary
    vertices, whose rows and columns are empty: it decouples them."""
    return [[v + 1 if i == j and status[i] != _FREE else v for j, v in enumerate(row)]
            for i, row in enumerate(a)]


@lru_cache(maxsize=4096)
def _condense_type(level, children):
    """The parent type of SG_level, given its children's types per digit
    (None where the child is absent).  Cached: the solves of one domain at
    successive levels share their finer types."""
    slot = geometry.gasket(level).cell_slots
    status = [_ABSENT] * (max(map(max, slot)) + 1)
    for corners, child in zip(slot, children):
        if child is not None:
            # an absent corner must not hide a sibling's vertex; a vertex is
            # boundary or free in every child that has it
            for i, st in zip(corners, child.status):
                status[i] = max(status[i], st)
    free = sum(c.free for c in children if c is not None) + status[3:].count(_FREE)
    loaded = any(c is not None and c.loaded for c in children)
    return _CellType(tuple(status[:3]), free, loaded, (level, children, tuple(status)))


@lru_cache(maxsize=None)
def _plain_type(level, depth):
    """The type of a cell with every cell `depth` levels below it and no
    boundary vertex."""
    if depth == 0:
        return _finest_types()[0]
    children = (_plain_type(level, depth - 1),) * geometry.gasket(level).map_count
    return _condense_type(level, children)


def check_exact_cap(unknowns):
    """Refuse a rational solve of more than EXACT_UNKNOWN_CAP unknowns."""
    if unknowns > _exact.EXACT_UNKNOWN_CAP:
        raise SolvabilityError(
            f"rational mode capped at {_exact.EXACT_UNKNOWN_CAP} unknowns, got {unknowns}"
        )


# ---------------------------------------------------------------------------
# the engine: loads up and values down a cell tree


def _tree_types(params, cells):
    """The type of every listed cell of a `geometry.domain_cell_tree`, per
    level, or None for a cell that holds no level-m cell of the domain."""
    m = len(cells) - 1
    finest = _finest_types()
    types = [[finest[bits] for _, _, bits in cells[m]]]
    for k in range(m - 1, -1, -1):
        plain, below = _plain_type(params.level, m - k - 1), types[0]
        row = []
        for _, _, kids in cells[k]:
            children = tuple(plain if c == geometry.PLAIN else None if c is None else below[c]
                             for c in kids)
            row.append(_condense_type(params.level, children) if any(children) else None)
        types.insert(0, row)
    if types[0][0] is None:
        raise ResolutionError("no cells of this level are contained in the domain")
    return types


def domain_unknowns(domain, m):
    """The free vertices of `geometry.domain_graph(domain, m)`, counted on
    the domain's cell tree without condensing."""
    return _unknowns(_tree_types(domain.params, geometry.domain_cell_tree(domain, m))[0][0])


def _unknowns(root):
    """The free vertices below a root type: each is a free corner of the root
    or a free inner slot of exactly one cell."""
    return root.free + root.status.count(_FREE)


def _solve_tree(params, cells, lookup, exact):
    """The oracle on a cell tree in the form of `geometry.domain_cell_tree`,
    as `_values_down` yields its values.  The boundary vertices are the
    corners marked in the level-m rows; lookup(points) gives their values
    for integer points at scale l**m.  Every refusal comes before this
    returns: an empty boundary and the rational cap before any lookup, a
    zero pivot when the root's Schur block condenses every type."""
    types = _tree_types(params, cells)
    root = types[0][0]
    if not root.loaded:
        raise SolvabilityError("boundary set must be nonempty")
    if exact:
        check_exact_cap(_unknowns(root))
    m = len(cells) - 1
    s = params.level ** m
    number = Fraction if exact else float
    boundary = list(dict.fromkeys((x + qx, y + qy) for x, y, bits in cells[m]
                                  for j, (qx, qy) in enumerate(geometry.CORNERS_INT)
                                  if bits >> j & 1))
    value = dict(zip(boundary, map(number, lookup(boundary)))).__getitem__
    load, inner = _loads_up(params, cells, types, value, exact)
    # the root's free corners from its Schur block, with a unit diagonal on
    # its absent and boundary corners
    rinv = _inverse(_with_dead_diagonal(root.blocks[0], root.status))
    corners = [None if st == _ABSENT
               else value((s * qx, s * qy)) if st == _BOUNDARY
               else number(sum(map(mul, row, load)))
               for st, (qx, qy), row in zip(root.status, geometry.CORNERS_INT, rinv)]
    return _values_down(params, cells, types, inner, corners, value, exact)


def solve_domain(domain, m, boundary_values, targets, mode):
    """Values at the exact points `targets` of the oracle on
    `geometry.domain_graph(domain, m)`, the problem of
    `domain_restricted_graph`, solved on the domain's cell tree without the
    graph.  boundary_values(points, s) gives the boundary values in one
    call, for the points (x/s, y/s) of integer pairs (x, y) at s = l**m.
    Values come down only until every target has one, and only the
    targets' are kept.  mode: "rational" for Fractions, "float" for
    floats."""
    if mode not in ("rational", "float"):
        raise ContractViolation(f"unknown oracle mode {mode!r}")
    s = domain.params.level ** m
    levels = _solve_tree(domain.params, geometry.domain_cell_tree(domain, m),
                         lambda points: boundary_values(points, s), mode == "rational")
    want = [_scaled_point(p, s, m) for p in targets]
    pending, found = set(want), {}
    for values in levels:
        found.update((p, v) for p, v in values if p in pending)
        pending.difference_update(found)
        if not pending:
            break
    for p, q in zip(targets, want):
        if q not in found:
            raise AddressError(f"{p} is not a vertex of this graph")
    return [found[q] for q in want]


def _loads_up(params, cells, types, value, exact):
    """The root's load and, per level, each listed cell's inner loads b_i
    (None for a cell without load).  A level-m cell loads each free corner
    with the sum of its boundary values; a coarser one sums its children's
    loads on its V_1 slots and passes b_c - X^T b_i on."""
    m = len(cells) - 1
    loads = []
    for x, y, bits in cells[m]:
        g = sum(value((x + qx, y + qy)) for j, (qx, qy) in enumerate(geometry.CORNERS_INT)
                if bits >> j & 1)
        loads.append([0 if bits >> j & 1 else g for j in range(3)])
    slots = params.cell_slots
    size = max(map(max, slots)) + 1
    inner = [None] * m
    for k in range(m - 1, -1, -1):
        below, loads, inner[k] = loads, [], []
        for (_, _, kids), t in zip(cells[k], types[k]):
            load = bi = None
            if t is not None and t.loaded:
                b = [0] * size
                for corners, c in zip(slots, kids):
                    if c not in (None, geometry.PLAIN) and below[c] is not None:
                        for i, v in zip(corners, below[c]):
                            b[i] += v
                bi = b[3:]
                xt = zip(*(t.blocks[1] if exact else t.float_x))
                load = [v - sum(map(mul, col, bi)) for v, col in zip(b[:3], xt)]
            loads.append(load)
            inner[k].append(bi)
    return loads[0] or [0, 0, 0], inner


def _values_down(params, cells, types, inner, corners, value, exact):
    """Yield the vertex values level by level, each level a list of (point,
    value) with integer points at scale l**m: first the root's corners,
    then the inner slots of the cells of each level, which are the vertices
    one level finer.  A cell's inner slots take Minv b_i - X u_c where free
    and the boundary value where boundary, and its children take their
    corners from its slots."""
    m = len(cells) - 1
    s = params.level ** m
    slot_points = dict(zip(sum(params.cell_slots, ()), sum(params.cell_points, ())))
    yield [((s * qx, s * qy), v) for (qx, qy), v in zip(geometry.CORNERS_INT, corners)
           if v is not None]
    plain = (geometry.PLAIN,) * params.map_count
    level = [(0, 0, cells[0][0][2], types[0][0], inner[0][0], corners)] if m else []
    for k in range(m):
        sub = params.level ** (m - k - 1)
        below, values = [], []
        for x, y, kids, t, bi, uc in level:
            xr = t.blocks[1] if exact else t.float_x
            ub = None
            if bi:
                # the loads' part of the inner values, Minv b_i
                ub = [sum(map(mul, row, bi)) for row in (t.minv if exact else t.float_minv)]
            u = list(uc)
            uc = [0 if v is None else v for v in uc]
            for r, st in enumerate(t.parts[2][3:]):
                px, py = slot_points[3 + r]
                p = (x + sub * px, y + sub * py)
                if st == _FREE:
                    v = (ub[r] if ub else 0) - sum(map(mul, xr[r], uc))
                else:
                    v = value(p) if st == _BOUNDARY else None
                u.append(v)
                if v is not None:
                    values.append((p, v))
            if k + 1 == m:
                continue
            for slot, (tx, ty), c in zip(params.cell_slots, params.int_translations, kids):
                child = (x + sub * tx, y + sub * ty)
                if c == geometry.PLAIN:
                    t = _plain_type(params.level, m - k - 1)
                    below.append((*child, plain, t, None, [u[i] for i in slot]))
                elif c is not None and types[k + 1][c] is not None:
                    below.append((*child, cells[k + 1][c][2], types[k + 1][c], inner[k + 1][c],
                                  [u[i] for i in slot]))
        yield values
        level = below


def _scaled_point(p, s, m):
    """The exact point p as integer coordinates at scale s = l**m."""
    x, y = Fraction(p[0]) * s, Fraction(p[1]) * s
    if x.denominator != 1 or y.denominator != 1:
        raise AddressError(f"{p} is not a level-{m} vertex")
    return int(x), int(y)


# ---------------------------------------------------------------------------
# a problem on a graph of build_graph's cells


@dataclass
class DirichletProblem:
    """Boundary set B with values g on a level-m graph; solvable iff every
    connected component of the graph touches B.  `domain` is set when the
    graph is `geometry.domain_graph(domain, m)` and B its boundary, as
    `DomainSkeleton.problem` makes it: `solve` then walks the domain's cell
    tree."""

    graph: geometry.Graph
    boundary_ids: object  # int64 array
    boundary_values: object  # sequence aligned with boundary_ids
    domain: geometry.Domain = None

    def __post_init__(self):
        import numpy as np

        self.boundary_ids = np.asarray(self.boundary_ids, dtype=np.int64)
        if len(self.boundary_ids) == 0:
            raise SolvabilityError("boundary set must be nonempty")
        if len(self.boundary_ids) != len(self.boundary_values):
            raise SolvabilityError("boundary values must align with boundary ids")


def solve(problem, mode="auto"):
    """Solve the graph Dirichlet problem; returns a read-only sequence of
    the values by vertex id, Fractions in rational mode and floats in float
    mode ("auto" picks rational when the boundary values are
    Fractions/ints).  The engine walks the problem's domain's cell tree when
    it has a domain and the graph's cells otherwise.  Every refusal comes
    here; a value is computed when read, down to its vertex's level."""
    if mode not in ("auto", "rational", "float"):
        raise ContractViolation(f"unknown oracle mode {mode!r}")
    exact = mode == "rational" or mode == "auto" and all(
        isinstance(v, (Fraction, int)) for v in problem.boundary_values)
    graph = problem.graph
    points = map(tuple, graph.verts[problem.boundary_ids].tolist())
    given = dict(zip(points, problem.boundary_values))
    if problem.domain is None:
        cells = _graph_cell_tree(graph, problem.boundary_ids.tolist())
    else:
        cells = geometry.domain_cell_tree(problem.domain, graph.m)
    levels = _solve_tree(graph.params, cells, lambda points: [given[p] for p in points], exact)
    return _Values(graph.verts, levels)


def _graph_cell_tree(graph, boundary_ids):
    """The level-m cells of a graph as a tree in the form of
    `geometry.domain_cell_tree`, every cell listed: the level-m rows mark
    the corners whose vertex is in boundary_ids.  Corner 1 of a cell, at
    q1 = (0, 0), is its offset, and the cell codes ascend, so the parents
    do too."""
    if graph.cells is None:
        raise ContractViolation("the oracle condenses over the cells; this graph has none")
    params, boundary, n = graph.params, set(boundary_ids), graph.params.map_count
    offsets = graph.verts[graph.cells[:, 1]].tolist()
    rows = [[(x, y, sum(1 << j for j, v in enumerate(ids) if v in boundary))
             for (x, y), ids in zip(offsets, graph.cells.tolist())]]
    codes = graph.cell_codes.tolist()
    for k in range(graph.m - 1, -1, -1):
        step, parents = params.level ** (graph.m - k - 1), {}
        for i, (code, (x, y, _)) in enumerate(zip(codes, rows[0])):
            tx, ty = params.int_translations[code % n]
            parent = parents.setdefault(code // n, (x - step * tx, y - step * ty, [None] * n))
            parent[2][code % n] = i
        codes = list(parents)
        rows.insert(0, [(x, y, tuple(kids)) for x, y, kids in parents.values()])
    return rows


class _Values(Sequence):
    """The values of `solve` by vertex id, read-only.  Reading a vertex
    takes levels from the walk until the vertex's own level has come."""

    def __init__(self, verts, levels):
        self._verts, self._levels, self._found = verts, levels, {}

    def __len__(self):
        return len(self._verts)

    def __getitem__(self, i):
        p = tuple(self._verts[index(i)].tolist())
        while p not in self._found:
            self._found.update(next(self._levels))
        return self._found[p]


def matching_residuals(graph, values, bmask):
    """Max mean-value residual over interior vertices (diagnostic)."""
    worst = 0
    for i in range(graph.n_vertices()):
        if bmask[i]:
            continue
        nbrs = graph.neighbors(i)
        res = len(nbrs) * values[i] - sum(values[int(j)] for j in nbrs)
        worst = max(worst, abs(res))
    return worst


# ---------------------------------------------------------------------------
# domain-restricted graphs


@dataclass
class DomainSkeleton:
    """Vertex set of the level-m cells contained in a domain closure, with
    the classified boundary subset (the discrete counterpart of O_m/A_m)."""

    domain: geometry.Domain
    graph: geometry.Graph
    boundary_ids: object  # int64 array
    boundary_kinds: tuple  # CANTOR / CORNER per boundary id

    def problem(self, boundary_value_fn):
        vals = [boundary_value_fn(self.graph.point(int(i))) for i in self.boundary_ids]
        return DirichletProblem(self.graph, self.boundary_ids, vals, self.domain)


def domain_restricted_graph(domain, m):
    """Assemble the Dirichlet skeleton of a domain from its level-m cells:
    the graph form of the problem `solve_domain` solves on the cell tree."""
    import numpy as np

    graph = geometry.domain_graph(domain, m)
    cantor, corner = geometry.boundary_masks(domain, graph)
    bids = np.flatnonzero(cantor | corner)
    kinds = tuple(geometry.CORNER if corner[i] else geometry.CANTOR for i in bids)
    return DomainSkeleton(domain, graph, bids, kinds)


def solve_full_gasket(params, m, corner_values, mode="auto"):
    """Oracle with B = V_0 on the full gasket; cross-checks the extension."""
    graph = geometry.build_graph(params, m)
    ids = [graph.vertex_id(q) for q in geometry.CORNERS]
    return graph, solve(DirichletProblem(graph, ids, list(corner_values)), mode=mode)


# ---------------------------------------------------------------------------
# CSV interface (matches the geometry export format)


def write_values_csv(graph, values, path):
    with open(path, "w") as fh:
        fh.write("vertex_id,value\n")
        for i in range(graph.n_vertices()):
            fh.write(f"{i},{values[i]}\n")


def read_values_csv(path):
    out = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "vertex_id,value":
            raise SolvabilityError(f"expected header 'vertex_id,value', got {header!r}")
        for line in fh:
            vid, val = line.strip().split(",")
            try:
                out[int(vid)] = Fraction(val)
            except ValueError:
                out[int(vid)] = float(val)
    return out
