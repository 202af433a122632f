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

Two entry points share the types:
  solve_domain   a domain's level-m graph, which is never built.  The cell
                 tree is walked top down (geometry.domain_cell_tree), and
                 only the cells that cross the cut or hold a boundary vertex
                 are visited; every other cell inside is the one unloaded
                 type of its depth.  So the cost follows the boundary, not
                 the cell count, and no numpy is loaded.  The boundary
                 vertices are read off the tree's finest rows, and their
                 values come from the caller in one batch of integer
                 points, a data lookup only.  `compare` uses it.
  solve          a DirichletProblem on any graph of build_graph's cells,
                 with any boundary set, in numpy arrays over every cell.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

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
# a domain's graph, condensed on its cell tree


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


def solve_domain(domain, m, boundary_values, targets, mode):
    """Values at the exact points `targets` of the oracle on
    `geometry.domain_graph(domain, m)`: the problem of
    `domain_restricted_graph`, solved on the domain's cell tree
    (`geometry.domain_cell_tree`) without the graph.  The boundary vertices
    are the corners marked in the tree's level-m rows, and
    boundary_values(points, s) gives their values in one call, for the
    points (x/s, y/s) of integer pairs (x, y) at s = l**m, in order.

    Loads go up through the listed cells only; a PLAIN cell has the one
    type of its depth and no load.  Values come down, by (cell, slot), only
    until every target has one.  mode: "rational" for Fractions, "float"
    for floats."""
    if mode not in ("rational", "float"):
        raise ContractViolation(f"unknown oracle mode {mode!r}")
    exact = mode == "rational"
    params = domain.params
    cells = geometry.domain_cell_tree(domain, m)
    types = _tree_types(params, cells)
    root = types[0][0]
    if not root.loaded:
        raise SolvabilityError("boundary set must be nonempty")
    if exact:
        check_exact_cap(_unknowns(root))
    s = params.level ** m
    want = [_scaled_point(p, s, m) for p in targets]
    number = Fraction if exact else float
    boundary = list(dict.fromkeys((x + qx, y + qy) for x, y, bits in cells[m]
                                  for j, (qx, qy) in enumerate(geometry.CORNERS_INT)
                                  if bits >> j & 1))
    value = dict(zip(boundary, map(number, boundary_values(boundary, s)))).__getitem__
    load, inner = _loads_up(params, cells, types, value, exact)
    # the root's free corners from its Schur block, with a unit diagonal on
    # its absent and boundary corners
    rinv = _inverse(_with_dead_diagonal(root.blocks[0], root.status))
    corners = [None if st == _ABSENT
               else value((s * qx, s * qy)) if st == _BOUNDARY
               else number(sum(map(mul, row, load)))
               for st, (qx, qy), row in zip(root.status, geometry.CORNERS_INT, rinv)]
    found = _values_down(params, cells, types, inner, corners, set(want), value, exact)
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


def _values_down(params, cells, types, inner, corners, pending, value, exact):
    """The values at the points of `pending` (integer points at scale
    l**m), found level by level from the root's corner values: a cell's
    inner slots take Minv b_i - X u_c where free, the boundary value where
    boundary, and its children take their corners from its slots."""
    m = len(cells) - 1
    s = params.level ** m
    slot_points = dict(zip(sum(params.cell_slots, ()), sum(params.cell_points, ())))
    found = {(s * qx, s * qy): v for (qx, qy), v in zip(geometry.CORNERS_INT, corners)
             if v is not None}
    pending = pending - set(found)
    plain = (geometry.PLAIN,) * params.map_count
    level = [(0, 0, cells[0][0][2], types[0][0], inner[0][0], corners)]
    for k in range(m):
        if not pending:
            break
        sub = params.level ** (m - k - 1)
        below = []
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
                if v is not None and p in pending:
                    found[p] = v
                    pending.discard(p)
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
        level = below
    return found


def _scaled_point(p, s, m):
    """The exact point p as integer coordinates at scale s = l**m."""
    x, y = Fraction(p[0]) * s, Fraction(p[1]) * s
    if x.denominator != 1 or y.denominator != 1:
        raise AddressError(f"{p} is not a level-{m} vertex")
    return int(x), int(y)


# ---------------------------------------------------------------------------
# any graph of build_graph's cells, in numpy arrays


@dataclass
class DirichletProblem:
    """Boundary set B with values g on a level-m graph; solvable iff every
    connected component of the graph touches B."""

    graph: geometry.Graph
    boundary_ids: object  # int64 array
    boundary_values: object  # sequence aligned with boundary_ids

    def __post_init__(self):
        import numpy as np

        self.boundary_ids = np.asarray(self.boundary_ids, dtype=np.int64)
        if len(self.boundary_ids) == 0:
            raise SolvabilityError("boundary set must be nonempty")
        if len(self.boundary_ids) != len(self.boundary_values):
            raise SolvabilityError("boundary values must align with boundary ids")


def solve(problem, mode="auto"):
    """Solve the graph Dirichlet problem on a graph that keeps its cells;
    returns values for all vertices.

    mode: "rational" for exact Fractions (a list), "float" for floats (an
    ndarray), "auto" picks rational when the boundary values are
    Fractions/ints.
    """
    import numpy as np

    if mode not in ("auto", "rational", "float"):
        raise ContractViolation(f"unknown oracle mode {mode!r}")
    if mode == "auto":
        exact = all(isinstance(v, (Fraction, int)) for v in problem.boundary_values)
        mode = "rational" if exact else "float"
    graph = problem.graph
    if graph.cells is None:
        raise ContractViolation("the oracle condenses over the cells; this graph has none")
    bmask = np.zeros(graph.n_vertices(), dtype=bool)
    bmask[problem.boundary_ids] = True
    if mode == "float":
        u = np.zeros(graph.n_vertices())
        u[problem.boundary_ids] = [float(v) for v in problem.boundary_values]
    else:
        check_exact_cap(int((~bmask).sum()))
        u = np.full(graph.n_vertices(), Fraction(0), dtype=object)
        u[problem.boundary_ids] = [Fraction(v) for v in problem.boundary_values]
    _condense(graph, bmask, u)
    return u if mode == "float" else u.tolist()


def _parent_types(types, ntypes, kid):
    """Dense type ids of the parents, whose type is the tuple of their
    children's types per digit (-1 where absent), and the first parent of
    each type."""
    import numpy as np

    ptype = np.zeros(len(kid), dtype=np.int64)
    for k in kid.T:
        child = np.where(k >= 0, types[k], -1)
        _, first, ptype = np.unique(ptype * (ntypes + 1) + child + 1,
                                    return_index=True, return_inverse=True)
    return ptype, first


def _condense(graph, bmask, u):
    """Fill in u at the free vertices; u holds the boundary values, and its
    dtype (object for Fractions, or float) is the loads' number type.

    Level-k cells meet only at their corners, so every level-(k-1) cell,
    assembled on the V_1 slots of its children, eliminates its inner slots
    locally: it becomes the 3x3 Schur block of its type plus a load.  At
    level 0 the at most three corner unknowns are solved directly, then the
    saved inner loads give every other vertex on the way down.
    """
    import numpy as np

    exact = u.dtype == object
    dtype = object if exact else float
    params = graph.params
    slot = np.array(params.cell_slots)
    size = int(slot.max()) + 1
    ids, codes = graph.cells, graph.cell_codes
    bnd = bmask[ids]
    types = bnd @ np.array([1, 2, 4])
    table = _finest_types()
    # a free corner's row of the triangle block takes -1 times each boundary
    # neighbour into the load
    g = np.where(bnd, u[ids], 0)
    load = np.where(bnd, 0, g.sum(axis=1)[:, None])
    del g, bnd
    saved = []
    for _ in range(graph.m):
        parent, digit = np.divmod(codes, params.map_count)
        first = np.ones(len(codes), dtype=bool)
        first[1:] = parent[1:] != parent[:-1]
        at = np.cumsum(first) - 1
        # child of each parent with each digit, -1 where it is absent
        kid = np.full((int(at[-1]) + 1, params.map_count), -1)
        kid[at, digit] = np.arange(len(codes))
        ptype, rep = _parent_types(types, len(table), kid)
        kid_types = np.where(kid[rep] >= 0, types[kid[rep]], -1).tolist()
        table = [_condense_type(params.level, tuple(table[c] if c >= 0 else None for c in kt))
                 for kt in kid_types]
        # slot vertex ids (-1 where no child has a vertex) and summed loads
        sid = np.full((len(kid), size), -1, dtype=np.int64)
        b = np.zeros(sid.shape, dtype=u.dtype)
        for i in range(3):
            flat = at * size + slot[digit, i]
            # a child's absent corner (-1) must not hide a sibling's vertex;
            # siblings that share a vertex write the same id
            has = ids[:, i] >= 0
            sid.ravel()[flat[has]] = ids[has, i]
            np.add.at(b.ravel(), flat, load[:, i])
        ops = [(t.loaded, np.array(t.minv, dtype=dtype) if t.loaded else None,
                np.array(t.blocks[1], dtype=dtype)) for t in table]
        load = np.zeros((len(kid), 3), dtype=u.dtype)
        for t, (loaded, _, x) in enumerate(ops):
            if loaded:
                sel = ptype == t
                load[sel] = b[sel, :3] - b[sel, 3:] @ x  # b_c - G b_i, G = X^T
        saved.append((sid, ptype, b[:, 3:], ops))
        ids, codes, types = sid[:, :3], parent[first], ptype
        del b, kid
    # level 0: one cell, whose absent and boundary corners get a unit diagonal
    root = table[types[0]]
    rinv = np.array(_inverse(_with_dead_diagonal(root.blocks[0], root.status)), dtype=dtype)
    _set_free(u, ids, bmask, (rinv @ load[0])[None, :])
    for sid, ptype, bi, ops in reversed(saved):
        corners = sid[:, :3]
        uc = np.where(corners >= 0, u[corners], 0)
        ui = np.empty(bi.shape, dtype=u.dtype)
        for t, (loaded, minv, x) in enumerate(ops):
            sel = ptype == t
            ui[sel] = (bi[sel] @ minv.T if loaded else 0) - uc[sel] @ x.T
        _set_free(u, sid[:, 3:], bmask, ui)


def _set_free(u, ids, bmask, values):
    """u[ids] = values, skipping absent slots (-1) and boundary vertices."""
    keep = ids >= 0
    keep[keep] = ~bmask[ids[keep]]
    u[ids[keep]] = values[keep]


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
        return DirichletProblem(self.graph, self.boundary_ids, vals)


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
    import numpy as np

    graph = geometry.build_graph(params, m)
    ids = [
        graph.vertex_id((Fraction(x), Fraction(y)))
        for (x, y) in geometry.CORNERS_INT
    ]
    problem = DirichletProblem(graph, np.array(ids), list(corner_values))
    return graph, solve(problem, mode=mode)


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
