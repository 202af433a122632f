"""The finite-graph oracle: the Dirichlet problem on approximating graphs.

Given boundary vertices and values, it solves the mean-value equations
deg(x) u(x) = sum of neighbour values at every interior vertex.  This is
the independent ground truth for every closed-form extension algorithm in
the package, and it uses none of them: no renormalisation constant, no
extension formula.

It is one static condensation over the cell hierarchy, in conductance
form: the equations are a grounded graph Laplacian, conductance 1 along
each edge between free vertices and a grounding for each edge to a
boundary vertex, whose value is a load.  Each coarser cell eliminates its
free inner vertices onto its corners by Grassmann-Taksar-Heyman
elimination (Oper. Res. 33, 1985), which only adds nonnegative terms.  So
it runs on Fractions in rational mode and on floats in float mode, with
entrywise relative accuracy (O'Cinneide, Numer. Math. 65, 1993), and a
pivot is 0 in either mode exactly when some interior component does not
touch the boundary.  A cell condenses by its type, the free, boundary or
absent status of every vertex below it, and a cut domain has few types
per level, so each type is condensed once.  Per cell only loads go up, by
forward substitution over the type's elimination record, and values come
down by back substitution.

One engine runs it, on a cell tree in the form of geometry.domain_cell_tree
from one of two sources.  A domain's tree lists only the cells that cross
the cut or hold a boundary vertex; every other cell inside is the one
unloaded type of its depth (PLAIN), so the cost follows the boundary and
the graph is never built.  A graph's tree, for any graph of build_graph's
cells with any boundary set, lists every cell, so it is for small m.
Values come down one level at a time, only as far as they are read.
`solve_domain` (compare) takes the domain's tree of its level, asks the
caller for its boundary values in one batch of integer points, a data
lookup only, stops at its last target and keeps only the targets' values.
`solve` walks the domain's tree for a problem of DomainSkeleton.problem
and the graph's for any other, and returns a sequence over vertex ids
that walks down to a vertex's level when the vertex is read.  numpy holds
only the graph and the boundary ids; the arithmetic is plain Python.
"""

import importlib
from collections.abc import Sequence
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
# cell types, condensed in conductance form


# status of a cell's corner: no vertex there, a boundary vertex, an unknown
_ABSENT, _BOUNDARY, _FREE = 0, 1, 2


class _CellType:
    """One cell type: the status of its corners, the number of free
    vertices strictly inside it, whether a boundary vertex lies in it
    (`loaded`: a cell without one carries no load) and the number type it
    condenses in.  `parts` is (level, children per digit, status of every
    V_1 slot) for a coarser type, None for a level-m cell.  It condenses on
    first use, so counting free vertices condenses nothing.  Types compare
    by identity: `_condense_type`'s cache gives equal children one parent."""

    def __init__(self, status, free, loaded, number, parts=None):
        self.status, self.free, self.loaded = status, free, loaded
        self.number, self.parts = number, parts

    @cached_property
    def schur(self):
        """(c, g, record): the Schur complement onto the corners, as
        conductances c[i] = {j: c_ij} between free corners and groundings
        g[i], and the `_eliminate` record of the free inner slots.  A level-m
        cell has conductance 1 between free corners, each grounded once per
        boundary corner; a coarser one sums its children's on its V_1 slots."""
        if self.parts is None:
            free = [j for j, st in enumerate(self.status) if st == _FREE]
            one, ground = self.number(1), self.number(3 - len(free))
            return ([{j: one for j in free if j != i} if i in free else {} for i in range(3)],
                    [ground if i in free else 0 for i in range(3)], [])
        level, children, status = self.parts
        c, g = [{} for _ in status], [0] * len(status)
        for corners, child in zip(geometry.gasket(level).cell_slots, children):
            if child is not None:
                cc, cg, _ = child.schur
                for i, row, gi in zip(corners, cc, cg):
                    g[i] += gi
                    for j, v in row.items():
                        c[i][corners[j]] = c[i].get(corners[j], 0) + v
        record = _eliminate(c, g, [k for k in range(3, len(status)) if status[k] == _FREE])
        return c[:3], g[:3], record


def _eliminate(c, g, order):
    """Eliminate the slots `order` in turn from the grounded graph Laplacian
    of conductances c[i] = {j: c_ij} and groundings g[i]: pivot d_k =
    sum_j c_kj + g_k, then c_ij += c_ik c_kj / d_k and g_i += c_ik g_k / d_k.
    c and g are left as the Schur complement onto the other slots; returns
    the record [(k, d_k, slots j, weights c_kj / d_k)].  No term is negative,
    so d_k is 0, in floats too, exactly when slot k has no conductance left:
    some interior component does not touch the boundary."""
    record = []
    for k in order:
        row = c[k]
        d = sum(row.values()) + g[k]
        if d == 0:
            raise SolvabilityError("an interior component does not touch the boundary")
        slots = tuple(row)
        weights = tuple(v / d for v in row.values())
        for i, wi in zip(slots, weights):
            ci, cik = c[i], row[i]
            del ci[k]
            for j, w in zip(slots, weights):
                if j != i:
                    ci[j] = ci.get(j, 0) + cik * w
            g[i] += g[k] * wi
        record.append((k, d, slots, weights))
    return record


def _forward(record, b):
    """Forward substitution of the loads b over an elimination record:
    y_k = b_k / d_k per step, then b_j += (c_kj / d_k) b_k.  Returns the
    y_k and leaves in b the loads on the slots not eliminated."""
    ys = []
    for k, d, slots, weights in record:
        bk = b[k]
        ys.append(bk / d)
        for j, w in zip(slots, weights):
            b[j] += w * bk
    return ys


def _backward(record, ys, u):
    """Back substitution over an elimination record into the slot values u,
    last step first: u_k = y_k + sum_j (c_kj / d_k) u_j.  ys is None for a
    cell without load, whose y_k are 0."""
    for n in range(len(record) - 1, -1, -1):
        k, _, slots, weights = record[n]
        v = sum(map(mul, weights, map(u.__getitem__, slots)))
        u[k] = v + ys[n] if ys else v


@lru_cache(maxsize=None)
def _finest_types(number):
    """The 8 level-m cell types of one number type: bit j is set when
    corner j is a boundary vertex."""
    return [_CellType(tuple(_BOUNDARY if t >> j & 1 else _FREE for j in range(3)), 0, t > 0,
                      number)
            for t in range(8)]


@lru_cache(maxsize=4096)
def _condense_type(level, children, number):
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
    return _CellType(tuple(status[:3]), free, loaded, number, (level, children, tuple(status)))


@lru_cache(maxsize=None)
def _plain_type(level, depth, number):
    """The type of a cell with every cell `depth` levels below it and no
    boundary vertex."""
    if depth == 0:
        return _finest_types(number)[0]
    children = (_plain_type(level, depth - 1, number),) * geometry.gasket(level).map_count
    return _condense_type(level, children, number)


def check_exact_cap(unknowns):
    """Refuse a rational solve of more than EXACT_UNKNOWN_CAP unknowns."""
    if unknowns > _exact.EXACT_UNKNOWN_CAP:
        raise SolvabilityError(
            f"rational mode capped at {_exact.EXACT_UNKNOWN_CAP} unknowns, got {unknowns}"
        )


# ---------------------------------------------------------------------------
# the engine: loads up and values down a cell tree


def _tree_types(params, cells, number):
    """The type of every listed cell of a `geometry.domain_cell_tree`, per
    level, or None for a cell that holds no level-m cell of the domain."""
    m = len(cells) - 1
    finest = _finest_types(number)
    types = [[finest[bits] for _, _, bits in cells[m]]]
    for k in range(m - 1, -1, -1):
        plain, below = _plain_type(params.level, m - k - 1, number), types[0]
        row = []
        for _, _, kids in cells[k]:
            children = tuple(plain if c == geometry.PLAIN else None if c is None else below[c]
                             for c in kids)
            row.append(_condense_type(params.level, children, number) if any(children) else None)
        types.insert(0, row)
    if types[0][0] is None:
        raise ResolutionError("no cells of this level are contained in the domain")
    return types


def domain_unknowns(domain, cells):
    """The free vertices of a domain's graph, counted on its cell tree
    `cells` without condensing (so the float types serve either mode)."""
    return _unknowns(_tree_types(domain.params, cells, float)[0][0])


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
    zero pivot in condensing the types or the root."""
    number = Fraction if exact else float
    types = _tree_types(params, cells, number)
    root = types[0][0]
    if not root.loaded:
        raise SolvabilityError("boundary set must be nonempty")
    if exact:
        check_exact_cap(_unknowns(root))
    m = len(cells) - 1
    s = params.level ** m
    boundary = list(dict.fromkeys((x + qx, y + qy) for x, y, bits in cells[m]
                                  for j, (qx, qy) in enumerate(geometry.CORNERS_INT)
                                  if bits >> j & 1))
    value = dict(zip(boundary, map(number, lookup(boundary)))).__getitem__
    load, inner = _loads_up(params, cells, types, value)
    c, g, _ = root.schur
    record = _eliminate([dict(row) for row in c], list(g),
                        [j for j, st in enumerate(root.status) if st == _FREE])
    corners = [value((s * qx, s * qy)) if st == _BOUNDARY else None
               for st, (qx, qy) in zip(root.status, geometry.CORNERS_INT)]
    _backward(record, _forward(record, load), corners)
    return _values_down(params, cells, types, inner, corners, value)


def solve_domain(domain, cells, boundary_values, targets, mode):
    """Values at the exact points `targets` of the oracle on a domain's
    level-m graph, the problem of `domain_restricted_graph`, solved on its
    cell tree `cells` = `geometry.domain_cell_tree(domain, m)` without the
    graph.  boundary_values(points, s) gives the boundary values in one
    call, for the points (x/s, y/s) of integer pairs (x, y) at s = l**m.
    Values come down only until every target has one, and only the
    targets' are kept.  mode: "rational" for Fractions, "float" for
    floats."""
    if mode not in ("rational", "float"):
        raise ContractViolation(f"unknown oracle mode {mode!r}")
    m = len(cells) - 1
    s = domain.params.level ** m
    levels = _solve_tree(domain.params, cells, lambda points: boundary_values(points, s),
                         mode == "rational")
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


def _loads_up(params, cells, types, value):
    """The root's load on its corners and, per level, each listed cell's y_k
    of `_forward` (None for a cell without load).  A level-m cell loads each
    free corner with the sum of its boundary values; a coarser one sums its
    children's loads on its V_1 slots, runs forward substitution over its
    record and passes on the loads left on its corners."""
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
            b = ys = None
            if t is not None and t.loaded:
                b = [0] * size
                for corners, c in zip(slots, kids):
                    if c not in (None, geometry.PLAIN) and below[c] is not None:
                        for i, v in zip(corners, below[c]):
                            b[i] += v
                ys = _forward(t.schur[2], b)
                b = b[:3]
            loads.append(b)
            inner[k].append(ys)
    return loads[0], inner


def _values_down(params, cells, types, inner, corners, value):
    """Yield the vertex values level by level, each level a list of (point,
    value) with integer points at scale l**m: first the root's corners,
    then the inner slots of the cells of each level, which are the vertices
    one level finer.  A cell's inner slots take their boundary value where
    boundary and back substitution over its record where free, and its
    children take their corners from its slots."""
    m = len(cells) - 1
    s = params.level ** m
    slot_points = dict(zip(sum(params.cell_slots, ()), sum(params.cell_points, ())))
    inner_points = [slot_points[i] for i in range(3, len(slot_points))]
    yield [((s * qx, s * qy), v) for (qx, qy), v in zip(geometry.CORNERS_INT, corners)
           if v is not None]
    plain, number = (geometry.PLAIN,) * params.map_count, types[0][0].number
    level = [(0, 0, cells[0][0][2], types[0][0], inner[0][0], corners)] if m else []
    for k in range(m):
        sub = params.level ** (m - k - 1)
        plain_type = _plain_type(params.level, m - k - 1, number)
        below, values = [], []
        for x, y, kids, t, ys, uc in level:
            points = [(x + sub * px, y + sub * py) for px, py in inner_points]
            u = uc + [value(p) if st == _BOUNDARY else None
                      for p, st in zip(points, t.parts[2][3:])]
            _backward(t.schur[2], ys, u)
            values += [(p, v) for p, v in zip(points, u[3:]) if v is not None]
            if k + 1 == m:
                continue
            for slot, (tx, ty), c in zip(params.cell_slots, params.int_translations, kids):
                child = (x + sub * tx, y + sub * ty)
                if c == geometry.PLAIN:
                    below.append((*child, plain, plain_type, None, [u[i] for i in slot]))
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


class DirichletProblem:
    """Boundary set B (vertex ids, kept as an int64 array) with values g, a
    sequence aligned with it, on a level-m graph; solvable iff every
    connected component of the graph touches B.  `domain` is set when the
    graph is `geometry.domain_graph(domain, m)` and B its boundary, as
    `DomainSkeleton.problem` makes it: `solve` then walks the domain's cell
    tree."""

    def __init__(self, graph, boundary_ids, boundary_values, domain=None):
        import numpy as np

        self.graph, self.boundary_values, self.domain = graph, boundary_values, domain
        self.boundary_ids = np.asarray(boundary_ids, dtype=np.int64)
        if len(self.boundary_ids) == 0:
            raise SolvabilityError("boundary set must be nonempty")
        if len(self.boundary_ids) != len(boundary_values):
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


class DomainSkeleton:
    """Vertex set of the level-m cells contained in a domain closure, with
    the classified boundary subset (the discrete counterpart of O_m/A_m):
    boundary_ids an int64 array, boundary_kinds CANTOR or CORNER per id."""

    def __init__(self, domain, graph, boundary_ids, boundary_kinds):
        self.domain, self.graph, self.boundary_ids, self.boundary_kinds = (
            domain, graph, boundary_ids, boundary_kinds)

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
