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
free inner vertices onto its corners by the package's one elimination,
`_exact`'s Grassmann-Taksar-Heyman kernel, which only adds nonnegative
terms.  So it runs on Fractions in rational mode and on floats in float
mode, with entrywise relative accuracy, and a pivot is 0 in either mode
exactly when some interior component does not touch the boundary.  A
cell condenses by its type, the free, boundary or absent status of every
vertex below it, and a cut domain has few types per level, so each type
is condensed once.  Per cell only loads go up, by forward substitution
over the type's elimination record, and values come down by back
substitution.

One engine runs it (`_solve_rows`), on listed cells from one of two
sources.  A domain's cells are typed by shape (`CellShapes`): a cell's
type depends only on where the cut lies in the cell's own coordinates,
which of its corners are boundary corners of the domain, and its depth
above the graph's level (`geometry.cell_shape`).  So the types are made
once per shape, by recursion on shapes, and the graphs of every level
share them.  Only the cells above a frontier are listed one by one: a cell
is a leaf where no boundary vertex lies strictly inside it, or where the
boundary data is constant on its cut.  By linearity a leaf's load is its
type's unit loads times its boundary corners' values and that constant,
and nothing below it is listed, so the cost follows the data's words and
the types, not the graph or its boundary.  A domain's listing is bounded
by geometry.MAX_TREE_CELLS, counting its listed cells and the shapes made.
A graph's rows, for any graph of build_graph's cells with any boundary
set, list every cell, so they are for small m.  Values come down one
level at a time, only as far as they are read.  `solve_domain` (compare)
takes a domain's listed cells of one level, asks the caller for the
boundary values at the leaves' corners in one batch of integer points, a
data lookup only, stops at its last target and keeps only the targets'
values.  `solve` lists the domain's cells for a problem of
DomainSkeleton.problem, where no data is known to be constant, and the
graph's for any other, and returns a sequence over vertex ids that walks
down to a vertex's level when the vertex is read.  numpy holds
only the graph and the boundary ids; the arithmetic is plain Python.
"""

import importlib
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import index

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
    (`loaded`: a cell without one carries no load), whether one lies
    strictly inside it (`inner`) and the number type it condenses in.
    `parts` is (level, children per digit, status of every V_1 slot) for a
    coarser type, None for a level-m cell.  It condenses on first use, so
    counting free vertices condenses nothing.  Types compare by identity:
    `_condense_type`'s cache gives equal children one parent."""

    def __init__(self, status, free, loaded, inner, number, parts=None):
        self.status, self.free, self.loaded, self.inner = status, free, loaded, inner
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
        record = _exact._eliminate(c, g, [k for k in range(3, len(status)) if status[k] == _FREE])
        return c[:3], g[:3], record

    @cached_property
    def units(self):
        """Every load of the type is a sum of unit loads, by linearity:
        entry j < 3 for value 1 at boundary corner j, entry 3 for value 1 at
        every boundary vertex strictly inside, each (loads left on the
        corners, y_k of `_forward`), or None where there is no such vertex.
        A level-m cell loads each free corner once per boundary corner; a
        coarser one sums its children's units on its V_1 slots and runs
        forward substitution over its record."""
        if self.parts is None:
            free = [self.number(st == _FREE) for st in self.status]
            return [(free, []) if st == _BOUNDARY else None for st in self.status] + [None]
        level, children, status = self.parts
        slots, record = geometry.gasket(level).cell_slots, self.schur[2]

        def unit(terms):
            if not terms:
                return None
            b = [0] * len(status)
            for corners, (loads, _) in terms:
                for i, v in zip(corners, loads):
                    b[i] += v
            ys = _exact._forward(record, b)
            return b[:3], ys

        corner = [unit([(slots[j], children[j].units[j])]) if status[j] == _BOUNDARY else None
                  for j in range(3)]
        # inside: the children's own inside, and their corners at inner slots
        terms = [(corners, child.units[i]) for corners, child in zip(slots, children)
                 if child is not None and child.loaded for i in (3, 0, 1, 2)
                 if child.units[i] is not None and (i == 3 or corners[i] >= 3)]
        return corner + [unit(terms)]


@lru_cache(maxsize=None)
def _finest_types(number):
    """The 8 level-m cell types of one number type: bit j is set when
    corner j is a boundary vertex."""
    return [_CellType(tuple(_BOUNDARY if t >> j & 1 else _FREE for j in range(3)), 0, t > 0,
                      False, number)
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
    inner = _BOUNDARY in status[3:] or any(c is not None and c.inner for c in children)
    return _CellType(tuple(status[:3]), free, loaded, inner, number,
                     (level, children, tuple(status)))


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
# the engine: loads up and values down listed cells


def _unknowns(root):
    """The free vertices below a root type: each is a free corner of the root
    or a free inner slot of exactly one cell."""
    return root.free + root.status.count(_FREE)


def _combine(t, corners, inside, part):
    """The loads on the corners (part 0) or the y_k (part 1) of a cell of
    type t whose boundary corners hold the values `corners` and whose
    boundary vertices strictly inside all hold `inside`: the sum of its
    unit loads.  None for a cell without load."""
    if not t.loaded:
        return None
    out = None
    for v, unit in zip((*corners, inside), t.units):
        if unit is not None:
            vec = unit[part]
            out = [v * u for u in vec] if out is None else [o + v * u for o, u in zip(out, vec)]
    return out


def _solve_rows(params, rows, lookup, number):
    """The oracle on listed cells, as `_values_down` yields its values.

    rows[k] lists level-k cells (x, y, type, kids, inside): corner j of the
    cell is at l**(m-k) q_j + (x, y) in integer coordinates at scale l**m.
    A cell whose children are listed has kids, per digit the child's index
    in rows[k+1] or None for a child without load.  Any other listed cell
    is a leaf (kids None): its load is a sum of its type's unit loads, with
    its boundary corners' values and `inside` at every boundary vertex
    strictly inside it.  lookup(points) gives the values of the leaves'
    boundary corners, integer points at scale l**m, in one call.  Every
    refusal comes before this returns: an empty boundary and the rational
    cap before the lookup, a zero pivot in condensing the types or the root."""
    root = rows[0][0][2]
    if not root.loaded:
        raise SolvabilityError("boundary set must be nonempty")
    if number is Fraction:
        check_exact_cap(_unknowns(root))
    m, l = len(rows) - 1, params.level
    boundary = list(dict.fromkeys(
        (x + l ** (m - k) * qx, y + l ** (m - k) * qy)
        for k, row in enumerate(rows) for x, y, t, kids, _ in row if kids is None
        for st, (qx, qy) in zip(t.status, geometry.CORNERS_INT) if st == _BOUNDARY))
    value = dict(zip(boundary, map(number, lookup(boundary)))).__getitem__
    load, inner = _loads_up(params, rows, value)
    c, g, _ = root.schur
    record = _exact._eliminate([dict(row) for row in c], list(g),
                               [j for j, st in enumerate(root.status) if st == _FREE])
    s = l ** m
    corners = [value((s * qx, s * qy)) if st == _BOUNDARY else None
               for st, (qx, qy) in zip(root.status, geometry.CORNERS_INT)]
    _exact._backward(record, _exact._forward(record, load), corners)
    return _values_down(params, rows, inner, corners, value)


def _loads_up(params, rows, value):
    """The root's load on its corners and, per level, each listed cell's y_k
    of `_forward` (None for a leaf and for a cell without load).  A leaf's
    load is `_combine`d from its units; a cell with kids sums its
    children's loads on its V_1 slots, runs forward substitution over its
    record and passes on the loads left on its corners."""
    m, l = len(rows) - 1, params.level
    slots = params.cell_slots
    size = max(map(max, slots)) + 1
    inner, loads = [None] * (m + 1), []
    for k in range(m, -1, -1):
        sub = l ** (m - k)
        below, loads, inner[k] = loads, [], []
        for x, y, t, kids, inside in rows[k]:
            ys = None
            if kids is None:
                b = _combine(t, [value((x + sub * qx, y + sub * qy)) if st == _BOUNDARY else None
                                 for st, (qx, qy) in zip(t.status, geometry.CORNERS_INT)],
                             inside, 0)
            elif t.loaded:
                b = [0] * size
                for corners, i in zip(slots, kids):
                    if i is not None and below[i] is not None:
                        for n, v in zip(corners, below[i]):
                            b[n] += v
                ys = _exact._forward(t.schur[2], b)
                b = b[:3]
            else:
                b = None
            loads.append(b)
            inner[k].append(ys)
    return loads[0], inner


def _values_down(params, rows, inner, corners, value):
    """Yield the vertex values level by level, each level a list of (point,
    value) with integer points at scale l**m: first the root's corners,
    then the inner slots of the cells of each level, which are the vertices
    one level finer.  A cell's inner slots take their boundary value where
    boundary and back substitution over its record where free, and its
    children take their corners from its slots.  Below a leaf the cells are
    not listed: their types are the leaf's children's, their boundary
    vertices inside hold the leaf's `inside`, and their y_k are
    `_combine`d."""
    m, l = len(rows) - 1, params.level
    slot_points = dict(zip(sum(params.cell_slots, ()), sum(params.cell_points, ())))
    inner_points = [slot_points[i] for i in range(3, len(slot_points))]
    s = l ** m
    yield [((s * qx, s * qy), v) for (qx, qy), v in zip(geometry.CORNERS_INT, corners)
           if v is not None]
    level = [(*rows[0][0], inner[0][0], corners)] if m else []
    for k in range(m):
        sub = l ** (m - k - 1)
        below, values = [], []
        for x, y, t, kids, inside, ys, uc in level:
            points = [(x + sub * px, y + sub * py) for px, py in inner_points]
            if kids is None:
                ys = _combine(t, uc, inside, 1)
            u = uc + [(value(p) if inside is None else inside) if st == _BOUNDARY else None
                      for p, st in zip(points, t.parts[2][3:])]
            _exact._backward(t.schur[2], ys, u)
            values += [(p, v) for p, v in zip(points, u[3:]) if v is not None]
            if k + 1 == m:
                continue
            for n, (slot, (tx, ty), child) in enumerate(
                    zip(params.cell_slots, params.int_translations, t.parts[1])):
                if child is None:
                    continue
                if kids is None or kids[n] is None:
                    cell = (x + sub * tx, y + sub * ty, child, None, inside, None)
                else:
                    cell = (*rows[k + 1][kids[n]], inner[k + 1][kids[n]])
                below.append((*cell, [u[j] for j in slot]))
        yield values
        level = below


# ---------------------------------------------------------------------------
# a domain's cells by shape


def _descend_data(data, d):
    """(frame, boundary data) on the frame's sub-copy F_d, as
    `cylinder.cut_values` descends: a data lookup, no extend step.  None
    where the frame has no copy d."""
    frame, f = data
    if d not in frame.copies():
        return None
    return frame.shift(d), f.shifted(d, *(None,) * len(frame.slots))


class CellShapes:
    """The cell types of one domain's graphs in one mode ("rational" for
    Fractions, "float" for floats), by shape (`geometry.cell_shape`): the
    cut's place in the cell, its boundary corners and its depth above the
    graph's level.  The graphs of every level share them, so each type is
    made and condensed once."""

    def __init__(self, domain, mode):
        if mode not in ("rational", "float"):
            raise ContractViolation(f"unknown oracle mode {mode!r}")
        self.domain, self.number = domain, Fraction if mode == "rational" else float
        self._types = {}

    def _type(self, tau, bits, d):
        key = (tau, bits, d)
        if key not in self._types:
            shape = geometry.cell_shape(self.domain, tau, bits, d)
            level, number = self.domain.level, self.number
            if shape is None:
                t = None
            elif shape == geometry.PLAIN:
                t = _plain_type(level, d, number)
            elif d == 0:
                t = _finest_types(number)[shape]
            else:
                children = tuple(self._type(*child, d - 1) for child in shape)
                t = _condense_type(level, children, number) if any(children) else None
            self._types[key] = t
        return self._types[key]

    def root(self, m):
        """The type of the level-m graph's root cell."""
        if m < 1:
            raise ResolutionError("domain restriction needs m >= 1")
        t = self._type(self.domain.cut.numerator, sum(1 << c for c in self.domain.corners), m)
        if t is None:
            raise ResolutionError("no cells of this level are contained in the domain")
        return t

    def unknowns(self, m):
        """The free vertices of the level-m graph, counted without
        condensing."""
        return _unknowns(self.root(m))

    def tree(self, m, data=None):
        """The rows of `_solve_rows` for the level-m graph, listed top down
        from the root.  A cell is a leaf at level m, where no boundary
        vertex lies strictly inside it, or where the boundary data is
        constant on its cut: data = (root frame, boundary data) is followed
        down the frame's copies along the cell's digits (`_descend_data`), and
        the leaf's `inside` is `subtree("")` there.  Without data no cell is
        found constant.  Refused once the listed cells and the shapes made
        so far exceed geometry.MAX_TREE_CELLS."""
        params, number = self.domain.params, self.number
        l = params.level
        rows, level, count = [], [(0, 0, self.root(m), data)], 1
        for k in range(m + 1):
            sub = l ** (m - k - 1) if k < m else 0
            row, below = [], []
            for x, y, t, words in level:
                inside = None
                if k < m and t.inner and words is not None:
                    inside = words[1].subtree("")
                if k == m or not t.inner or inside is not None:
                    row.append((x, y, t, None, None if inside is None else number(inside)))
                    continue
                kids = []
                for n, ((tx, ty), child) in enumerate(zip(params.int_translations, t.parts[1])):
                    if child is None or not child.loaded:
                        kids.append(None)
                        continue
                    kids.append(len(below))
                    below.append((x + sub * tx, y + sub * ty, child,
                                  None if words is None or not child.inner
                                  else _descend_data(words, n)))
                row.append((x, y, t, tuple(kids), None))
            rows.append(row)
            count += len(below)
            if count + len(self._types) > geometry.MAX_TREE_CELLS:
                raise ResolutionError(
                    f"level {m} lists more than {geometry.MAX_TREE_CELLS} cells and shapes of the "
                    "domain, the oracle's budget: lower --levels")
            level = below
        return DomainTree(params, number, rows)


DomainTree = namedtuple("DomainTree", ["params", "number", "rows"])


def solve_domain(tree, boundary_values, targets):
    """Values at the exact points `targets` of the oracle on a domain's
    level-m graph, the problem of `domain_restricted_graph`, solved on its
    listed cells `tree` = `CellShapes(domain, mode).tree(m, data)` without
    the graph.  boundary_values(points, s) gives the boundary values in one
    call, for the points (x/s, y/s) of integer pairs (x, y) at s = l**m.
    Values come down only until every target has one, and only the
    targets' are kept."""
    m = len(tree.rows) - 1
    s = tree.params.level ** m
    levels = _solve_rows(tree.params, tree.rows, lambda points: boundary_values(points, s),
                         tree.number)
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


def _scaled_point(p, s, m):
    """The exact point p as integer coordinates at scale s = l**m."""
    x, y = (c if isinstance(c, (int, Fraction)) else Fraction(c) for c in p)
    if s % x.denominator or s % y.denominator:
        raise AddressError(f"{p} is not a level-{m} vertex")
    return x.numerator * (s // x.denominator), y.numerator * (s // y.denominator)


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
    Fractions/ints).  The engine lists the problem's domain's cells by
    shape when it has a domain, finding no data constant, and every cell
    of the graph otherwise.  Every refusal comes here; a value is computed
    when read, down to its vertex's level."""
    if mode not in ("auto", "rational", "float"):
        raise ContractViolation(f"unknown oracle mode {mode!r}")
    exact = mode == "rational" or mode == "auto" and all(
        isinstance(v, (Fraction, int)) for v in problem.boundary_values)
    graph = problem.graph
    points = map(tuple, graph.verts[problem.boundary_ids].tolist())
    given = dict(zip(points, problem.boundary_values))
    number = Fraction if exact else float
    if problem.domain is None:
        rows = _graph_rows(graph, problem.boundary_ids.tolist(), number)
    else:
        rows = CellShapes(problem.domain, "rational" if exact else "float").tree(graph.m).rows
    levels = _solve_rows(graph.params, rows, lambda points: [given[p] for p in points], number)
    return _Values(graph.verts, levels)


def _graph_rows(graph, boundary_ids, number):
    """The rows of `_solve_rows` for a graph of build_graph's cells, every
    cell listed: a level-m cell is a leaf whose boundary corners are those
    in boundary_ids.  Corner 1 of a cell, at q1 = (0, 0), is its offset, and
    the cell codes ascend, so the parents do too."""
    if graph.cells is None:
        raise ContractViolation("the oracle condenses over the cells; this graph has none")
    params, boundary, n = graph.params, set(boundary_ids), graph.params.map_count
    finest = _finest_types(number)
    offsets = graph.verts[graph.cells[:, 1]].tolist()
    rows = [[(x, y, finest[sum(1 << j for j, v in enumerate(ids) if v in boundary)], None, None)
             for (x, y), ids in zip(offsets, graph.cells.tolist())]]
    codes = graph.cell_codes.tolist()
    for k in range(graph.m - 1, -1, -1):
        step, parents, below = params.level ** (graph.m - k - 1), {}, rows[0]
        for i, (code, (x, y, *_)) in enumerate(zip(codes, below)):
            tx, ty = params.int_translations[code % n]
            parent = parents.setdefault(code // n, (x - step * tx, y - step * ty, [None] * n))
            parent[2][code % n] = i
        codes = list(parents)
        rows.insert(0, [(x, y, _condense_type(params.level, tuple(
            None if i is None else below[i][2] for i in kids), number), tuple(kids), None)
            for x, y, kids in parents.values()])
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
