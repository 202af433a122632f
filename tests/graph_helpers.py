"""Helpers that only the tests use: the full-gasket oracle, the vertices
of a domain graph listed cell by cell (the reference the walk's rows are
checked against), the per-cell cell tree of a domain (the reference the
oracle's compressed listing is checked against), a CSV round trip of
oracle values, functions on a graph's vertices with their energy and
mean-value residual, and a minimum-degree Fraction eliminator, the
reference the package's elimination kernel is checked against.  They
build on the package's API and keep no state of their own."""

import heapq
import math
from fractions import Fraction

from gasketbvp import geometry, oracle
from gasketbvp.errors import ContractViolation, GasketError, ResolutionError, SolvabilityError


class LevelMismatchError(GasketError, ValueError):
    """Graph functions defined on different levels were combined."""


def solve_full_gasket(params, m, corner_values, mode="auto"):
    """Oracle with B = V_0 on the full gasket; cross-checks the extension."""
    graph = geometry.build_graph(params, m)
    ids = [graph.vertex_id(q) for q in geometry.CORNERS]
    return graph, oracle.solve(oracle.DirichletProblem(graph, ids, list(corner_values)), mode=mode)


# ---------------------------------------------------------------------------
# an exact solver independent of the package's elimination kernel


def min_degree_solve(rows, rhs):
    """Solve sum_j a_ij x_j = b_i exactly; returns {i: x_i} in the order of rows.

    rows maps each unknown i to its sparse row {j: a_ij} and rhs maps i to
    b_i (ints, floats or Fractions, converted exactly); both are consumed.
    Minimum-degree elimination without pivoting needs a symmetric positive
    definite matrix, e.g. a graph Laplacian with a Dirichlet boundary plus
    nonnegative diagonal terms; a zero pivot raises SolvabilityError.
    """
    unknowns = list(rows)
    for i, row in rows.items():
        for j, a in row.items():
            row[j] = Fraction(a)
        rhs[i] = Fraction(rhs[i])
    order = []
    heap = [(len(row) - 1, i) for i, row in rows.items()]
    heapq.heapify(heap)
    while heap:
        deg, i = heapq.heappop(heap)
        if i not in rows:
            continue
        if deg != len(rows[i]) - 1:
            heapq.heappush(heap, (len(rows[i]) - 1, i))
            continue
        row = rows.pop(i)
        b = rhs.pop(i)
        piv = row.pop(i, 0)
        if piv == 0:
            raise SolvabilityError("singular system in exact elimination (zero pivot)")
        order.append((i, row, b, piv))
        for j in row:
            rj = rows[j]
            f = rj.pop(i, None)
            if f is None:
                continue
            f /= piv
            for k, v in row.items():
                rj[k] = rj[k] - f * v if k in rj else -f * v
            rhs[j] -= f * b
            heapq.heappush(heap, (len(rj) - 1, j))
    x = {}
    while order:  # popping frees each eliminated row once it is used
        i, row, b, piv = order.pop()
        s = b
        for k, v in row.items():
            s -= v * x[k]
        x[i] = s / piv
    return {i: x[i] for i in unknowns}


# ---------------------------------------------------------------------------
# the vertices of a domain graph, listed cell by cell


def domain_vertices(domain, m):
    """(x, y, address) of every vertex of `domain_graph(domain, m)`, with
    integer coordinates at scale l**m, in the graph's (x, y) order and with
    its addresses: each vertex keeps the first (cell word, corner) that
    reaches it.  Found without numpy, by walking the cells top down: a cell
    with no corner on the closed side of the cut is dropped with all its
    subcells, and a level-m cell is kept when every corner is on it.  The
    reference `cylinder.walk`'s rows are checked against."""
    if m < 1:
        raise ResolutionError("domain restriction needs m >= 1")
    params = domain.params
    geometry.check_graph_level(params, m)
    l, axis = params.level, domain.axis
    closed = geometry._closed_side(domain, m)
    # a level-k cell with offset (x, y) has its corners at l**(m-k) q_j + (x, y)
    cells = [((), 0, 0)]
    for k in range(1, m + 1):
        step = l ** (m - k)
        reach = [step * q[axis] for q in geometry.CORNERS_INT]
        shifts = [(d, step * tx, step * ty) for d, (tx, ty) in enumerate(params.int_translations)]
        cells = [(word + (d,), x + dx, y + dy) for word, x, y in cells for d, dx, dy in shifts
                 if any(closed((x + dx, y + dy)[axis] + r) for r in reach)]
    first = {}
    for word, x, y in cells:
        corners = [(x + qx, y + qy) for qx, qy in geometry.CORNERS_INT]
        if all(closed(p[axis]) for p in corners):
            for c, p in enumerate(corners):
                first.setdefault(p, (word, c))
    if not first:
        raise ResolutionError("no cells of this level are contained in the domain")
    return [(x, y, geometry.VertexAddress(*first[x, y])) for x, y in sorted(first)]


# ---------------------------------------------------------------------------
# the per-cell cell tree of a domain


def domain_cell_tree(domain, m):
    """The cells of `domain_graph(domain, m)` as a tree walked top down,
    listing only the root and the cells that cross the cut or hold a
    boundary vertex (on the cut line, or a boundary corner of the domain).

    Returns one list per level k = 0..m of the listed level-k cells, each
    (x, y, kids): corner j of the cell is at l**(m-k) q_j + (x, y) in
    integer coordinates at scale l**m.  Above level m, kids[d] is child d's
    index in the next level's list, PLAIN for a child inside the domain
    with no boundary vertex, or None for a child with no corner on the
    closed side of the cut, or a level-m child that crosses it: the graph
    drops both.  At level m, kids is the bit mask of the corners that are
    boundary vertices."""
    params = domain.params
    l, axis = params.level, domain.axis
    s = l ** m
    cut = domain.cut * s
    bound = math.floor(cut) if domain.side < 0 else math.ceil(cut)
    line = cut.numerator if cut.denominator == 1 else None
    levels, row = [], [(0, 0)]
    for k in range(1, m + 1):
        step = l ** (m - k)
        shifts = [(step * tx, step * ty) for tx, ty in params.int_translations]
        reach = [step * q[axis] for q in geometry.CORNERS_INT]
        # a boundary corner q_c of the domain is corner c of the cell c...c
        ends = {((s - step) * geometry.CORNERS_INT[c][0], (s - step) * geometry.CORNERS_INT[c][1]):
                1 << c for c in domain.corners}
        listed, below = [], []
        for x, y in row:
            kids = []
            for dx, dy in shifts:
                cx, cy = x + dx, y + dy
                base = (cx, cy)[axis]
                inside = [(base + r - bound) * domain.side >= 0 for r in reach]
                if not any(inside) or (k == m and not all(inside)):
                    kids.append(None)
                    continue
                bits = ends.get((cx, cy), 0)
                bits |= sum(1 << j for j, r in enumerate(reach) if base + r == line)
                if all(inside) and not bits:
                    kids.append(geometry.PLAIN)
                else:
                    kids.append(len(below))
                    below.append((cx, cy) if k < m else (cx, cy, bits))
            listed.append((x, y, tuple(kids)))
        levels.append(listed)
        row = below
    levels.append(row)
    return levels


def reference_rows(domain, m, number):
    """`domain_cell_tree` as the rows of the oracle's engine, every listed
    cell of it a row down to level m, where the cells are the leaves; a
    child without load is not a row."""
    cells = domain_cell_tree(domain, m)
    level = domain.level
    rows = [[(x, y, oracle._finest_types(number)[bits], None, None) for x, y, bits in cells[m]]]
    for k in range(m - 1, -1, -1):
        plain, below = oracle._plain_type(level, m - k - 1, number), rows[0]
        row = []
        for x, y, kids in cells[k]:
            children = tuple(plain if c == geometry.PLAIN else None if c is None else below[c][2]
                             for c in kids)
            t = oracle._condense_type(level, children, number) if any(children) else None
            row.append((x, y, t, tuple(c if t and t.loaded else None
                                       for c, t in zip(kids, children)), None))
        rows.insert(0, row)
    # drop the rows without load, renumbering their parents' kids
    for k in range(m, 0, -1):
        keep = [i for i, (_, _, t, _, _) in enumerate(rows[k]) if t is not None and t.loaded]
        new = {i: n for n, i in enumerate(keep)}
        rows[k] = [rows[k][i] for i in keep]
        rows[k - 1] = [(x, y, t, tuple(new.get(c) for c in kids), inside)
                       for x, y, t, kids, inside in rows[k - 1]]
    return rows


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


# ---------------------------------------------------------------------------
# graph functions


class GraphFunction:
    """A total assignment of values to the vertices of a level-m graph."""

    def __init__(self, graph, values):
        if len(values) != graph.n_vertices():
            raise LevelMismatchError("values do not cover the graph's vertex set")
        self.graph, self.values = graph, values

    def __getitem__(self, i):
        return self.values[i]


def graph_energy(f, g=None):
    """Discrete resistance form r^(-m) * sum over edges of df * dg."""
    if g is None:
        g = f
    if g.graph is not f.graph and (
        g.graph.m != f.graph.m or g.graph.params.level != f.graph.params.level
    ):
        raise LevelMismatchError("graph energy requires functions on the same level")
    graph = f.graph
    fv, gv = f.values, g.values
    total = sum((fv[i] - fv[j]) * (gv[i] - gv[j]) for i, j in graph.edges)
    r = graph.params.renorm_factor
    if not all(isinstance(v, (Fraction, int)) for v in (fv[0], gv[0])):
        r = float(r)
    return total / r ** graph.m


def verify_matching(f, vertex):
    """Mean-value residual sum_{y ~ x} (f(x) - f(y)); zero iff graph-harmonic."""
    graph = f.graph
    if isinstance(vertex, geometry.VertexAddress):
        vertex = graph.vertex_id(geometry.resolve(graph.params, vertex))
    p = graph.point(vertex)
    if p in geometry.CORNERS:
        raise ContractViolation("matching condition is not defined at V_0 corners")
    nbrs = graph.neighbors(vertex)
    return len(nbrs) * f[vertex] - sum(f[int(j)] for j in nbrs)
