"""Brute-force Dirichlet solver on approximating graphs.

Given boundary vertices and values, solves the mean-value equations
deg(x) u(x) = sum of neighbour values at every interior vertex.  This is
the independent ground truth for every closed-form extension algorithm in
the package, and it uses none of them: no renormalisation constant, no
extension formula.

Both modes run one static condensation over the cell hierarchy.  The graph
Laplacian is a sum of one triangle block per level-m cell, and each coarser
cell eliminates its inner vertices onto its three corners.  How a cell
condenses depends only on its type, the free, boundary or absent status of
every vertex below it, and a cut domain has few types per level.  So each
type is condensed once, exactly in Fractions, and a zero pivot there is the
exact test that an interior component does not touch the boundary.  Per
cell only loads go up and values come down; the modes differ only in their
number type, Fraction in rational mode and float in float mode.  No scipy
module is loaded.

Vertices are looked up by binary search over their sorted integer keys
(geometry.VertexIndex).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import _exact, geometry
from .errors import ContractViolation, SolvabilityError


def __getattr__(name):
    # bench/tracing.py wraps `oracle.spla`; only a traced run loads scipy
    if name == "spla":
        return importlib.import_module("scipy.sparse.linalg")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class DirichletProblem:
    """Boundary set B with values g on a level-m graph; solvable iff every
    connected component of the graph touches B."""

    graph: geometry.Graph
    boundary_ids: np.ndarray
    boundary_values: object  # sequence aligned with boundary_ids

    def __post_init__(self):
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
        unknowns = int((~bmask).sum())
        if unknowns > _exact.EXACT_UNKNOWN_CAP:
            raise SolvabilityError(
                f"rational mode capped at {_exact.EXACT_UNKNOWN_CAP} unknowns, got {unknowns}"
            )
        u = np.full(graph.n_vertices(), Fraction(0), dtype=object)
        u[problem.boundary_ids] = [Fraction(v) for v in problem.boundary_values]
    _condense(graph, bmask, u)
    return u if mode == "float" else u.tolist()


# status of a cell's corner: no vertex there, a boundary vertex, an unknown
_ABSENT, _BOUNDARY, _FREE = 0, 1, 2

# the graph Laplacian is the sum over level-m cells of this triangle block
_TRIANGLE = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


@dataclass(eq=False)
class _CellType:
    """The exact condensation of every cell of one type: its corners'
    status, the Schur complement onto them, and over its inner slots the
    inverse Minv of the local matrix and X = Minv A_ic.  The local matrix is
    symmetric, so A_ci Minv = X^T.  A cell carries a load only when it has
    a boundary vertex (`loaded`).  Types compare by identity: the cache of
    `_condense_type` gives equal children the same parent object."""

    status: np.ndarray
    schur: np.ndarray
    loaded: bool
    minv: np.ndarray = None
    x: np.ndarray = None

    @cached_property
    def floats(self):
        return self.minv.astype(float), self.x.astype(float)


def _exact_array(a):
    """a as an object array of Fractions."""
    return np.vectorize(Fraction, otypes=[object])(a)


@lru_cache(maxsize=None)
def _finest_types():
    """The 8 level-m cell types: bit j is set when corner j is a boundary
    vertex; boundary rows and columns of the triangle block are empty."""
    out = []
    for t in range(8):
        status = np.array([_BOUNDARY if t >> j & 1 else _FREE for j in range(3)])
        free = status == _FREE
        out.append(_CellType(status, _exact_array(_TRIANGLE * np.outer(free, free)), t > 0))
    return out


def _inverse(a):
    """Exact inverse of a symmetric positive semidefinite matrix of
    Fractions by Gauss-Jordan without pivoting.  A zero pivot occurs exactly
    when the matrix is singular, that is when some interior component does
    not touch the boundary."""
    n = len(a)
    aug = np.concatenate([a, _exact_array(np.eye(n, dtype=np.int64))], axis=1)
    for k in range(n):
        if aug[k, k] == 0:
            raise SolvabilityError("an interior component does not touch the boundary")
        aug[k] = aug[k] / aug[k, k]
        for i in range(n):
            if i != k and aug[i, k] != 0:
                aug[i] = aug[i] - aug[i, k] * aug[k]
    return aug[:, n:]


def _with_dead_diagonal(a, status):
    """a with a unit diagonal on the slots of no vertex and of boundary
    vertices, whose rows and columns are empty: it decouples them."""
    return a + np.diag(_exact_array(status != _FREE))


@lru_cache(maxsize=4096)
def _condense_type(level, children):
    """Condense one parent type of SG_level, given its children's types per
    digit (None where the child is absent).  Cached: the solves of one
    domain at successive levels share their finer types."""
    slot = np.array(geometry.gasket(level).cell_slots)
    size = int(slot.max()) + 1
    status = np.full(size, _ABSENT)
    a = _exact_array(np.zeros((size, size), dtype=np.int64))
    for corners, child in zip(slot, children):
        if child is not None:
            # an absent corner must not hide a sibling's vertex; a vertex is
            # boundary or free in every child that has it
            status[corners] = np.maximum(status[corners], child.status)
            a[np.ix_(corners, corners)] += child.schur
    minv = _inverse(_with_dead_diagonal(a[3:, 3:], status[3:]))
    x = minv @ a[3:, :3]
    loaded = any(c is not None and c.loaded for c in children)
    return _CellType(status[:3], a[:3, :3] - a[:3, 3:] @ x, loaded, minv, x)


def _parent_types(types, ntypes, kid):
    """Dense type ids of the parents, whose type is the tuple of their
    children's types per digit (-1 where absent), and the first parent of
    each type."""
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
    exact = u.dtype == object
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
        ops = [(t.loaded, *((t.minv, t.x) if exact else t.floats)) for t in table]
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
    rinv = _inverse(_with_dead_diagonal(root.schur, root.status))
    rinv = rinv if exact else rinv.astype(float)
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
# domain-restricted problems


@dataclass
class DomainSkeleton:
    """Vertex set of the level-m cells contained in a domain closure, with
    the classified boundary subset (the discrete counterpart of O_m/A_m)."""

    domain: geometry.Domain
    graph: geometry.Graph
    boundary_ids: np.ndarray
    boundary_kinds: tuple  # CANTOR / CORNER per boundary id

    def problem(self, boundary_value_fn):
        vals = [boundary_value_fn(self.graph.point(int(i))) for i in self.boundary_ids]
        return DirichletProblem(self.graph, self.boundary_ids, vals)


def domain_restricted_graph(domain, m):
    """Assemble the Dirichlet skeleton of a domain from its level-m cells."""
    graph = geometry.domain_graph(domain, m)
    cantor, corner = geometry.boundary_masks(domain, graph)
    bids = np.flatnonzero(cantor | corner)
    kinds = tuple(geometry.CORNER if corner[i] else geometry.CANTOR for i in bids)
    return DomainSkeleton(domain, graph, bids, kinds)


def solve_full_gasket(params, m, corner_values, mode="auto"):
    """Oracle with B = V_0 on the full gasket; cross-checks the extension."""
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
