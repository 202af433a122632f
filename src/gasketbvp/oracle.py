"""Brute-force Dirichlet solver on approximating graphs.

Given boundary vertices and values, solves the mean-value equations
deg(x) u(x) = sum of neighbour values at every interior vertex.  This is
the independent ground truth for every closed-form extension algorithm in
the package, and it uses none of them: no renormalisation constant, no
extension formula.  Float mode is a static condensation over the cell
hierarchy (the graph Laplacian is a sum of one triangle block per level-m
cell, and each coarser cell eliminates its inner vertices onto its three
corners); rational mode is exact Fraction elimination (`_exact.solve`).

Vertices are looked up by binary search over their sorted integer keys
(geometry.VertexIndex).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla  # unused here; bench/tracing.py wraps oracle.spla

from . import _exact, geometry
from .errors import ContractViolation, SolvabilityError


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


def _adjacency(graph):
    n = graph.n_vertices()
    e = graph.edges
    data = np.ones(2 * len(e))
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def _check_solvable(graph, bmask):
    ncomp, labels = csgraph.connected_components(_adjacency(graph), directed=False)
    touched = np.zeros(ncomp, dtype=bool)
    touched[labels[bmask]] = True
    if not touched.all():
        raise SolvabilityError("an interior component does not touch the boundary")


def solve(problem, mode="auto"):
    """Solve the graph Dirichlet problem; returns values for all vertices.

    mode: "rational" for exact Fraction elimination, "float" for static
    condensation over the cell hierarchy (graphs that keep their cells),
    "auto" picks rational when the boundary values are Fractions/ints.
    """
    if mode not in ("auto", "rational", "float"):
        raise ContractViolation(f"unknown oracle mode {mode!r}")
    if mode == "auto":
        exact = all(isinstance(v, (Fraction, int)) for v in problem.boundary_values)
        mode = "rational" if exact else "float"
    graph = problem.graph
    if mode == "float" and graph.cells is None:
        raise ContractViolation("float mode condenses over the cells; this graph has none")
    bmask = np.zeros(graph.n_vertices(), dtype=bool)
    bmask[problem.boundary_ids] = True
    _check_solvable(graph, bmask)
    if mode == "rational":
        return _solve_rational(graph, bmask, problem)
    return _solve_float(graph, bmask, problem)


# the graph Laplacian is the sum over level-m cells of this triangle block
_TRIANGLE = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])


@lru_cache(maxsize=None)
def _slots(level):
    """(map_count, 3) table: slot of corner j of 1-cell i among the points
    of V_1, with the V_0 corners q_0, q_1, q_2 as slots 0-2."""
    params = geometry.gasket(level)
    slot = {(level * x, level * y): c for c, (x, y) in enumerate(geometry.CORNERS_INT)}
    table = np.empty((params.map_count, 3), dtype=np.int64)
    for i, (tx, ty) in enumerate(params.int_translations.tolist()):
        for j, (x, y) in enumerate(geometry.CORNERS_INT):
            table[i, j] = slot.setdefault((x + tx, y + ty), len(slot))
    return table


def _solve_float(graph, bmask, problem):
    """Static condensation along the cell hierarchy.

    Level-k cells meet only at their corners, so every level-(k-1) cell,
    assembled on the V_1 slots of its children, can eliminate its non-corner
    vertices locally: it becomes a 3x3 block (the Schur complement onto its
    corners) plus a load.  Boundary values enter the finest blocks as loads;
    at level 0 the at most three corner unknowns are solved directly, then
    the saved local solves give every other vertex on the way down.
    """
    u = np.zeros(graph.n_vertices())
    u[problem.boundary_ids] = [float(v) for v in problem.boundary_values]
    ids, codes = graph.cells, graph.cell_codes
    free = ~bmask[ids]
    block = _TRIANGLE * (free[:, :, None] & free[:, None, :])
    load = -((_TRIANGLE @ (u[ids] * ~free)[:, :, None])[:, :, 0] * free)
    saved = []
    for _ in range(graph.m):
        codes, sid, a, b = _assemble(graph.params, codes, ids, block, load)
        del block, load  # each level's arrays are freed before the next one's
        inner = sid[:, 3:]
        # slots of no vertex, and boundary vertices, have empty rows and
        # columns: decouple them with a unit diagonal
        pk, ek = np.nonzero((inner < 0) | bmask[inner])
        a[pk, ek + 3, ek + 3] = 1.0
        x = np.linalg.solve(a[:, 3:, 3:], np.concatenate([a[:, 3:, :3], b[:, 3:, None]], axis=2))
        t = a[:, :3, 3:] @ x
        block = a[:, :3, :3] - t[:, :, :3]
        load = b[:, :3] - t[:, :, 3]
        ids = sid[:, :3]
        saved.append((sid, x))
        del a, b, t
    # level 0: one cell, whose absent and boundary corners get a unit diagonal
    root = ids[0]
    _set_free(u, root, bmask, np.linalg.solve(block[0] + np.diag((root < 0) | bmask[root]), load[0]))
    for sid, x in reversed(saved):
        corners = sid[:, :3]
        uc = np.where(corners >= 0, u[corners], 0.0)
        _set_free(u, sid[:, 3:], bmask, x[:, :, 3] - (x[:, :, :3] @ uc[:, :, None])[:, :, 0])
    return u


def _assemble(params, codes, ids, block, load):
    """Sum the level-k cells' blocks and loads into their parents.

    codes are ascending, so each parent's children are contiguous.  Returns
    the parents' codes, their slot vertex ids (-1 where no child has a
    vertex), and their local matrices and loads on the V_1 slots."""
    slot = _slots(params.level)
    parent, digit = np.divmod(codes, params.map_count)
    first = np.ones(len(codes), dtype=bool)
    first[1:] = parent[1:] != parent[:-1]
    at = np.cumsum(first) - 1
    # child of each parent with each digit, -1 where it is absent
    kid = np.full((int(at[-1]) + 1, params.map_count), -1)
    kid[at, digit] = np.arange(len(codes))
    sid = np.full((len(kid), slot.max() + 1), -1, dtype=np.int64)
    a = np.zeros(sid.shape + sid.shape[1:])
    b = np.zeros(sid.shape)
    for d, corners in enumerate(slot.tolist()):
        k = kid[:, d]
        gone = k < 0
        if gone.all():
            continue
        k_ids, k_block, k_load = ids[k], block[k], load[k]
        k_ids[gone], k_block[gone], k_load[gone] = -1, 0.0, 0.0
        for i, si in enumerate(corners):
            # a child's absent corner (-1) must not hide a sibling's vertex
            np.maximum(sid[:, si], k_ids[:, i], out=sid[:, si])
            b[:, si] += k_load[:, i]
            for j, sj in enumerate(corners):
                a[:, si, sj] += k_block[:, i, j]
    return parent[first], sid, a, b


def _set_free(u, ids, bmask, values):
    """u[ids] = values, skipping absent slots (-1) and boundary vertices."""
    keep = ids >= 0
    keep[keep] = ~bmask[ids[keep]]
    u[ids[keep]] = values[keep]


def _solve_rational(graph, bmask, problem):
    n = graph.n_vertices()
    unknowns = int((~bmask).sum())
    if unknowns > _exact.EXACT_UNKNOWN_CAP:
        raise SolvabilityError(
            f"rational mode capped at {_exact.EXACT_UNKNOWN_CAP} unknowns, got {unknowns}"
        )
    values = [None] * n
    for i, v in zip(problem.boundary_ids, problem.boundary_values):
        values[int(i)] = Fraction(v)
    rows = {}
    rhs = {}
    for i in range(n):
        if bmask[i]:
            continue
        nbrs = graph.neighbors(i)
        row = {i: len(nbrs)}
        b = Fraction(0)
        for j in nbrs:
            j = int(j)
            if bmask[j]:
                b += values[j]
            else:
                row[j] = row.get(j, 0) - 1
        rows[i] = row
        rhs[i] = b
    for i, v in _exact.solve(rows, rhs).items():
        values[i] = v
    return values


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

    domain: object
    graph: geometry.Graph
    boundary_ids: np.ndarray
    boundary_kinds: tuple  # CANTOR / CORNER per boundary id

    def problem(self, boundary_value_fn):
        vals = [boundary_value_fn(self.graph.point(int(i))) for i in self.boundary_ids]
        return DirichletProblem(self.graph, self.boundary_ids, vals)


def domain_restricted_graph(domain, m):
    """Assemble the truncated Dirichlet skeleton of a domain at level m."""
    if m < 1:
        raise geometry.ResolutionError("domain restriction needs m >= 1")
    graph = geometry.domain_graph(domain, m)
    s = graph.scale
    xs, ys = graph.verts[:, 0], graph.verts[:, 1]
    if isinstance(domain, geometry.HalfDomain):
        cantor = xs == s
        corner = (xs == 0) & (ys == 0)
    else:
        num, den = domain.cut_y.numerator, domain.cut_y.denominator
        cantor = ys * den == num * s
        if isinstance(domain, geometry.UpperDomain):
            corner = (xs == s) & (ys == 2 * s)
            cantor &= ~corner
        else:
            corner = ((xs == 0) | (xs == 2 * s)) & (ys == 0)
            cantor &= ~corner
    bids = np.flatnonzero(cantor | corner)
    kinds = tuple(
        geometry.CORNER if corner[i] else geometry.CANTOR for i in bids
    )
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
