"""Brute-force Dirichlet solver on approximating graphs.

Given boundary vertices and values, solves the mean-value equations
deg(x) u(x) = sum of neighbour values as a sparse linear system.  This is
the independent ground truth for every closed-form extension algorithm in
the package: a sparse direct LU in float mode, exact Fraction elimination
(`_exact.solve`) in rational mode.

Vertices are looked up by binary search over their sorted integer keys
(geometry.VertexIndex).  The LU eliminates interior unknowns finest level
first, in vertex-id order within a level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

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
    adj = _adjacency(graph)
    ncomp, labels = csgraph.connected_components(adj, directed=False)
    touched = np.zeros(ncomp, dtype=bool)
    touched[labels[bmask]] = True
    if not touched.all():
        raise SolvabilityError("an interior component does not touch the boundary")
    return adj


def solve(problem, mode="auto"):
    """Solve the graph Dirichlet problem; returns values for all vertices.

    mode: "rational" for exact Fraction elimination, "float" for a sparse
    direct factorization, "auto" picks rational when the boundary values
    are Fractions/ints.
    """
    if mode not in ("auto", "rational", "float"):
        raise ContractViolation(f"unknown oracle mode {mode!r}")
    graph = problem.graph
    n = graph.n_vertices()
    bmask = np.zeros(n, dtype=bool)
    bmask[problem.boundary_ids] = True
    adj = _check_solvable(graph, bmask)
    if mode == "auto":
        exact = all(isinstance(v, (Fraction, int)) for v in problem.boundary_values)
        mode = "rational" if exact else "float"
    if mode == "rational":
        return _solve_rational(graph, bmask, problem)
    return _solve_float(graph, adj, bmask, problem)


def _solve_float(graph, adj, bmask, problem):
    n = graph.n_vertices()
    g = np.zeros(n)
    g[problem.boundary_ids] = np.asarray(
        [float(v) for v in problem.boundary_values]
    )
    interior = np.flatnonzero(~bmask)
    if len(interior) == 0:
        return g
    # finest vertices first: level-k cells meet only at their corners, so
    # this order is a nested dissection along the cell hierarchy
    levels = graph.first_levels()[interior]
    interior = interior[np.argsort(-levels, kind="stable")]
    deg = np.asarray(adj.sum(axis=1)).ravel()
    rows = adj[interior]
    a_ii = sp.diags(deg[interior]) - rows[:, interior]
    b = rows[:, bmask] @ g[bmask]
    x = spla.splu(a_ii.tocsc(), permc_spec="NATURAL").solve(b)
    out = g.copy()
    out[interior] = x
    return out


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
