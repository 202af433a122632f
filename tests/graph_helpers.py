"""Helpers that only the tests use: the full-gasket oracle, a CSV round trip
of oracle values, and functions on a graph's vertices with their energy
and mean-value residual.  They build on the package's public API and
keep no state of their own."""

from fractions import Fraction

from gasketbvp import geometry, oracle
from gasketbvp.errors import ContractViolation, GasketError, SolvabilityError


class LevelMismatchError(GasketError, ValueError):
    """Graph functions defined on different levels were combined."""


def solve_full_gasket(params, m, corner_values, mode="auto"):
    """Oracle with B = V_0 on the full gasket; cross-checks the extension."""
    graph = geometry.build_graph(params, m)
    ids = [graph.vertex_id(q) for q in geometry.CORNERS]
    return graph, oracle.solve(oracle.DirichletProblem(graph, ids, list(corner_values)), mode=mode)


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
