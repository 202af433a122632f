"""Gasket geometry: contraction systems, approximating graphs, addressing.

Everything lives on exact rational coordinates (q0=(1,2), q1=(0,0),
q2=(2,0)), so vertex identity and domain membership never touch floats.
"""

import os
import tempfile
from fractions import Fraction

from gasketbvp import geometry as G

for level in (2, 3, 4):
    p = G.gasket(level)
    print(f"SG_{level}: {p.map_count} maps, renormalization factor r = {p.renorm_factor}")

print()
print("Graph sizes |V_m| / edges for SG_3:")
for m in range(4):
    g = G.build_graph(G.gasket(3), m)
    degs = sorted(set(g.degrees().tolist()))
    print(f"  m={m}: {g.n_vertices():5d} vertices, {len(g.edges):5d} edges, degrees {degs}")

print()
print("Vertex addressing: the centre of SG_3 has three aliases,")
p3 = G.gasket(3)
centre = G.VertexAddress((3,), 0)
for a in G.aliases(p3, centre):
    print(f"  word={G.word_to_str(a.word) or '(empty)'} corner={a.corner}")
print(f"canonical: {G.canonicalize(p3, centre)}")

print()
print("Domain classification on the half domain of SG_3:")
half = G.HalfDomain(3)
for name, addr in (
    ("q1", G.VertexAddress((), 1)),
    ("q0", G.VertexAddress((), 0)),
    ("centre p", G.VertexAddress((3,), 0)),
    ("F_1 q_0", G.VertexAddress((1,), 0)),
    ("q2", G.VertexAddress((), 2)),
):
    print(f"  {name:10s} -> {G.classify_boundary(half, addr)}")

print()
print("Exporting the level-2 graph of the half domain as CSV:")
g = G.domain_graph(half, 2)
with tempfile.TemporaryDirectory() as tmp:
    vertices = os.path.join(tmp, "half_vertices.csv")
    G.export_graph_csv(g, os.path.join(tmp, "half_edges.csv"), vertices)
    with open(vertices) as fh:
        for line in fh.readlines()[:5]:
            print("  " + line.rstrip())
print("  ...")
