"""Explicit Dirichlet-problem machinery for domains in Sierpinski gaskets.

Subpackages map onto the main moving parts: `geometry` (gaskets, words,
graphs), `harmonic` (cell extension, energies, normal derivatives),
`oracle` (brute-force finite-graph Dirichlet solver), one module per
domain family (`halfdomain`, `upperdomain`, `lowerdomain`) and the boundary
data and recursion engine they share (`cylinder`).  `cli` is the
command-line front end.
"""

from . import geometry, harmonic, oracle, cylinder, halfdomain, upperdomain, lowerdomain

__all__ = [
    "geometry",
    "harmonic",
    "oracle",
    "cylinder",
    "halfdomain",
    "upperdomain",
    "lowerdomain",
]

__version__ = "0.1.0"
