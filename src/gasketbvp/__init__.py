"""Explicit Dirichlet-problem machinery for domains in Sierpinski gaskets.

Subpackages map onto the main moving parts: `geometry` (gaskets, words,
graphs), `harmonic` (cell extension, energies, normal derivatives),
`oracle` (brute-force finite-graph Dirichlet solver), one module per
domain family (`halfdomain`, `upperdomain`, `lowerdomain`) and the boundary
data and recursion engine they share (`cylinder`).  `cli` is the
command-line front end.

`oracle` is imported on first use of `gasketbvp.oracle`, and numpy only by
the graph code of `geometry` and by the oracle: only `compare` pays for
their import.
"""

import importlib

from . import geometry, harmonic, cylinder, halfdomain, upperdomain, lowerdomain

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


def __getattr__(name):
    if name == "oracle":
        return importlib.import_module(".oracle", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
