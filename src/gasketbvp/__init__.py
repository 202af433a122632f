"""Explicit Dirichlet-problem machinery for domains in Sierpinski gaskets.

Subpackages map onto the main moving parts: `geometry` (gaskets, words,
graphs), `harmonic` (cell extension, energies, normal derivatives),
`oracle` (brute-force finite-graph Dirichlet solver), one module per
domain family (`halfdomain`, `upperdomain`, `lowerdomain`) and the boundary
data and recursion engine they share (`cylinder`).  `cli` is the
command-line front end.

Start-up loads the package's modules but `oracle`, and from the standard
library only what they run: `fractions` and, for `cli`, `argparse` and
`json`.  No `dataclasses` (with its `inspect`, `ast`, `dis` and
`tokenize`): records are namedtuples or plain classes.  `oracle` is
imported on first use of `gasketbvp.oracle`, by `compare` alone, and
numpy only by the graph code of `geometry` and of the oracle.
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
