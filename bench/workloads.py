"""Seeded boundary data and the command list of each benchmark workload.

The seed picks rational values only.  The cylinder words and atoms of every
data file are fixed, so each seed asks the program for the same work: the
constant-subtree shortcuts fire on the same words, and every value is k/7
with a two-digit k, so Fraction sizes do not depend on the seed either.
"""

import json
import os
import random
from fractions import Fraction

DEFAULT_SEED = 0

# Fixed word sets.  Words must use each level's alphabet, because the program
# does not reject every bad word: UpperBoundaryData accepts digits outside the
# per-level alphabet and simply never reads them.
#   half SG (l=2): alphabet {0}, one atom per word
#   half SG3 (l=3): alphabet {0, 3}, one atom per word
#   half l=4: alphabet {0, 6}, two atoms per word
#   upper lambda=1: {1,2,3} at every level; lambda=2/3: {4,5} then {1,2,3}
#   lower lambda=1/2: {1,2} then {0}; lambda=1/3: {0}, {1,2}, {0}, {1,2}, ...
DATA_SHAPES = {
    "half-sg": {"keys": ["q1", "q0"], "atoms": [("", 1), ("0", 1), ("00", 1), ("000", 1)],
                "cylinders": [], "default_tail": "q0"},
    "half-sg3": {"keys": ["q1", "q0"], "atoms": [("", 1), ("0", 1), ("3", 1)],
                 "cylinders": ["00", "03", "30", "33"]},
    "half-l4": {"keys": ["q1", "q0"], "atoms": [("", 1), ("", 2), ("0", 2)],
                "cylinders": ["0", "60", "66"], "default_tail": "own"},
    "upper-1": {"keys": ["q0"], "cylinders": ["1", "2", "31", "32", "33"]},
    "upper-2/3": {"keys": ["q0"], "cylinders": ["4", "51", "52", "53"]},
    "lower-1/2": {"keys": ["q1", "q2"], "cylinders": ["1", "2"]},
    "lower-1/3": {"keys": ["q1", "q2"], "cylinders": ["01", "0201", "0202"],
                  "default_tail": "own"},
}

# Per-position alphabets as (head, cycle): position k (from 0) uses head[k]
# while k < len(head), then cycles through `cycle`.
ALPHABETS = {
    "half-sg": ([], ["0"]),
    "half-sg3": ([], ["03"]),
    "half-l4": ([], ["06"]),
    "upper-1": ([], ["123"]),
    "upper-2/3": (["45"], ["123"]),
    "lower-1/2": (["12"], ["0"]),
    "lower-1/3": ([], ["0", "12"]),
}


def _check_word(shape, word):
    head, cycle = ALPHABETS[shape]
    for k, ch in enumerate(word):
        allowed = head[k] if k < len(head) else cycle[(k - len(head)) % len(cycle)]
        if ch not in allowed:
            raise ValueError(f"word {word!r} is not valid for {shape} at position {k + 1}")


def make_data(shape, rng):
    """Boundary-data JSON for one shape: distinct values k/7, 10 <= |k| <= 99."""
    spec = DATA_SHAPES[shape]
    slots = len(spec["keys"]) + len(spec.get("atoms", [])) + len(spec["cylinders"])
    slots += spec.get("default_tail") == "own"
    ks = rng.sample([k for k in range(10, 100) if k % 7], slots)
    values = iter(str(Fraction(k if rng.random() < 0.5 else -k, 7)) for k in ks)
    data = {"schema": 1}
    for key in spec["keys"]:
        data[key] = next(values)
    atoms = []
    for word, j in spec.get("atoms", []):
        _check_word(shape, word)
        atoms.append({"w": word, "j": j, "v": next(values)})
    if atoms:
        data["atoms"] = atoms
    cylinders = []
    for word in spec["cylinders"]:
        _check_word(shape, word)
        cylinders.append({"w": word, "v": next(values)})
    if cylinders:
        data["cylinders"] = cylinders
    if spec.get("default_tail") == "q0":
        # the SG half-domain data must be continuous at q0 for dtn
        data["default_tail"] = data["q0"]
    elif spec.get("default_tail") == "own":
        data["default_tail"] = next(values)
    return data


def data_values(data):
    """Every value the boundary data takes, as Fractions (for the maximum
    principle check)."""
    vals = [Fraction(data[k]) for k in ("q0", "q1", "q2", "default_tail") if k in data]
    vals += [Fraction(e["v"]) for e in data.get("atoms", []) + data.get("cylinders", [])]
    return vals


# One entry per command: (name, data shape or None, CLI arguments), where
# `{data}` stands for the path of the shape's data file.
WORKLOADS = {
    # nearly all time is the explicit recursion and cell routing
    "explicit-solve": [
        ("solve-half-sg3-5", "half-sg3",
         ["solve", "--domain", "half-sg3", "--level", "5", "--mode", "rational", "--data", "{data}"]),
        ("solve-half-sg-8", "half-sg",
         ["solve", "--domain", "half-sg", "--level", "8", "--mode", "rational", "--data", "{data}"]),
        ("solve-half-l4-3", "half-l4",
         ["solve", "--domain", "half", "--l", "4", "--level", "3", "--mode", "rational", "--data", "{data}"]),
        ("solve-upper-1-4", "upper-1",
         ["solve", "--domain", "upper", "--lambda", "1", "--level", "4", "--data", "{data}"]),
        ("solve-upper-2_3-4", "upper-2/3",
         ["solve", "--domain", "upper", "--lambda", "2/3", "--level", "4", "--data", "{data}"]),
        ("solve-lower-1_2-6", "lower-1/2",
         ["solve", "--domain", "lower", "--lambda", "1/2", "--level", "6", "--mode", "rational", "--data", "{data}"]),
        ("solve-lower-1_3-6", "lower-1/3",
         ["solve", "--domain", "lower", "--lambda", "1/3", "--level", "6", "--mode", "float", "--data", "{data}"]),
    ],
    # graph build, vertex index, Laplacian assembly and sparse LU
    "oracle-float": [
        ("compare-half-sg3-3_8", "half-sg3",
         ["compare", "--domain", "half-sg3", "--levels", "3:8", "--mode", "float", "--data", "{data}"]),
        ("compare-lower-1_3-3_12", "lower-1/3",
         ["compare", "--domain", "lower", "--lambda", "1/3", "--levels", "3:12", "--mode", "float", "--data", "{data}"]),
        ("compare-upper-1-3_7", "upper-1",
         ["compare", "--domain", "upper", "--lambda", "1", "--levels", "3:7", "--mode", "float", "--data", "{data}"]),
    ],
    # the same oracle layer through exact Fraction elimination
    "oracle-exact": [
        ("compare-half-sg-3_8", "half-sg",
         ["compare", "--domain", "half-sg", "--levels", "3:8", "--mode", "rational", "--data", "{data}"]),
        ("compare-lower-1_2-3_7", "lower-1/2",
         ["compare", "--domain", "lower", "--lambda", "1/2", "--levels", "3:7", "--mode", "rational", "--data", "{data}"]),
        ("compare-half-sg3-3_4", "half-sg3",
         ["compare", "--domain", "half-sg3", "--levels", "3:4", "--mode", "rational", "--data", "{data}"]),
    ],
    # commands dominated by interpreter start and imports
    "short-commands": [
        ("eta-upper-1", None, ["eta", "--domain", "upper", "--lambda", "1", "--check-closed-form"]),
        ("eta-lower-1_2", None, ["eta", "--domain", "lower", "--lambda", "1/2", "--check-closed-form"]),
        ("eta-lower-1_3", None, ["eta", "--domain", "lower", "--lambda", "1/3", "--check-closed-form"]),
        ("measure-half-sg3", None, ["measure", "--domain", "half-sg3", "--word", "03", "--j", "1", "--depth", "6"]),
        ("measure-lower-1_2", None, ["measure", "--domain", "lower", "--lambda", "1/2", "--word", "10"]),
        ("energy-half-sg3", "half-sg3", ["energy", "--domain", "half-sg3", "--depth", "4", "--data", "{data}"]),
        ("energy-upper-1", "upper-1", ["energy", "--domain", "upper", "--lambda", "1", "--depth", "3", "--data", "{data}"]),
        ("haar-upper-1", "upper-1", ["haar", "--lambda", "1", "--depth", "6", "--data", "{data}"]),
        ("dtn-half-sg", "half-sg", ["dtn", "--kmax", "400", "--data", "{data}"]),
    ],
}


def prepare(workload, seed, data_dir):
    """Write the workload's data files for `seed` into `data_dir`.

    Returns a list of commands: dicts with name, argv, data (the parsed
    boundary data or None) and rational (whether --mode rational is set).
    """
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(data_dir, exist_ok=True)
    files = {}
    commands = []
    for name, shape, argv in WORKLOADS[workload]:
        data = None
        if shape is not None:
            if shape not in files:
                data = make_data(shape, rng)
                path = os.path.join(data_dir, shape.replace("/", "_") + ".json")
                with open(path, "w") as fh:
                    json.dump(data, fh, sort_keys=True)
                files[shape] = (path, data)
            path, data = files[shape]
            argv = [path if a == "{data}" else a for a in argv]
        commands.append({
            "name": name,
            "argv": argv,
            "data": data,
            "rational": "rational" in argv,
        })
    return commands
