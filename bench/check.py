"""Output checks of the benchmark's CLI commands.

For every seed:
  - the command exits 0;
  - the key columns (solve: word,corner,x,y; haar: word,j; others: the
    first field of each line) equal those of the stored reference, so the
    set of rows and their order are unchanged;
  - solve values lie within [min, max] of the boundary data (maximum
    principle), with a float epsilon;
  - where the oracle converges to the explicit solution, compare's
    discrepancy at the finest level is the smallest of all levels; and
    dyadic-lower rational rows are exactly 0.

`monotone_decreasing,true` is not required for every seed: on the SG half
domain the level-3 discrepancy falls below the level-4 one for some data
(seeds 1 and 4), while the finest level is the smallest for every seed
tried.  For the default seed the flag is checked through the reference.

For the default seed the output also matches the reference: byte for byte
in rational mode; otherwise every non-float token exactly and every float
token within FLOAT_RTOL relative plus FLOAT_ATOL absolute.  The tolerance
admits a re-ordered sparse factorization (about 1e-9 relative on the
oracle values) and nothing a real change of result would produce.
"""

import hashlib
import math
import re
from fractions import Fraction

from workloads import data_values

FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-7
MAX_PRINCIPLE_EPS = 1e-9

FLOAT_TOKEN = re.compile(r"-?(\d+\.\d*(e[-+]?\d+)?|\d+e[-+]?\d+|inf|nan)")

KEY_COLUMNS = {"solve": 4, "haar": 2}

# The level-m graphs of a non-dyadic lower domain have no vertex on the cut
# line, so the oracle sees only q1 and q2 and does not converge to the
# explicit solution: no convergence is claimed for these commands.
NOT_CONVERGENT = {"compare-lower-1_3-3_12"}

# Dyadic lower domains: the exact oracle equals the explicit solution.
EXACT_EQUALITY = {"compare-lower-1_2-3_7"}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def split_floats(text):
    """(skeleton, floats): the text with each float token replaced by '#',
    and the float values in order."""
    floats = []
    lines = []
    for line in text.split("\n"):
        cells = line.split(",")
        for i, cell in enumerate(cells):
            if FLOAT_TOKEN.fullmatch(cell):
                floats.append(cell)
                cells[i] = "#"
        lines.append(",".join(cells))
    return "\n".join(lines), floats


def keys(command, text):
    n = KEY_COLUMNS.get(command, 1)
    return "\n".join(",".join(line.split(",")[:n]) for line in text.split("\n"))


def reference(cmd, text):
    """Reference record of one command's output."""
    skeleton, floats = split_floats(text)
    return {
        "sha256": _sha(text),
        "skeleton_sha256": _sha(skeleton),
        "keys_sha256": _sha(keys(cmd["argv"][0], text)),
        "floats": floats,
    }


def _close(got, want):
    a, b = float(got), float(want)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= FLOAT_ATOL + FLOAT_RTOL * abs(b)


def problems(cmd, text, ref, default_seed):
    """List of reasons the output is wrong; empty when it passes."""
    if ref is None:
        return ["no stored reference for this command"]
    try:
        return _problems(cmd, text, ref, default_seed)
    except (ValueError, ZeroDivisionError) as exc:
        return [f"malformed output: {exc}"]


def _problems(cmd, text, ref, default_seed):
    out = []
    command = cmd["argv"][0]
    if _sha(keys(command, text)) != ref["keys_sha256"]:
        out.append("rows or key columns differ from the reference")
    lines = text.rstrip("\n").split("\n")
    if command == "solve" and cmd["data"] is not None:
        values = data_values(cmd["data"])
        lo, hi = min(values), max(values)
        eps = MAX_PRINCIPLE_EPS * max(1, abs(lo), abs(hi))
        for line in lines[1:]:
            v = line.rsplit(",", 1)[-1]
            x = float(v) if FLOAT_TOKEN.fullmatch(v) else Fraction(v)
            if not (lo - eps <= x <= hi + eps):
                out.append(f"value {v} outside the data range [{lo}, {hi}]")
                break
    if command == "compare":
        maxes = [float(line.split(",")[1]) for line in lines[1:-1]]
        if cmd["name"] not in NOT_CONVERGENT and maxes[-1] != min(maxes):
            out.append("discrepancy at the finest level is not the smallest")
        if cmd["name"] in EXACT_EQUALITY:
            if any(float(c) != 0 for line in lines[1:-1] for c in line.split(",")[1:]):
                out.append("dyadic lower domain: explicit and exact oracle values differ")
    if default_seed:
        skeleton, floats = split_floats(text)
        if cmd["rational"] and _sha(text) != ref["sha256"]:
            out.append("rational output is not byte-identical to the reference")
        if _sha(skeleton) != ref["skeleton_sha256"]:
            out.append("non-float output differs from the reference")
        elif len(floats) != len(ref["floats"]) or not all(map(_close, floats, ref["floats"])):
            out.append("float output differs from the reference beyond tolerance")
    return out

