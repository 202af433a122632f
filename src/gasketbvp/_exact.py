"""The package's one exact linear solver: sparse elimination over Fraction,
for the Gamma_1 harmonic extension, the SG_l (l >= 4) half-domain extend
step and the rational-mode oracle.  Gasket graphs have tiny treewidth, so
minimum-degree fill-in stays small; the float-mode oracle condenses over the
cell hierarchy instead.
"""

import heapq
from fractions import Fraction

from .errors import SolvabilityError

# checked by the oracle against the unknown count, before it builds any row
EXACT_UNKNOWN_CAP = 5000


def solve(rows, rhs):
    """Solve sum_j a_ij x_j = b_i exactly; returns {i: x_i} in the order of rows.

    rows maps each unknown i to its sparse row {j: a_ij} and rhs maps i to
    b_i (ints, floats or Fractions, converted exactly); both are consumed.
    Minimum-degree elimination without pivoting needs a symmetric positive
    definite matrix, e.g. a graph Laplacian with a Dirichlet boundary plus
    nonnegative diagonal terms; a zero pivot raises SolvabilityError.
    """
    unknowns = list(rows)
    for i, row in rows.items():
        for j, a in row.items():
            row[j] = Fraction(a)
        rhs[i] = Fraction(rhs[i])
    order = []
    heap = [(len(row) - 1, i) for i, row in rows.items()]
    heapq.heapify(heap)
    while heap:
        deg, i = heapq.heappop(heap)
        if i not in rows:
            continue
        if deg != len(rows[i]) - 1:
            heapq.heappush(heap, (len(rows[i]) - 1, i))
            continue
        row = rows.pop(i)
        b = rhs.pop(i)
        piv = row.pop(i, 0)
        if piv == 0:
            raise SolvabilityError("singular system in exact elimination (zero pivot)")
        order.append((i, row, b, piv))
        for j in row:
            rj = rows[j]
            f = rj.pop(i, None)
            if f is None:
                continue
            f /= piv
            for k, v in row.items():
                rj[k] = rj[k] - f * v if k in rj else -f * v
            rhs[j] -= f * b
            heapq.heappush(heap, (len(rj) - 1, j))
    x = {}
    while order:  # popping frees each eliminated row once it is used
        i, row, b, piv = order.pop()
        s = b
        for k, v in row.items():
            s -= v * x[k]
        x[i] = s / piv
    return {i: x[i] for i in unknowns}


# bench/tracing.py traces the exact solver under this name
solve_dense = solve
