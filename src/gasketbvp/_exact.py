"""The package's one elimination: Grassmann-Taksar-Heyman elimination of a
grounded graph Laplacian in conductance form (Oper. Res. 33, 1985), exact
on Fractions and accurate to rounding on floats (O'Cinneide, Numer. Math.
65, 1993).  The oracle condenses its cell types with it, and
`geometry.level1_system` the level-1 system of every frame and Gamma_1."""

from operator import mul

from .errors import SolvabilityError

# rational-mode oracle: checked against the unknown count before any work
EXACT_UNKNOWN_CAP = 5000


def _eliminate(c, g, order):
    """Eliminate the slots `order` in turn from the grounded graph Laplacian
    of conductances c[i] = {j: c_ij} and groundings g[i]: pivot d_k =
    sum_j c_kj + g_k, then c_ij += c_ik c_kj / d_k and g_i += c_ik g_k / d_k.
    c and g are left as the Schur complement onto the other slots; returns
    the record [(k, d_k, slots j, weights c_kj / d_k)].  No term is negative,
    so d_k is 0, in floats too, exactly when slot k has no conductance left:
    some interior component does not touch the boundary."""
    record = []
    for k in order:
        row = c[k]
        d = sum(row.values()) + g[k]
        if d == 0:
            raise SolvabilityError("an interior component does not touch the boundary")
        slots = tuple(row)
        weights = tuple(v / d for v in row.values())
        for i, wi in zip(slots, weights):
            ci, cik = c[i], row[i]
            del ci[k]
            for j, w in zip(slots, weights):
                if j != i:
                    ci[j] = ci[j] + cik * w if j in ci else cik * w
            g[i] += g[k] * wi
        record.append((k, d, slots, weights))
    return record


def _forward(record, b):
    """Forward substitution of the loads b over an elimination record:
    y_k = b_k / d_k per step, then b_j += (c_kj / d_k) b_k unless b_k is 0.
    Returns the y_k and leaves in b the loads on the slots not eliminated."""
    ys = []
    for k, d, slots, weights in record:
        bk = b[k]
        ys.append(bk / d)
        if bk:
            for j, w in zip(slots, weights):
                b[j] += w * bk
    return ys


def _backward(record, ys, u):
    """Back substitution over an elimination record into the slot values u,
    last step first: u_k = y_k + sum_j (c_kj / d_k) u_j.  ys is None for a
    cell without load, whose y_k are 0."""
    for n in range(len(record) - 1, -1, -1):
        k, _, slots, weights = record[n]
        v = sum(map(mul, weights, map(u.__getitem__, slots)))
        u[k] = v + ys[n] if ys else v


def solve(c, g, b):
    """{k: u_k} in the key order of c, eliminated in that order, for the
    grounded graph Laplacian (g_k + sum_j c_kj) u_k - sum_j c_kj u_j = b_k.
    c maps each unknown to its symmetric conductances {j: c_kj} to the
    others, g to its grounding and b to its load; all three are consumed.
    It computes in their number type, so exact callers pass Fractions.
    Only the tests and the bench's `solve_dense` span call it."""
    record = _eliminate(c, g, list(c))
    u = {}
    _backward(record, _forward(record, b), u)
    return {k: u[k] for k in c}


# bench/tracing.py traces the exact solver under this name
solve_dense = solve
