"""Single-cell harmonic extension, cell energies and normal derivatives.

The extension weights of every level come from Gamma_1's level-1 solve
(`geometry.gamma1_basis`, every 1-cell full): for SG they are the
2/5-1/5 rule, for SG_3 the 8-4-3 / 15 rule with mean value at the centre,
derived, not typed in.  The public `harmonic_extend_cell` still serves
only l in {2, 3}; higher levels are used internally.

Exact values are extended in integers: the weights of level l are integers
over their least common denominator D_l (5 on SG, 15 on SG_3, 309 and 1663
for l = 4, 5), so k extensions of exact corner values over the common
denominator q give integer numerators over q D_l^k (`extend_numerators`).
The walk and `descend` carry those numerators down; `descend` builds a
Fraction once per value it sets and the walk hands out the numerator and
its denominator.  Float corner values take float weights.
"""

import math
from fractions import Fraction
from functools import lru_cache

from . import geometry
from .errors import CapabilityError, ContractViolation
from .geometry import CORNERS_INT, gasket

MATCHING_RTOL = 1e-10


def _is_exact(*vals):
    return all(type(v) is Fraction or type(v) is int for v in vals)  # no slow ABC isinstance


_BASIS_CACHE = {}


def extension_basis(level):
    """Weights of the energy-minimising extension: maps each level-1 point
    (integer coords at scale l) to the coefficient triple on (v0, v1, v2)
    (`geometry.gamma1_basis`)."""
    if level not in _BASIS_CACHE:
        _BASIS_CACHE[level] = geometry.gamma1_basis(level)
    return _BASIS_CACHE[level]


@lru_cache(maxsize=None)
def _float_basis(level):
    return {pt: tuple(map(float, w)) for pt, w in extension_basis(level).items()}


@lru_cache(maxsize=None)
def integer_basis(level):
    """(D, {pt: (a0, a1, a2)}): the extension weights of the level as
    integers a_c over their least common denominator D."""
    basis = extension_basis(level)
    d = math.lcm(*(w.denominator for ws in basis.values() for w in ws))
    return d, {pt: tuple(w.numerator * (d // w.denominator) for w in ws)
               for pt, ws in basis.items()}


def _exact_numerators(values):
    """(q, nums): exact values (Fractions or ints) as integer numerators
    over their least common denominator q."""
    q = math.lcm(*(v.denominator for v in values))
    return q, tuple(v.numerator * (q // v.denominator) for v in values)


def extend_numerators(level, nums):
    """The extension of corner values n_c / q to the cell's V_1 points, keyed
    by integer coordinates at scale l, as integer numerators over q D_l."""
    n0, n1, n2 = nums
    return {pt: a * n0 + b * n1 + c * n2 for pt, (a, b, c) in integer_basis(level)[1].items()}


def extension_step(level, vals, den):
    """(ext, den) of one extension of a cell's corner values: with den None
    vals are values, else integer numerators over den.  Exact values go over
    to numerators, and ext then holds numerators over the returned den;
    float or mixed values give values, and den None."""
    if den is None:
        if not _is_exact(*vals):
            return cell_extension(level, vals), None
        den, vals = _exact_numerators(vals)
    return extend_numerators(level, vals), den * integer_basis(level)[0]


def cell_extension(level, values):
    """Extension of cell-corner values (v0, v1, v2) to the cell's V_1 points,
    keyed by integer coordinates at scale l. Internal: accepts any level.
    Exact values are extended in integers (`extend_numerators`).  Float
    values take float weights: a Fraction times a float is computed as
    float(weight) * value anyway."""
    if _is_exact(*values):
        q, nums = _exact_numerators(values)
        den = q * integer_basis(level)[0]
        return {pt: Fraction(n, den) for pt, n in extend_numerators(level, nums).items()}
    floats = all(type(v) is float for v in values)
    basis = _float_basis(level) if floats else extension_basis(level)
    v0, v1, v2 = values
    return {pt: w[0] * v0 + w[1] * v1 + w[2] * v2 for pt, w in basis.items()}


def harmonic_extend_cell(level, values):
    """Energy-minimising extension of (v0, v1, v2) at a cell's corners.

    Only the closed-form levels l in {2, 3} are supported here; the
    result maps every V_1 point of the cell (corners included, keyed by
    integer coordinates at scale l) to its value.
    """
    if level not in (2, 3):
        raise CapabilityError(f"closed-form extension registered for l in {{2,3}}, got {level}")
    return cell_extension(level, values)


def check_cell_harmonic(level, v1_values):
    """Verify the matching (mean value) equations at the V_1 points of a cell
    but its corners, each summed over the 1-cells that hold the point; exact
    in rational mode, MATCHING_RTOL-tolerant in float mode."""
    cells = gasket(level).cell_points
    exact = _is_exact(*v1_values.values())
    scale = max((abs(v) for v in v1_values.values()), default=1)
    tol = 0 if exact else MATCHING_RTOL * max(1.0, float(scale))
    residual = {}
    for cell in cells:
        total = sum(v1_values[q] for q in cell)
        for p in cell:
            residual[p] = residual.get(p, 0) + 3 * v1_values[p] - total
    for pt in sorted(residual.keys() - {cell[c] for c, cell in enumerate(cells[:3])}):
        if abs(residual[pt]) > tol:
            raise ContractViolation(
                f"values are not harmonic in the cell: residual {residual[pt]} at {pt}"
            )


def normal_derivative(level, v1_values, corner, depth=0, check=True):
    """Normal derivative at a cell corner from one subdivision of the cell.

    v1_values maps the cell's V_1 integer points (scale l) to values of a
    function harmonic inside the cell; for harmonic input the single
    subdivision already equals the limit.  `depth` is the cell's own level
    in the gasket, contributing the r^(-depth) renormalisation.
    """
    if check:
        check_cell_harmonic(level, v1_values)
    r = gasket(level).renorm_factor
    if not _is_exact(*v1_values.values()):
        r = float(r)
    # the corner cell fixes q_corner; its other two corners are q's neighbours
    cell = gasket(level).cell_points[corner]
    n1, n2 = (cell[j] for j in range(3) if j != corner)
    base = 2 * v1_values[cell[corner]] - v1_values[n1] - v1_values[n2]
    return base / r ** (depth + 1)


def harmonic_normal_derivative(level, corner_values, corner, depth=0):
    """Normal derivative of the harmonic function with given cell-corner
    values; extension is done internally so no harmonicity check is needed."""
    ext = cell_extension(level, corner_values)
    return normal_derivative(level, ext, corner, depth, check=False)


def harmonic_value_in_cell(level, corner_values, p):
    """Value at an exact point p (a vertex of some V_m) of the harmonic
    function on the unit cell with the given corner values."""
    s, batch = geometry.scaled([p])
    out = [None]
    descend(level, corner_values, batch, s, out, [p])
    return out[0]


def descent_budget(level, x, y, s):
    """The levels a descent to the point (x/s, y/s) takes at most (see
    `descend`), or None when its reduced denominator divides no l**k."""
    d = s // math.gcd(s, x, y)
    return next((k + 3 for k in range(d.bit_length()) if level ** k % d == 0), None)


def descend(level, corner_values, batch, s, out, points):
    """Set out[k] for every (k, x, y) in batch to the value at the point
    (x/s, y/s) of the harmonic function on the unit cell with the given
    corner values; points[k] names the point in errors.

    The points descend together: at each subcell every point is a corner of
    it, or goes on into the first 1-cell containing it, and the subcell's
    values are extended once for all the points going on.  Subcells wait on
    a stack, so each point is held at one subcell only.

    A point over the reduced denominator d, for the least k with d | l**k,
    is an integer point of its level-k cell: a corner, or (1, 0) or (1, 1),
    which are vertices at most two levels further down or never.  The
    descent stops there (`descent_budget`); a d dividing no l**k is refused.

    Exact values go down as integer numerators over one denominator per
    subcell (`extension_step`), and a point's Fraction is built when it is
    set; a point at a corner of the unit cell takes its value as given."""
    params = gasket(level)
    corners = params.cell_points
    shifts = geometry.unapply_shifts(params, s)
    vertices = {(s * x, s * y): c for c, (x, y) in enumerate(CORNERS_INT)}
    caps = [descent_budget(level, x, y, s) for _, x, y in batch]
    if None in caps:
        p = points[batch[caps.index(None)][0]]
        raise ContractViolation(f"{p} is not a vertex address within the descent cap")
    stack = [(tuple(corner_values), None, batch, max(caps))]
    while stack:
        vals, den, batch, depth = stack.pop()
        if depth == 0:
            raise ContractViolation(
                f"{points[batch[0][0]]} is not a vertex address within the descent cap"
            )
        groups = {}
        for k, x, y in batch:
            c = vertices.get((x, y))
            if c is not None:
                out[k] = vals[c] if den is None else Fraction(vals[c], den)
                continue
            cells = geometry.cells_at(params, x, y, s)
            if not cells:
                raise ContractViolation(f"{points[k]} is outside the cell")
            i = cells[0]
            sx, sy = shifts[i]
            groups.setdefault(i, []).append((k, level * x - sx, level * y - sy))
        batch = None
        if groups:
            ext, den = extension_step(level, vals, den)
            for i, group in groups.items():
                stack.append((tuple(ext[q] for q in corners[i]), den, group, depth - 1))


def triangle_energy(a, b=None):
    """Sum over the three corner pairs of a cell of df * dg (no renorm)."""
    if b is None:
        b = a
    return (
        (a[0] - a[1]) * (b[0] - b[1])
        + (a[0] - a[2]) * (b[0] - b[2])
        + (a[1] - a[2]) * (b[1] - b[2])
    )
