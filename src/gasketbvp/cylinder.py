"""Cylinder boundary data and the recursion engine shared by the three
domain families.

Every family (half, upper, lower) solves its Dirichlet problem the same
way: boundary data lives on a Cantor set X addressed by cylinder words, an
extend step gives the solution on V_1, and a vertex is routed into a
sub-copy F_d(domain) that carries shifted data, where the same step
recurses.  `CylinderData` is the data on X; a family's *frame* is its domain
at one recursion node.  `walk` (every level-m vertex in one pass),
`evaluate` (given points), `cut_values`, `integrate`, `energy` and `words`
are the recursions over cylinder words that the families share; the
formulas stay in the families' extend steps and in `harmonic`.

A frame provides
    level, params     the gasket SG_level the domain lives in
    domain            its geometry.Domain (read at the root frame only)
    name, slots       for error messages; the corners q_s whose values
                      F_d(q_s) the data of a sub-copy carries
    corner_values(f)  the data's values at the domain's boundary corners
    cut_values(f, points, s)  the data's values at points (x/s, y/s) of the
                      cut line, integer pairs (x, y), in one batch (by
                      default the cylinder lookup `cut_values`)
    terminals(f, points, s), terminal(f, p)  (provided) the value at a
                      boundary corner or on the cut line, None elsewhere
    values(f)         the V_1 values of the solution from the family's
                      extend step, keyed by exact points, corners included
    full_cells()      the level-1 cells lying wholly inside the domain
    cell(f)           the corner values when the whole domain is one cell,
                      else None; the node then takes no other hook
    copies(), shift(d)  the digits of the sub-copies that meet X (F_0 alone
                      for an upper domain with m_1 > 1); the frame of F_d
as the measure state at the node X_word that `integrate` walks
    children()        (digit, weight, node) of the sub-cylinders: a child's
                      integral enters its parent's times weight
    own(f, word)      the node's own mass term (the half domain's atoms)
    closed(f, word)   the integral over X_word in closed form, or None
                      (by default the value of constant data)
and for `energy`
    ratio             r^-1, the scale of one stage
    coefficient()     c: data constant v on X has energy c (a - v)^2, with
                      a the data's value at its one boundary corner
"""

from fractions import Fraction

from . import geometry, harmonic
from .errors import AddressError, ContractViolation, ResolutionError

MAX_RECURSION = 64


def check_depth(what, n):
    """Refuse data that varies below MAX_RECURSION digits: every recursion
    over the data ends within that depth."""
    if n > MAX_RECURSION:
        raise ContractViolation(
            f"{what} {n} exceeds the {MAX_RECURSION}-digit limit of data words")


class CylinderData:
    """Boundary data on a Cantor set X addressed by cylinder words.

    `cylinders` maps words of at most MAX_RECURSION digits to the constant
    value of f on the cylinder X_w (the longest matching word wins) and
    `default` covers the rest, so every integral of f is a finite sum.
    Subclasses add their corner values and the per-position digit
    alphabet, against which every cylinder word is checked.
    """

    def __init__(self, cylinders=None, default=None):
        self.cylinders = dict(cylinders or {})
        self.default = default
        for w in self.cylinders:
            check_depth("cylinder word length", len(w))
            for k, ch in enumerate(w, start=1):
                if geometry.WORD_CHARS.find(ch) not in self.alphabet(k):
                    raise AddressError(
                        f"cylinder word {w!r}: digit {ch!r} is not admissible at position {k}"
                    )

    def alphabet(self, k):
        """Admissible digits at position k (1-based) of a cylinder word."""
        raise NotImplementedError

    def refined(self, word):
        """True when f may vary on X_word: a longer cylinder lies below
        word."""
        for cyl in self.cylinders:
            if len(cyl) > len(word) and cyl.startswith(word):
                return True
        return False

    def constant(self, word, default):
        """Value of the longest cylinder containing X_word, else default."""
        best = None
        for cyl in self.cylinders:
            if word.startswith(cyl) and (best is None or len(cyl) > len(best)):
                best = cyl
        if best is not None:
            return self.cylinders[best]
        if default is not None:
            return default
        raise ContractViolation("boundary data is not total")

    def subtree(self, word):
        """The value of f on X_word if f is constant there, else None."""
        if self.refined(word):
            return None
        return self.constant(word, self.default)

    def data_values(self):
        vals = list(self.cylinders.values())
        if self.default is not None:
            vals.append(self.default)
        return vals

    def sup(self):
        vals = [abs(v) for v in self.data_values()]
        return max(vals) if vals else 0

    def restrict(self, digit):
        """Constructor keywords of the data on the child cylinder X_digit."""
        ch = geometry.WORD_CHARS[digit]
        return {
            "cylinders": {c[1:]: v for c, v in self.cylinders.items() if c.startswith(ch)},
            "default": self.cylinders.get("", self.default),
        }

    def shifted(self, digit, *corners):
        """Data of the sub-problem on the copy F_digit, whose corner values
        are given in the family's slot order (for families whose data
        carries a cut parameter `lam` with `shift()`)."""
        return type(self)(self.lam.shift(), *corners, **self.restrict(digit))


def check_lam(lam, *data):
    """Refuse boundary data built for a cut parameter other than lam."""
    for f in data:
        if f.lam.value != lam.value:
            raise ContractViolation(f"data built for lambda = {f.lam.value} used at {lam.value}")


class Frame:
    """Defaults of the frame protocol (see the module docstring)."""

    def terminals(self, f, points, s):
        """`terminal` at the points (x/s, y/s), for integer pairs (x, y), in
        order: the boundary corners take `corner_values`, the points of the
        cut line one batched `cut_values`, and every other point None."""
        dom = self.domain
        ends = {(s * geometry.CORNERS_INT[c][0], s * geometry.CORNERS_INT[c][1]): v
                for c, v in zip(dom.corners, self.corner_values(f))}
        line = dom.cut * s
        cut = [p for p in points if p not in ends and p[dom.axis] == line]
        vals = dict(zip(cut, self.cut_values(f, cut, s) if cut else ()))
        return [ends.get(p, vals.get(p)) for p in points]

    def terminal(self, f, p):
        s, [(_, x, y)] = geometry.scaled([p])
        return self.terminals(f, [(x, y)], s)[0]

    def cut_values(self, f, points, s):
        return cut_values(self, f, points, s)

    def cell(self, f):
        return None

    def own(self, f, word):
        return 0

    def closed(self, f, word):
        return f.subtree(word)


def _copy_data(frame, f, values, d):
    corners = frame.params.cell_corners[d]
    return f.shifted(d, *(values[corners[s]] for s in frame.slots))


def walk(frame, f, m):
    """{(x, y): (word, corner, num, den)}: the solution with data f at the
    vertices of the level-m cells in the frame's closed domain, (x, y)
    integers at scale l**m, m >= 1 (see `geometry.check_domain_level`).
    (word, corner) is the vertex's address in `domain_graph`: the least
    over those cells, the word a string of WORD_CHARS.  The value is num
    itself when den is None, else num / den for integers num and den > 0.

    A node's full cells and sub-copies (an upper dilation too) are walked
    depth first in digit order, so the level-m cells come in the order of
    their words and the first to hold a vertex gives its address.  The
    first step to reach a vertex gives its value, in `evaluate`'s
    precedence: a node's own V_1 points (`cell`, else `terminals`, else
    `values`) before its cells, and a cell's corners before its other V_1
    points.  Points that no level-m cell of the closed domain holds are
    reached (a node's V_1 points) but left out.

    A full cell with exact corner values is filled in integers: its
    subcells carry numerators over q D_l^k (`harmonic.extension_step`), and
    a vertex it sets keeps its numerator and denominator, no Fraction."""
    params, dom = frame.params, frame.domain
    l, shifts = params.level, params.int_translations
    chars = geometry.WORD_CHARS
    closed, axis = geometry._closed_side(dom, m), dom.axis
    v1 = list({pt: p for cell, exact in zip(params.cell_points, params.cell_corners)
               for pt, p in zip(cell, exact)}.items())
    # a V_1 point of a level-(m-1) cell with its least (subcell, corner)
    least = {}
    for t, cell in enumerate(params.cell_points):
        for c, pt in enumerate(cell):
            least.setdefault(pt, (chars[t], c))
    least = [(pt, ch, c) for pt, (ch, c) in least.items()]
    out, rows = {}, {}  # (num, den) of the values above level m, and the rows

    def fill(vals, den, x, y, k, word):
        # vals are values (den None) or integer numerators over den
        step = l ** (m - k - 1)
        ext, den = harmonic.extension_step(l, vals, den)
        if k + 1 < m:
            for (px, py), v in ext.items():
                key = x + step * px, y + step * py
                if key not in out:
                    out[key] = v, den
            for t, ((a, b, c), (tx, ty)) in enumerate(zip(params.cell_points, shifts)):
                fill((ext[a], ext[b], ext[c]), den, x + step * tx, y + step * ty, k + 1,
                     word + chars[t])
            return
        # the subcells are level-m cells: a corner of the cell was set above,
        # and its other V_1 points belong to it alone
        for pt, ch, c in least:
            key = x + pt[0], y + pt[1]
            if key not in rows:
                rows[key] = (word + ch, c, *(out.get(key) or (ext[pt], den)))

    def node(frame, f, x, y, k, word):
        # corner j of the level-k cell at (x, y) is at l**(m-k) q_j + (x, y),
        # and a V_1 point, an integer pair at scale l, at l**(m-k-1) times it
        step = l ** (m - k - 1)
        whole = frame.cell(f)
        values = frame.values(f) if whole is None else dict(zip(geometry.CORNERS, whole))
        todo = [(pt, p) for pt, p in v1 if (x + step * pt[0], y + step * pt[1]) not in out]
        pts = [pt for pt, _ in todo]
        ends = frame.terminals(f, pts, l) if whole is None else [None] * len(pts)
        for ((px, py), p), value in zip(todo, ends):
            value = values.get(p) if value is None else value
            if value is not None:
                out[x + step * px, y + step * py] = value, None
        if whole is not None:
            fill(whole, None, x, y, k, word)
        elif k + 1 < m:
            full = frame.full_cells()
            for d in sorted((*full, *frame.copies())):
                dx, dy = x + step * shifts[d][0], y + step * shifts[d][1]
                if d in full:
                    fill(tuple(values[q] for q in params.cell_corners[d]), None, dx, dy, k + 1,
                         word + chars[d])
                else:
                    node(frame.shift(d), _copy_data(frame, f, values, d), dx, dy, k + 1,
                         word + chars[d])
        else:
            # the node's cells are level-m cells: those in the closed domain
            for d, cell in enumerate(params.cell_points):
                keys = [(x + px, y + py) for px, py in cell]
                if all(closed(key[axis]) for key in keys):
                    for c, key in enumerate(keys):
                        if key not in rows:
                            rows[key] = (word + chars[d], c, *out[key])

    node(frame, f, 0, 0, 0, "")
    return rows


def evaluate(frame, f, vertices):
    """Values at the vertices (VertexAddresses or exact points) of the
    solution with data f on the frame's domain, in order; a point off the
    gasket or whose denominator divides no power of l raises AddressError,
    and one outside the closed domain ResolutionError.

    At each recursion node a point is a boundary point (`terminals`, one
    batch per node) or a V_1 point (`values`), else it lies in the first
    full cell containing it, resolved there by the harmonic extension, or
    goes on into the first sub-copy containing it; a node that is one cell
    (`cell`) descends every point.  The points of one node share its extend
    step, its sub-copies' data and one descent per full cell, and wait with
    it on a stack, as integers over their common denominator s (a V_1 point
    is found by its integer pair), at most the deepest point's
    `harmonic.descent_budget` of sub-copies down."""
    params = frame.params
    l, corners = params.level, params.cell_corners
    points = [geometry.exact_point(params, v) for v in vertices]
    s, batch = geometry.scaled(points)
    for k, x, y in batch:
        if not geometry.cells_at(params, x, y, s):
            raise AddressError(f"{points[k]} lies outside the gasket")
        if geometry.outside(frame.domain, x, y, s):
            raise ResolutionError(f"{points[k]} lies outside the closed {frame.name}")
    budgets = [harmonic.descent_budget(l, x, y, s) for _, x, y in batch]
    if None in budgets:
        p = points[budgets.index(None)]
        raise AddressError(f"{p} is no vertex: its denominator divides no power of {l}")
    shifts = geometry.unapply_shifts(params, s)
    # the V_1 points by integer pair at scale s l: (x/s, y/s) is the V_1
    # point p when (l x, l y) is its key
    v1 = {(s * px, s * py): p for cell, exact in zip(params.cell_points, corners)
          for (px, py), p in zip(cell, exact)}
    out = [None] * len(points)
    stack = [(frame, f, batch, max(budgets, default=1))]  # no points: the root only
    while stack:
        frame, f, batch, depth = stack.pop()
        if depth == 0:
            raise AddressError(f"{points[batch[0][0]]} is no vertex of the {frame.name}")
        whole = frame.cell(f)
        if whole is not None:
            harmonic.descend(frame.level, whole, batch, s, out, points)
            continue
        values = frame.values(f)
        cells, copies = {}, {}
        targets = [(i, cells) for i in frame.full_cells()] + [(d, copies) for d in frame.copies()]
        ends = frame.terminals(f, [(x, y) for _, x, y in batch], s)
        for (k, x, y), value in zip(batch, ends):
            if value is None:
                p = v1.get((l * x, l * y))
                value = None if p is None else values.get(p)
            if value is not None:
                out[k] = value
                continue
            for i, bucket in targets:
                sx, sy = shifts[i]
                lx, ly = l * x - sx, l * y - sy
                if geometry.cells_at(params, lx, ly, s):
                    bucket.setdefault(i, []).append((k, lx, ly))
                    break
            else:
                p = (Fraction(x, s), Fraction(y, s))
                raise AddressError(f"{p} could not be routed inside the {frame.name}")
        batch = None
        for i, group in cells.items():
            vals = tuple(values[q] for q in corners[i])
            harmonic.descend(frame.level, vals, group, s, out, points)
        for d, group in copies.items():
            stack.append((frame.shift(d), _copy_data(frame, f, values, d), group, depth - 1))
    return out


def cut_values(frame, f, points, s):
    """Data values at the points (x/s, y/s) of the cut line, for integer
    pairs (x, y), in order; at a junction of two cylinders of
    piecewise-constant data the cylinder values are averaged (integers to a
    Fraction, so exact values stay exact).  The points descend together: a
    node reads its data once and sends each point into every sub-copy whose
    cell holds it, depth first in digit order."""
    params = frame.params
    l = params.level
    shifts = geometry.unapply_shifts(params, s)
    blank = (None,) * len(frame.slots)  # a copy's corner values are not needed
    vals = [[] for _ in points]

    def rec(frame, data, batch):
        sub = data.subtree("")
        if sub is not None:
            for k, _, _ in batch:
                vals[k].append(sub)
            return
        groups = {d: [] for d in frame.copies()}
        for k, x, y in batch:
            hits = 0
            for d, group in groups.items():
                lx, ly = l * x - shifts[d][0], l * y - shifts[d][1]
                if geometry.cells_at(params, lx, ly, s):
                    group.append((k, lx, ly))
                    hits += 1
            if hits == 0:
                p = (Fraction(x, s), Fraction(y, s))
                raise AddressError(f"{p} is not on the cut-line boundary of the {frame.name}")
        for d, group in groups.items():
            if group:
                rec(frame.shift(d), data.shifted(d, *blank), group)

    rec(frame, f, [(k, x, y) for k, (x, y) in enumerate(points)])
    sums = [(sum(v), len(v)) for v in vals]
    return [Fraction(t, n) if type(t) is int else t / n for t, n in sums]


def cut_value(frame, f, p):
    """`cut_values` at one exact point p."""
    s, [(_, x, y)] = geometry.scaled([p])
    return cut_values(frame, f, [(x, y)], s)[0]


def stage(frame, f):
    """Corner-value triples of the frame's full cells, and (frame, data)
    of every sub-copy."""
    values = frame.values(f)
    corners = frame.params.cell_corners
    cells = [tuple(values[q] for q in corners[i]) for i in frame.full_cells()]
    copies = [(frame.shift(d), _copy_data(frame, f, values, d)) for d in frame.copies()]
    return cells, copies


def integrate(node, f, word=""):
    """The integral of f over X_word against the measure whose state at
    X_word is `node`, exactly: each branch ends where f is constant or in
    closed form, at most MAX_RECURSION digits deep."""

    def rec(node, word):
        value = node.closed(f, word)
        if value is not None:
            return value
        total = node.own(f, word)
        for d, weight, child in node.children():
            total += weight * rec(child, word + geometry.WORD_CHARS[d])
        return total

    return rec(node, word)


def energy(frame, f, g, stages=None):
    """E(u_f, u_g) on the frame's domain, summed stage by stage: a stage
    pairs the energies of the full cells and recurses into the sub-copies,
    both scaled by r^-1.  Without `stages` a branch ends in closed form once
    f or g is constant on it; with `stages` only the first `stages` stages
    are summed (the pairing over O_stages)."""

    def rec(frame, f, g, k):
        if stages is None:
            sf, sg = f.subtree(""), g.subtree("")
            if sf is not None or sg is not None:
                c = frame.coefficient()
                (fa,), (ga,) = frame.corner_values(f), frame.corner_values(g)
                if sg is None:
                    return (fa - sf) * c * (ga - integrate(frame, g))
                if sf is None:
                    return (ga - sg) * c * (fa - integrate(frame, f))
                return c * (fa - sf) * (ga - sg)
        elif k >= stages:
            return 0
        fcells, fcopies = stage(frame, f)
        gcells, gcopies = stage(frame, g)
        total = 0
        for a, b in zip(fcells, gcells):
            total += frame.ratio * harmonic.triangle_energy(a, b)
        for (sub, fs), (_, gs) in zip(fcopies, gcopies):
            total += frame.ratio * rec(sub, fs, gs, k + 1)
        return total

    return rec(frame, f, g, 0)


def words(alphabet, depth, word="", keep=None):
    """Every word of length <= depth below `word`, depth first in preorder;
    alphabet(k) gives the digits admissible at position k.  A word for which
    keep(word) is false is left out with every word below it."""
    if keep is not None and not keep(word):
        return
    if len(word) <= depth:
        yield word
    if len(word) < depth:
        for d in alphabet(len(word) + 1):
            yield from words(alphabet, depth, word + geometry.WORD_CHARS[d], keep)
