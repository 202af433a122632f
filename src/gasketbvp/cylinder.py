"""Cylinder boundary data and the recursion engine shared by the three
domain families.

Every family (half, upper, lower) solves its Dirichlet problem the same
way: boundary data lives on a Cantor set X addressed by cylinder words, an
extend step gives the solution on V_1, and a vertex is routed into a
sub-copy F_d(domain) that carries shifted data, where the same step
recurses.  `CylinderData` is the data on X; a family's *frame* is its domain
at one recursion node.  The extend step, `Frame.values`, is one for every
family: the level-1 system of the full cells and the copies' Dirichlet-to-
Neumann maps.  `walk` (every level-m vertex in one pass), `evaluate` (given
points), `cut_values`, `integrate`, `energy` and `words` are the recursions
over cylinder words that the families share; a frame's `form` is its map.

A frame provides
    level, params     the gasket SG_level the domain lives in
    domain            its geometry.Domain
    name, slots       for error messages; the corners q_s whose values
                      F_d(q_s) the data of a sub-copy carries
    corner_values(f)  the data's values at the domain's boundary corners
    cut_values(f, points, s)  the data's values at points (x/s, y/s) of the
                      cut line, integer pairs (x, y), in one batch (by
                      default the cylinder lookup `cut_values`)
    terminals(f, points, s)  (provided) the value at a boundary corner or
                      on the cut line, None elsewhere
    values(f)         (provided) the V_1 values of the solution at the full
                      cells' corners and the copies' slots, keyed by the
                      integer points at scale l of `GasketParams.cell_points`
    form              (link, (c_s, ...)): the Dirichlet-to-Neumann map, the
                      flux c_s (u(q_s) - I_s) + link (u(q_s) - u(q_t)) out of
                      slot s, I_s the data's integral against measures[s]
    measures          (provided) the measure roots of the slots: (self,)
    ratio             r^-1, the scale of one stage of `energy`
    full_cells()      the level-1 cells lying wholly inside the domain
    copies(), shift(d)  the digits of the sub-copies that meet X (F_0 alone
                      for an upper domain with m_1 > 1); F_d's frame, made once
and for `integrate`, the frame as the measure state at the node X_word it walks
    children()        (digit, weight, node) of the sub-cylinders: a child's
                      integral enters its parent's times weight
    own(f, word)      the node's own mass term (the half domain's atoms)
    closed(f, word)   the integral over X_word in closed form, or None
                      (by default the value of constant data)
"""

from fractions import Fraction
from operator import mul

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
        """The data's values at the points (x/s, y/s), for integer pairs
        (x, y), in order: the boundary corners take `corner_values`, the
        points of the cut line one batched `cut_values`, and every other
        point None."""
        dom = self.domain
        ends = {(s * geometry.CORNERS_INT[c][0], s * geometry.CORNERS_INT[c][1]): v
                for c, v in zip(dom.corners, self.corner_values(f))}
        # p lies on the cut line when p[axis] / s = cut = num / den
        num, den, axis = dom.cut.numerator * s, dom.cut.denominator, dom.axis
        cut = [p for p in points if p not in ends and p[axis] * den == num]
        vals = dict(zip(cut, self.cut_values(f, cut, s) if cut else ()))
        return [ends.get(p, vals.get(p)) for p in points]

    def cut_values(self, f, points, s):
        return cut_values(self, f, points, s)

    measures = property(lambda self: (self,))

    def copy_form(self, f, d):
        """(link, [(c_s, I_s) for each slot s]): the `form` of F_d's frame at
        the scale where a level-1 edge has conductance 1, with the integrals
        I_s of f over X_d against its measures."""
        sub, digit = self.shift(d), geometry.WORD_CHARS[d]
        link, cs = sub.form
        return link, [(c, integrate(m, f, digit)) for c, m in zip(cs, sub.measures)]

    def values(self, f):
        """The V_1 values of the solution with data f at the corners of the
        full cells and the slots of the copies, keyed by integer points at
        scale l: `terminals` where it gives a value, else solved from the
        level-1 system, where each edge of a full cell has conductance 1
        and each copy adds its `copy_form`.  The system depends on the frame
        alone and is solved once (`geometry.level1_system`); a node sums
        its sources (known values, integrals) times their solutions, in
        floats if a conductance is a float, else exactly: float data are
        made exact and the values rounded once."""
        points, slots, full = self.params.cell_points, self.slots, self.full_cells()
        copies = [(d, [points[d][s] for s in slots]) for d in self.copies()]
        keys = list(dict.fromkeys([p for i in full for p in points[i]]
                                  + [p for _, ps in copies for p in ps]))
        values = dict(zip(keys, self.terminals(f, keys, self.level)))
        unknown = tuple([p for p in keys if values[p] is None])
        links, ints, todo = [], [], set(unknown)
        for d, ps in copies:
            if not todo.isdisjoint(ps):
                link, form = self.copy_form(f, d)
                links.append((d, link, *[c for c, _ in form]))
                ints += [i for _, i in form]
        exact = float not in {type(c) for _, *cs in links for c in cs}
        sources, rows, den = geometry.level1_system(
            self.level, slots, full, unknown, tuple(links), exact)
        data = [values[s] if type(s) is tuple else ints[s] for s in sources]
        if not exact:
            data = list(map(float, data))
            for p, row in rows:
                values[p] = sum(map(mul, row, data))
            return values
        floats = float in map(type, data)
        q, nums = harmonic._exact_numerators([Fraction(v) if type(v) is float else v for v in data])
        for p, row in rows:
            n = sum(map(mul, row, nums))
            values[p] = n / (q * den) if floats else Fraction(n, q * den)
        return values

    def own(self, f, word):
        return 0

    def closed(self, f, word):
        return f.subtree(word)


def _copy_data(frame, f, values, d):
    corners = frame.params.cell_points[d]
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
    precedence: a node's own V_1 points (`terminals`, else `values`) before
    its cells, and a cell's corners before its other V_1 points.  Points
    that no level-m cell of the closed domain holds are reached (a node's
    V_1 points) but left out.

    A full cell with exact corner values is filled in integers: its
    subcells carry numerators over q D_l^k (`harmonic.extension_step`), and
    a vertex it sets keeps its numerator and denominator, no Fraction."""
    params, dom = frame.params, frame.domain
    l, shifts = params.level, params.int_translations
    chars = geometry.WORD_CHARS
    closed, axis = geometry._closed_side(dom, m), dom.axis
    v1 = list(dict.fromkeys(pt for cell in params.cell_points for pt in cell))
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
        values = frame.values(f)
        todo = [pt for pt in v1 if (x + step * pt[0], y + step * pt[1]) not in out]
        rest = [pt for pt in todo if pt not in values]  # values holds its terminals
        rest = dict(zip(rest, frame.terminals(f, rest, l)))
        for pt in todo:
            value = values[pt] if pt in values else rest[pt]
            if value is not None:
                out[x + step * pt[0], y + step * pt[1]] = value, None
        if k + 1 < m:
            full = frame.full_cells()
            for d in sorted((*full, *frame.copies())):
                dx, dy = x + step * shifts[d][0], y + step * shifts[d][1]
                if d in full:
                    fill(tuple(values[q] for q in params.cell_points[d]), None, dx, dy, k + 1,
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
    goes on into the first sub-copy containing it.  The points of one node
    share its extend step, its sub-copies' data and one descent per full
    cell, and wait with it on a stack, as integers over their common
    denominator s (a V_1 point is found by its integer pair at scale l), at
    most the deepest point's `harmonic.descent_budget` of sub-copies down."""
    params = frame.params
    l, corners = params.level, params.cell_points
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
    out = [None] * len(points)
    stack = [(frame, f, batch, max(budgets, default=1))]  # no points: the root only
    while stack:
        frame, f, batch, depth = stack.pop()
        if depth == 0:
            raise AddressError(f"{points[batch[0][0]]} is no vertex of the {frame.name}")
        values = frame.values(f)
        cells, copies = {}, {}
        targets = [(i, cells) for i in frame.full_cells()] + [(d, copies) for d in frame.copies()]
        ends = frame.terminals(f, [(x, y) for _, x, y in batch], s)
        for (k, x, y), value in zip(batch, ends):
            if value is None:
                # (x/s, y/s) is the V_1 point (px/l, py/l) when l x = s px
                (px, rx), (py, ry) = divmod(l * x, s), divmod(l * y, s)
                value = None if rx or ry else values.get((px, py))
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
    # each sum starts from its first value: 0 + -0.0 would be 0.0
    sums = [(sum(v[1:], v[0]), len(v)) for v in vals]
    return [Fraction(t, n) if type(t) is int else t / n for t, n in sums]


def stage(frame, f):
    """Corner-value triples of the frame's full cells, and (frame, data)
    of every sub-copy."""
    values = frame.values(f)
    corners = frame.params.cell_points
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
    are summed (the pairing over O_stages).  The closed form, for f constant
    v on X, is Gauss-Green on the form: sum_s (f(q_s) - v) d_n u_g(q_s)."""

    def rec(frame, f, g, k):
        if stages is None:
            sf, sg = f.subtree(""), g.subtree("")
            if sf is None and sg is not None:
                f, g, sf, sg = g, f, sg, sf
            if sf is not None:
                link, cs = frame.form
                fs, gs = frame.corner_values(f), frame.corner_values(g)
                terms = [(a - sf) * c * (b - integrate(m, g))
                         for a, b, c, m in zip(fs, gs, cs, frame.measures)]
                total = sum(terms[1:], terms[0])
                return total + link * (fs[0] - fs[1]) * (gs[0] - gs[1]) if link else total
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


def normal_derivatives(frame, f):
    """d_n u(q_s) at each slot s of the solution with data f: the form's
    c_s (f(q_s) - I_s) + link (f(q_s) - f(q_t))."""
    link, cs = frame.form
    fs = frame.corner_values(f)
    ds = tuple(c * (a - integrate(m, f)) for a, c, m in zip(fs, cs, frame.measures))
    return tuple(d + link * (a - b) for d, a, b in zip(ds, fs, fs[::-1])) if link else ds


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
