"""Dirichlet machinery for the left half domain of SG_l.

The half domain is cut by the vertical symmetry line; its boundary is the
bottom-left corner q1 together with the Cantor set X on the line.  The
purely atomic boundary measure, the normal derivative at q1, the explicit
extension step, the recursive evaluator, the boundary energy form Q and
the SG Dirichlet-to-Neumann correspondence all live here.

Atoms are addressed by words over the half-domain digit alphabet (the
cells meeting the line in a Cantor piece: {0} for SG, {0,3} for SG_3,
{0,6} for SG_4, ...) plus a height index j for l >= 4 where each cylinder
carries several atoms.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import cylinder, geometry, harmonic
from .cylinder import MAX_RECURSION, CylinderData, check_depth
from .errors import AddressError, ContractViolation, ResolutionError
from .geometry import Q0, Q1, gasket

F = Fraction


# ---------------------------------------------------------------------------
# per-level structure


class HalfStructure(cylinder.Frame):
    """Digit alphabet, measure weights and atom layout of the half domain of
    SG_l, which is also its recursion frame: every sub-copy F_d of it is
    again a half domain, so shifting returns the same structure."""

    name = "half domain"
    slots = (1,)

    def __init__(self, level):
        params = gasket(level)
        self.level = level
        self.params = params
        self.domain = geometry.HalfDomain(level)
        self.alphabet = params.half_alphabet          # map indices, top to bottom
        self.atom_count = len(params.atom_cells)      # floor(l/2)
        self.r = params.renorm_factor
        self.ratio = 1 / self.r
        ha = harmonic.cell_extension(level, (F(0), F(1), F(-1)))
        self.ha_gamma1 = ha
        points = params.cell_points
        # digit weights mu_i = r^{-1} h_a(F_i q_1)
        self.weights = {i: ha[points[i][1]] / self.r for i in self.alphabet}
        # atom base masses -(1/3) * right normal derivative of h_a at p_{j,<>}
        self.atom_points = []
        self.atom_base = []
        for cell in params.atom_cells:
            vals = tuple(ha[p] for p in points[cell])
            nd = harmonic.harmonic_normal_derivative(level, vals, 2, depth=1)
            self.atom_base.append(-nd / 3)
            self.atom_points.append(params.cell_corners[cell][2])
        if sum(self.atom_base) != 1 - sum(self.weights.values()):
            raise ContractViolation(f"half-domain measure for l={level} does not sum to 1")
        # embedding of each depth-0 atom into deeper cylinders: the digit
        # chain to follow (ends at q0 -> infinite 0-tail, or is finite when
        # the atom sits isolated between cylinders)
        self.atom_embed = []
        for p in self.atom_points:
            chain, terminal_q0 = self._embed_chain(p)
            self.atom_embed.append((chain, terminal_q0))
        # q0-corner of each cylinder cell: f(F_i q_0) for the data shift
        self.cylinder_top = {}
        for i in self.alphabet:
            top = params.cell_corners[i][0]
            if top == Q0:
                self.cylinder_top[i] = None  # the copy inherits f(q0)
            else:
                self.cylinder_top[i] = self.atom_points.index(top)
        self._children = [(i, self.weights[i], self) for i in self.alphabet]

    def corner_values(self, f):
        return (f.q1,)

    def cut_values(self, f, points, s):
        """f.atom at the atoms among the points (x/s, y/s) of the cut line,
        f.q0 at the corner q0.  The points descend together in integers, at
        the atoms' scale s l: each goes on into the first cylinder cell
        containing it, and each cell's points wait on a stack under one
        word."""
        params, l, scale = self.params, self.level, s * self.level
        shifts, alphabet = geometry.unapply_shifts(params, scale), self.alphabet
        ends = {(s * x, s * y): j for j, (x, y) in
                enumerate((params.cell_points[c][2] for c in params.atom_cells), start=1)}
        out = [None] * len(points)
        stack = [("", [(k, l * x, l * y) for k, (x, y) in enumerate(points)])]
        while stack:
            word, batch = stack.pop()
            if len(word) == MAX_RECURSION:
                raise AddressError("cut-line point does not resolve to an atom")
            groups = {}
            for k, x, y in batch:
                if (x, y) == (scale, 2 * scale):  # the accumulation corner q0
                    if f.q0 is None:
                        raise ContractViolation("data has no value at the accumulation corner q0")
                    out[k] = f.q0
                elif (x, y) in ends:
                    out[k] = f.atom(word, ends[x, y])
                else:
                    cells = [i for i in geometry.cells_at(params, x, y, scale) if i in alphabet]
                    if not cells:
                        p = (F(x, scale), F(y, scale))
                        raise AddressError(f"{p} is not a vertex on the Cantor boundary")
                    sx, sy = shifts[cells[0]]
                    groups.setdefault(cells[0], []).append((k, l * x - sx, l * y - sy))
            stack += [(word + geometry.WORD_CHARS[i], group) for i, group in groups.items()]
        return out

    def full_cells(self):
        return _contained_cells_level1(self.level)

    def copies(self):
        return self.alphabet

    def shift(self, d):
        return self

    # the measure: fixed digit weights, atom base masses at every node
    def children(self):
        return self._children

    def own(self, f, word):
        return sum(base * f.atom(word, j) for j, base in enumerate(self.atom_base, start=1))

    def closed(self, f, word):
        """Constant data, or the SG geometric tail A + B rho^k summed in
        closed form over the atoms below word."""
        tail = f.geometric_tail
        if tail is None or tail[1] == 0 or len(word) < tail[3] or f.refined(word):
            return f.subtree(word)
        a, b, rho, _ = tail
        mu = self.weights[self.alphabet[0]]
        return a + b * rho ** len(word) * self.atom_base[0] / (1 - rho * mu)

    # the Dirichlet-to-Neumann map: d_n u(q1) = 3 (u(q1) - the integral)
    form = (0, (3,))

    def _embed_chain(self, p):
        chain = []
        for _ in range(MAX_RECURSION):
            cells = [
                i for i in geometry.cells_containing(self.params, p) if i in self.alphabet
            ]
            if not cells:
                return "".join(geometry.WORD_CHARS[i] for i in chain), False
            i = cells[0]
            chain.append(i)
            p = self.params.unapply_map(i, p)
            if p == Q0:
                return "".join(geometry.WORD_CHARS[i] for i in chain), True
        raise ResolutionError("atom embedding chain did not terminate")

    def word_digits(self, word):
        digits = geometry.word_from_str(word)
        for d in digits:
            if d not in self.alphabet:
                raise AddressError(f"digit {d} not in half-domain alphabet of l={self.level}")
        return digits

    def atom_index(self, j):
        """Position of the atom p_j in the atom tables (j runs over 1..atom_count)."""
        if not (1 <= j <= self.atom_count):
            raise AddressError(f"atom index {j} out of range 1..{self.atom_count}")
        return j - 1

    def word_weight(self, word):
        w = F(1)
        for d in self.word_digits(word):
            w *= self.weights[d]
        return w

    def covers(self, cyl, word, j):
        """Does cylinder F_cyl X contain the atom p_{j, word}?"""
        if len(cyl) <= len(word):
            return word.startswith(cyl)
        if not cyl.startswith(word):
            return False
        rest = cyl[len(word):]
        chain, terminal = self.atom_embed[j - 1]
        if rest.startswith(chain):
            tail = rest[len(chain):]
            zero = geometry.WORD_CHARS[self.alphabet[0]]
            return terminal and all(ch == zero for ch in tail)
        return chain.startswith(rest)


@lru_cache(maxsize=None)
def structure(level):
    return HalfStructure(level)


def antisymmetric_values(level):
    """Values of the antisymmetric harmonic function h_a (V_0 data (0,1,-1))
    at the V_1 points of the closed half domain, keyed by exact points."""
    st = structure(level)
    out = {}
    half = geometry.HalfDomain(level)
    for pt, v in st.ha_gamma1.items():
        p = (F(pt[0], level), F(pt[1], level))
        if geometry.classify_boundary(half, p) != geometry.OUTSIDE:
            out[p] = v
    return out


# the named V_1 points of the half domain as F_i q_c, given by (i, c): the
# points x, y, z of the closed-form extend step and the first atom p
_CRUCIAL = {
    3: {"x": (1, 2), "y": (1, 0), "z": (0, 1), "p": (3, 0)},
    2: {"z": (0, 1), "p": (1, 2)},
}


def crucial_points(level):
    """Named V_1 points of the half domain (x, y, z and the first atom p)."""
    if level not in _CRUCIAL:
        raise ResolutionError("named crucial points are defined for l in {2,3}")
    corners = gasket(level).cell_corners
    return {name: corners[i][c] for name, (i, c) in _CRUCIAL[level].items()}


def atom_point(level, word, j=1):
    st = structure(level)
    return geometry.apply_word(st.params, st.word_digits(word), st.atom_points[st.atom_index(j)])


def atom_mass(level, word, j=1):
    """mu({p_{j,w}}): the base atom mass scaled by the digit weights."""
    st = structure(level)
    return st.atom_base[st.atom_index(j)] * st.word_weight(word)


def residual_mass(level, depth):
    """Exact measure of all atoms with |w| >= depth ((5/7)^d for SG_3)."""
    if depth < 0:
        raise ContractViolation(f"depth must be >= 0, not {depth}")
    return sum(structure(level).weights.values()) ** depth


# ---------------------------------------------------------------------------
# boundary data


class HalfBoundaryData(CylinderData):
    """Boundary data for the half domain: value at q1 plus values at the
    countable atom set {p_{j,w}} of X.

    It combines explicit `atoms` {(word, j): v}, piecewise constants
    `cylinders` {word: v} (constant on F_w X), an optional
    `geometric_tail` (A, B, rho, start) for SG meaning f(p_k) = A + B rho^k
    for k >= start, and a `default` fallback.  Atom words and the tail's
    start, like cylinder words, hold at most MAX_RECURSION digits.
    """

    def __init__(self, level=3, q1=0, atoms=None, cylinders=None, default=None,
                 q0=None, geometric_tail=None):
        self.level = level
        self.st = structure(level)
        self.q1 = q1
        self.q0 = q0
        self.geometric_tail = geometric_tail
        self.atoms = {}
        for key, v in (atoms or {}).items():
            if isinstance(key, tuple):
                word, j = key
            else:
                word, j = key, 1
            check_depth("atom word length", len(word))
            self.st.word_digits(word)
            self.st.atom_index(j)
            self.atoms[(word, j)] = v
        super().__init__(cylinders, default)
        if geometric_tail is not None:
            if level != 2:
                raise ContractViolation("geometric tails are specific to the SG half domain")
            if self.cylinders:
                # atoms would read the tail and integrals the cylinders
                raise ContractViolation("a geometric tail must not be mixed with cylinders")
            check_depth("geometric tail start", geometric_tail[3])

    def alphabet(self, k):
        return self.st.alphabet

    # -- resolution ---------------------------------------------------------

    def atom(self, word, j=1):
        key = (word, j)
        if key in self.atoms:
            return self.atoms[key]
        if self.geometric_tail is not None:
            a, b, rho, start = self.geometric_tail
            k = len(word)
            if k >= start:
                return a + b * rho ** k
        best = None
        for cyl in self.cylinders:
            if self.st.covers(cyl, word, j) and (best is None or len(cyl) > len(best)):
                best = cyl
        if best is not None:
            return self.cylinders[best]
        if self.default is not None:
            return self.default
        raise ContractViolation(f"boundary data is not total: atom ({word!r}, {j})")

    def refined(self, word):
        # only atoms of the sub-copy's own measure break constancy; a shorter
        # atom embedded through this cylinder is the copy's accumulation
        # corner and carries no mass
        return super().refined(word) or any(w.startswith(word) for w, _ in self.atoms)

    def subtree(self, word):
        """The value of f on the cylinder F_word X if f is constant there,
        else None (also on an SG geometric tail with B != 0, and above its
        start, where explicit atoms may still differ)."""
        tail = self.geometric_tail
        if self.refined(word) or tail is not None and (tail[1] != 0 or len(word) < tail[3]):
            return None
        return self.constant(word, self.default if tail is None else tail[0])

    def finite(self):
        """False for an SG geometric tail with B != 0, which is constant on
        no cylinder."""
        tail = self.geometric_tail
        return tail is None or tail[1] == 0

    def data_values(self):
        vals = list(self.atoms.values()) + super().data_values()
        if self.geometric_tail is not None:
            a, b = self.geometric_tail[:2]
            vals.append(abs(a) + abs(b))
        return vals

    def shifted(self, digit, new_q1):
        """Data of the sub-problem on the copy F_digit(half domain)."""
        top = self.st.cylinder_top[digit]
        new_q0 = self.q0 if top is None else self.atom("", top + 1)
        kwargs = self.restrict(digit)
        ch = geometry.WORD_CHARS[digit]
        kwargs["atoms"] = {
            (w[1:], j): v for (w, j), v in self.atoms.items() if w.startswith(ch)
        }
        if self.geometric_tail is not None:
            a, b, rho, start = self.geometric_tail
            kwargs["geometric_tail"] = (a, b * rho, rho, max(start - 1, 0))
        return HalfBoundaryData(self.level, q1=new_q1, q0=new_q0, **kwargs)


def constant_data(level, c):
    return HalfBoundaryData(level, q1=c, q0=c, default=c)


# ---------------------------------------------------------------------------
# integration against the boundary measure


def integrate(f, scale_word=""):
    """The integral of f o F_tau against the atomic boundary measure,
    exactly: the atom sum ends where f is constant, or sums an SG geometric
    tail in closed form."""
    f.st.word_digits(scale_word)
    return cylinder.integrate(f.st, f, scale_word)


def normal_derivative_q1(f):
    """Normal derivative of the solution at q1: 3 (f(q1) - integral)."""
    return cylinder.normal_derivatives(f.st, f)[0]


# ---------------------------------------------------------------------------
# extension step


def extend_step_sg3(f):
    """Values (u(x), u(y), u(z)) at the three crucial V_1 vertices of the
    SG_3 half domain in terms of the boundary data: the paper's closed form
    of what `extend_step` solves."""
    if f.level != 3:
        raise ResolutionError("extend_step_sg3 needs SG_3 data")
    i0 = integrate(f, "0")
    i3 = integrate(f, "3")
    q1 = f.q1
    p = f.atom("", 1)
    x = F(4, 15) * q1 + F(1, 15) * p + F(1, 30) * i0 + F(19, 30) * i3
    y = F(1, 3) * q1 + F(1, 3) * p + F(1, 6) * i0 + F(1, 6) * i3
    z = F(1, 15) * q1 + F(4, 15) * p + F(19, 30) * i0 + F(1, 30) * i3
    return (x, y, z)


def extend_step_sg(f):
    """u(F_0 q_1) for the SG half domain."""
    if f.level != 2:
        raise ResolutionError("extend_step_sg needs SG data")
    i0 = integrate(f, "0")
    return F(1, 5) * f.q1 + F(1, 5) * f.atom("", 1) + F(3, 5) * i0


@lru_cache(maxsize=None)
def _contained_cells_level1(level):
    """Level-1 cells inside the closed left half: F_i q2 has x <= 1."""
    return tuple(i for i, cell in enumerate(gasket(level).cell_points) if cell[2][0] <= level)


def extend_step(f):
    """Values of the solution at the V_1 points inside the half domain,
    keyed by integer points at scale l in sorted order: the frame's level-1
    solve (`cylinder.Frame.values`) without q1 and the atoms."""
    params = f.st.params
    known = [(0, 0), *(params.cell_points[cell][2] for cell in params.atom_cells)]
    return dict(sorted((p, v) for p, v in f.st.values(f).items() if p not in known))


# ---------------------------------------------------------------------------
# recursive evaluation


def boundary_value_at(f, p):
    """Value of the boundary data at an exact point of {q1} union X."""
    if p == Q1:
        return f.q1
    s, [(_, x, y)] = geometry.scaled([p])
    return f.st.cut_values(f, [(x, y)], s)[0]


def evaluate(f, v):
    """Value at a vertex of the unique harmonic solution with data f.

    v is a VertexAddress or an exact point in the closed half domain.
    """
    return evaluate_many(f, [v])[0]


def evaluate_many(f, vertices):
    """Values at the vertices (as for `evaluate`) of the solution with data
    f, in order, all routed through the recursion at once."""
    return cylinder.evaluate(f.st, f, vertices)


# ---------------------------------------------------------------------------
# boundary energy form and domain energy


def energy_form_Q(f, depth):
    """Partial sum of the boundary energy form Q(f), including squared
    increments from levels |w| < depth to their children.  Words are
    visited in preorder; below a word where f is constant every increment
    is 0, so none is visited."""
    if depth < 0:
        raise ContractViolation(f"depth must be >= 0, not {depth}")
    st = f.st
    js = range(1, st.atom_count + 1)
    total = 0
    for j in js:
        total += (f.q1 - f.atom("", j)) ** 2
    rinv = 1 / st.r
    children = [geometry.WORD_CHARS[d] for d in reversed(st.alphabet)]
    stack = [""]
    while stack:
        child = stack.pop()
        if child:
            word = child[:-1]
            scale = rinv ** len(word)
            for j in js:
                for j2 in js:
                    total += scale * (f.atom(word, j) - f.atom(child, j2)) ** 2
        if len(child) < depth and f.subtree(child) is None:
            stack += [child + ch for ch in children]
    return total


def gauss_green_pairing(f, g, m):
    """E_{O_m}(u_f, u_g): the resistance pairing over the first m stages of
    the cylinder exhaustion of the half domain."""
    return cylinder.energy(f.st, f, g, stages=m)


def domain_energy(f, g=None):
    """Exact E_Omega(u_f, u_g) for piecewise-constant boundary data, summed
    over cylinder pieces with the constant-data remainder in closed form
    (the solution with data (a at q1, c on X) has energy 3 (a-c)^2)."""
    g = f if g is None else g
    if not (f.finite() and g.finite()):
        raise ContractViolation("energy needs data that is constant below some cylinder depth")
    return cylinder.energy(f.st, f, g)


# ---------------------------------------------------------------------------
# Dirichlet-to-Neumann correspondence on the SG half domain


DtnResult = namedtuple("DtnResult", ["terms", "partial_sums", "limit", "derivatives"])


def _check_q0_limit(f):
    """The stored q0 value must be the limit of the atom values f(p_k)."""
    if f.geometric_tail is not None:
        a, b, rho, _ = f.geometric_tail
        limit = a if abs(rho) < 1 or b == 0 else None
    else:
        depth = max((len(w) for (w, _) in f.atoms), default=0) + 1
        limit = f.subtree("0" * depth)
    if limit is None or limit != f.q0:
        raise ContractViolation(
            f"f(q0) = {f.q0} does not match the atom-value limit {limit}"
        )


def dirichlet_to_neumann_sg(f, kmax):
    """Weighted sums of outward normal derivatives at the SG atoms p_k.

    Returns the terms (3/5)^{k+1} d_n u(p_k), their partial sums, the
    closed-form limit (9/4) int f dmu - (3/4) f(q0) - (3/2) f(q1), and the
    raw derivatives.
    """
    if f.level != 2:
        raise ResolutionError("the Dirichlet-to-Neumann map is for the SG half domain")
    if f.q0 is None:
        raise ContractViolation("f must carry its value at the accumulation corner q0")
    if kmax < 0:
        raise ContractViolation(f"kmax must be >= 0, not {kmax}")
    _check_q0_limit(f)
    f.st.word_digits("0")
    ints = [cylinder.integrate(f.st, f, "0" * k) for k in range(kmax + 2)]
    a = [f.q1]
    data = f
    for _ in range(kmax + 1):
        a.append(extend_step_sg(data))
        data = data.shifted(0, a[-1])
    terms = []
    sums = []
    run = 0
    for k in range(kmax + 1):
        t = F(3, 2) * (a[k + 1] - a[k]) + F(9, 4) * (ints[k] - ints[k + 1])
        terms.append(t)
        run = run + t
        sums.append(run)
    limit = F(9, 4) * ints[0] - F(3, 4) * f.q0 - F(3, 2) * f.q1
    derivs = [t * F(5, 3) ** (k + 1) for k, t in enumerate(terms)]
    return DtnResult(terms, sums, limit, derivs)


def neumann_inverse_sg(etas):
    """Boundary data realizing prescribed derivative data on the SG half
    domain: etas = [eta_{-1}, eta_0, ..., eta_N] gives the unique f with
    f(q1) = 0, d_n u(q1) = eta_{-1} and d_n u(p_k) = (5/3)^{k+1} eta_k
    (eta_k = 0 beyond the list)."""
    etas = [F(e) for e in etas]
    if not etas:
        raise ContractViolation("need at least eta_{-1}")
    em1, tail = etas[0], etas[1:]
    n = len(tail)
    indexed = list(enumerate([em1] + tail, start=-1))
    a_val = -em1 - F(4, 3) * sum(tail)
    b_val = F(4, 3) * sum((F(5, 3) ** i) * e for i, e in indexed)
    atoms = {}
    for k in range(n):
        geom_part = sum((F(3, 5) ** (k - i)) * e for i, e in indexed if i <= k)
        atoms[("0" * k, 1)] = (
            -em1 - F(4, 3) * sum(tail[: k + 1]) + F(4, 3) * geom_part
            + F(1, 3) * tail[k]
        )
    return HalfBoundaryData(
        2, q1=F(0), q0=a_val, atoms=atoms,
        geometric_tail=(a_val, b_val, F(3, 5), n),
    )


def forward_derivatives_sg(f, kmax):
    """eta_{-1} and the normalized derivatives (3/5)^{k+1} d_n u(p_k): the
    forward direction of the Dirichlet-to-Neumann correspondence."""
    nd_q1 = normal_derivative_q1(f)
    res = dirichlet_to_neumann_sg(f, kmax)
    return nd_q1, res.terms
