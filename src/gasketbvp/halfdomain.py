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

from __future__ import annotations

import warnings
from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import islice, permutations

from . import cylinder, geometry, harmonic
from ._exact import solve
from .cylinder import DEFAULT_DEPTH, MAX_RECURSION, CylinderData
from .errors import AddressError, ContractViolation, ResolutionError
from .geometry import Q0, Q1, gasket

F = Fraction


# ---------------------------------------------------------------------------
# per-level structure


class HalfStructure:
    """Digit alphabet, measure weights and atom layout of one half domain."""

    def __init__(self, level):
        params = gasket(level)
        self.level = level
        self.params = params
        self.alphabet = params.half_alphabet          # map indices, top to bottom
        self.atom_count = len(params.atom_cells)      # floor(l/2)
        self.r = params.renorm_factor
        ha = geometry._gamma1_harmonic_values(params, (F(0), F(1), F(-1)))
        self.ha_gamma1 = ha
        # V_1 points: integer coordinates at scale l <-> exact coordinates
        self.exact_points = {
            (int(x), int(y)): (F(int(x), level), F(int(y), level)) for x, y in ha
        }
        self.int_points = {p: ip for ip, p in self.exact_points.items()}
        # digit weights mu_i = r^{-1} h_a(F_i q_1)
        self.weights = {}
        for i in self.alphabet:
            pt = self._map_point(i, 1)
            self.weights[i] = ha[pt] / self.r
        # atom base masses -(1/3) * right normal derivative of h_a at p_{j,<>}
        self.atom_points = []
        self.atom_base = []
        for j, cell in enumerate(params.atom_cells):
            vals = tuple(ha[self._map_point(cell, c)] for c in range(3))
            nd = harmonic.harmonic_normal_derivative(level, vals, 2, depth=1)
            self.atom_base.append(-nd / 3)
            self.atom_points.append(geometry.apply_word(params, (cell,), geometry.CORNERS[2]))
        total_weight = sum(self.weights.values())
        self.mass_consistent = sum(self.atom_base) == 1 - total_weight
        if not self.mass_consistent:
            warnings.warn(
                f"half-domain measure for l={level} does not sum to 1 exactly",
                stacklevel=2,
            )
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
            top = geometry.apply_word(params, (i,), Q0)
            if top == Q0:
                self.cylinder_top[i] = None  # the copy inherits f(q0)
            else:
                self.cylinder_top[i] = self.atom_points.index(top)
        self.digit_chars = {i: geometry.WORD_CHARS[i] for i in self.alphabet}
        self.frame = HalfFrame(self)  # the domain as a recursion frame

    def _map_point(self, cell, corner):
        return harmonic.subcell_corners(self.level)[cell][corner]

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


def crucial_points(level):
    """Named V_1 points of the half domain (x, y, z and the first atom p)."""
    params = gasket(level)
    if level == 3:
        return {
            "x": geometry.apply_word(params, (1,), geometry.CORNERS[2]),
            "y": geometry.apply_word(params, (1,), Q0),
            "z": geometry.apply_word(params, (0,), Q1),
            "p": geometry.apply_word(params, (3,), Q0),
        }
    if level == 2:
        return {
            "z": geometry.apply_word(params, (0,), Q1),
            "p": geometry.apply_word(params, (1,), geometry.CORNERS[2]),
        }
    raise ResolutionError("named crucial points are defined for l in {2,3}")


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

    Structured mode combines explicit `atoms` {(word, j): v}, piecewise
    constants `cylinders` {word: v} (constant on F_w X), an optional
    `geometric_tail` (A, B, rho, start) for SG meaning f(p_k) = A + B rho^k
    for k >= start, and a `default` fallback.  Alternatively a total
    callback `fn(word, j)` may be given (exclusively).
    """

    def __init__(self, level=3, q1=0, atoms=None, cylinders=None, default=None,
                 q0=None, fn=None, sup_bound=None, geometric_tail=None):
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
            self.st.word_digits(word)
            self.st.atom_index(j)
            self.atoms[(word, j)] = v
        if fn is not None and self.atoms:
            raise ContractViolation("callback data must not be mixed with structured data")
        super().__init__(cylinders, default, fn, sup_bound)
        if geometric_tail is not None and level != 2:
            raise ContractViolation("geometric tails are specific to the SG half domain")
        if geometric_tail is not None and self.cylinders:
            # atoms would read the tail and integrals the cylinders
            raise ContractViolation("a geometric tail must not be mixed with cylinders")

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
        if self.fn is not None:
            return self.fn(word, j)
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
        tail = self.geometric_tail
        return super().finite() and (tail is None or tail[1] == 0)

    def truncated(self, word):
        # a callback gives atom values, not cylinder means
        return 0

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
        if self.fn is None:
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


def integrate(f, scale_word="", max_depth=DEFAULT_DEPTH):
    """Integral of f o F_tau against the atomic boundary measure.

    Exact (zero tail bound) whenever the data resolves to piecewise
    constants; otherwise the truncated atom sum with the geometric tail
    bound (sum of weights)^depth * sup|f|.
    """
    f.st.word_digits(scale_word)
    return cylinder.integrate(f.st.frame, f, scale_word, max_depth)


def normal_derivative_q1(f):
    """Normal derivative of the solution at q1: 3 f(q1) - 3 * integral."""
    return 3 * f.q1 - 3 * integrate(f).value


# ---------------------------------------------------------------------------
# extension step


def extend_step_sg3(f):
    """Values (u(x), u(y), u(z)) at the three crucial V_1 vertices of the
    SG_3 half domain in terms of the boundary data."""
    if f.level != 3:
        raise ResolutionError("extend_step_sg3 needs SG_3 data")
    i0 = integrate(f, "0").value
    i3 = integrate(f, "3").value
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
    i0 = integrate(f, "0").value
    return F(1, 5) * f.q1 + F(1, 5) * f.atom("", 1) + F(3, 5) * i0


@lru_cache(maxsize=None)
def _contained_cells_level1(level):
    """Level-1 cells inside the closed left half: F_i q2 has x <= 1."""
    translations = gasket(level).int_translations
    return tuple(i for i, tr in enumerate(translations) if int(tr[0]) + 2 <= level)


@lru_cache(maxsize=None)
def _crucial_keys(level):
    """Integer points (scale l) of the closed-form values: x, y, z on SG_3,
    z on SG."""
    cp = crucial_points(level)
    return tuple(structure(level).int_points[cp[k]] for k in ("xyz" if level == 3 else "z"))


def extend_step(f):
    """Values of the solution at all of V_1 in the open half domain, keyed
    by integer points at scale l.  Closed forms for l in {2,3}; otherwise
    the level-1 matching system is assembled and solved exactly."""
    level = f.level
    if level == 3:
        return dict(zip(_crucial_keys(3), extend_step_sg3(f)))
    if level == 2:
        return {_crucial_keys(2)[0]: extend_step_sg(f)}
    return _extend_step_system(f)


def _extend_step_system(f):
    st = f.st
    corners = harmonic.subcell_corners(f.level)
    cells = [corners[i] for i in _contained_cells_level1(f.level)]
    boundary = {(0, 0): f.q1}
    for j, p in enumerate(st.atom_points):
        boundary[st.int_points[p]] = f.atom("", j + 1)
    rows, rhs = defaultdict(dict), defaultdict(F)
    for cs in cells:
        for x, y in permutations(cs, 2):
            if x in boundary:
                continue
            row = rows[x]
            row[x] = row.get(x, 0) + 1
            if y in boundary:
                rhs[x] += boundary[y]
            else:
                row[y] = row.get(y, 0) - 1
    for i in st.alphabet:
        p = st._map_point(i, 1)
        rows[p][p] += 3
        rhs[p] += 3 * integrate(f, geometry.WORD_CHARS[i]).value
    return dict(sorted(solve(rows, rhs).items()))


# ---------------------------------------------------------------------------
# recursive evaluation


def _atom_word_of_point(st, p):
    """Word and index of the atom at an exact point on the cut line."""
    word = []
    for _ in range(MAX_RECURSION):
        for j, ap in enumerate(st.atom_points):
            if p == ap:
                return "".join(geometry.WORD_CHARS[d] for d in word), j + 1
        if p == Q0:
            return None, None  # accumulation corner
        cells = [
            i for i in geometry.cells_containing(st.params, p) if i in st.alphabet
        ]
        if not cells:
            raise AddressError(f"{p} is not a vertex on the Cantor boundary")
        word.append(cells[0])
        p = st.params.unapply_map(cells[0], p)
    raise AddressError("cut-line point does not resolve to an atom")


def boundary_value_at(f, p):
    """Value of the boundary data at an exact point of {q1} union X."""
    if p == Q1:
        return f.q1
    word, j = _atom_word_of_point(f.st, p)
    if word is None:
        if f.q0 is None:
            raise ContractViolation("data has no value at the accumulation corner q0")
        return f.q0
    return f.atom(word, j)


class HalfFrame(cylinder.Frame):
    """The half domain of SG_l as a recursion frame; every sub-copy F_d of
    it is again a half domain, so shifting returns the same frame."""

    name = "half domain"
    slots = (1,)

    def __init__(self, st):
        self.st = st
        self.level = st.level
        self.params = st.params
        self.ratio = 1 / st.r
        self._children = [(i, st.weights[i], self) for i in st.alphabet]

    def terminal(self, f, p):
        if p == Q1:
            return f.q1
        if p[0] == 1:
            return boundary_value_at(f, p)
        return None

    def values(self, f):
        exact = self.st.exact_points
        values = {exact[ip]: v for ip, v in extend_step(f).items()}
        values[Q1] = f.q1
        for j, ap in enumerate(self.st.atom_points):
            values[ap] = f.atom("", j + 1)
        return values

    def full_cells(self):
        return _contained_cells_level1(self.level)

    def copies(self):
        return self.st.alphabet

    def shift(self, d):
        return self

    # the measure: fixed digit weights, atom base masses at every node
    def children(self):
        return self._children

    def own(self, f, word):
        return sum(base * f.atom(word, j) for j, base in enumerate(self.st.atom_base, start=1))

    def closed(self, f, word):
        """Constant data, or the SG geometric tail A + B rho^k summed in
        closed form over the atoms below word."""
        tail = f.geometric_tail
        if tail is None or tail[1] == 0 or len(word) < tail[3] or f.refined(word):
            return f.subtree(word)
        a, b, rho, _ = tail
        mu = self.st.weights[self.st.alphabet[0]]
        return a + b * rho ** len(word) * self.st.atom_base[0] / (1 - rho * mu)

    # the energy: constant data c gives 3 (f(q1) - c)^2
    def coefficient(self):
        return 3

    def corner(self, f):
        return f.q1


def evaluate(f, v):
    """Value at a vertex of the unique harmonic solution with data f.

    v is a VertexAddress or an exact point in the closed half domain.
    """
    return evaluate_many(f, [v])[0]


def evaluate_many(f, vertices):
    """Values at the vertices (as for `evaluate`) of the solution with data
    f, in order, all routed through the recursion at once."""
    half = geometry.HalfDomain(f.level)
    points = [geometry.exact_point(f.st.params, v) for v in vertices]
    for p in points:
        if geometry.classify_boundary(half, p) == geometry.OUTSIDE:
            raise ResolutionError(f"{p} is outside the closed half domain")
    return cylinder.route(f.st.frame, f, points)


# ---------------------------------------------------------------------------
# boundary energy form and domain energy


def energy_form_Q(f, depth):
    """Partial sum of the boundary energy form Q(f), including squared
    increments from levels |w| < depth to their children."""
    if depth < 0:
        raise ContractViolation(f"depth must be >= 0, not {depth}")
    st = f.st
    js = range(1, st.atom_count + 1)
    total = 0
    for j in js:
        total += (f.q1 - f.atom("", j)) ** 2
    rinv = 1 / st.r
    for child in islice(cylinder.words(lambda k: st.alphabet, depth), 1, None):
        word = child[:-1]
        scale = rinv ** len(word)
        for j in js:
            for j2 in js:
                total += scale * (f.atom(word, j) - f.atom(child, j2)) ** 2
    return total


def gauss_green_pairing(f, g, m):
    """E_{O_m}(u_f, u_g): the resistance pairing over the first m stages of
    the cylinder exhaustion of the half domain."""
    return cylinder.energy(f.st.frame, f, g, stages=m)


def domain_energy(f, g=None):
    """Exact E_Omega(u_f, u_g) for piecewise-constant boundary data, summed
    over cylinder pieces with the constant-data remainder in closed form
    (the solution with data (a at q1, c on X) has energy 3 (a-c)^2)."""
    return cylinder.energy(f.st.frame, f, f if g is None else g)


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
    if f.fn is not None:
        raise ContractViolation("callback data: continuity at q0 cannot be certified")
    if kmax < 0:
        raise ContractViolation(f"kmax must be >= 0, not {kmax}")
    _check_q0_limit(f)
    ints = [integrate(f, "0" * k).value for k in range(kmax + 2)]
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
