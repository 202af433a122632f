"""Lower domains of SG cut by a horizontal line at height 1 - lambda.

lambda in [0,1) is encoded by its binary digits e_k (no infinite run of
1's, so dyadic rationals terminate and the recursion bottoms out on whole
gasket cells).  The crucial coefficients are eta_1 = d_n h_1(q1) and
eta_2 = -d_n h_1(q2); they obey the one-digit recursions T_0/T_1 and feed
the 2x2 transfer matrices M_w, the boundary measure pair (mu_1, mu_2),
the normal derivative formulas and the extension step.  For dyadic
lambda every quantity is an exact rational.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from . import cylinder, geometry
from .cylinder import CylinderData
from .errors import AccuracyError, AddressError, ContractViolation, ResolutionError
from .geometry import gasket

F = Fraction

EtaPair = namedtuple("EtaPair", ["eta1", "eta2", "depth", "err", "exact"])


class BinaryLambda:
    """Binary expansion of lambda in [0,1) with shift S and dyadic depth."""

    def __init__(self, value):
        value = F(value)
        if not (0 <= value < 1):
            raise ResolutionError("lambda must lie in [0, 1)")
        self.value = value
        self._shifted = None

    @classmethod
    def parse(cls, text):
        """Accepts "5/8" style fractions or bit programs "bits:101" /
        "bits:101periodic:10" (prefix bits, then a repeating block)."""
        text = text.strip()
        if text.startswith("bits:"):
            body = text[len("bits:"):]
            periodic = ""
            if "periodic:" in body:
                body, periodic = body.split("periodic:")
            if not all(c in "01" for c in body + periodic):
                raise ResolutionError("bit program must be over {0,1}")
            val = F(int(body, 2) if body else 0, 2 ** len(body))
            if periodic:
                if all(c == "1" for c in periodic):
                    raise ResolutionError("infinite runs of 1 are forbidden")
                block = F(int(periodic, 2), 2 ** len(periodic))
                val += F(1, 2 ** len(body)) * block / (1 - F(1, 2 ** len(periodic)))
            return cls(val)
        return cls(F(text))

    def digit(self, k):
        """e_k(lambda), 1-indexed."""
        return (self.value.numerator * 2 ** k // self.value.denominator) % 2

    @property
    def dyadic(self):
        d = self.value.denominator
        return d & (d - 1) == 0

    @property
    def dyadic_depth(self):
        """d(lambda): least d with lambda * 2^d integral (dyadic only)."""
        if not self.dyadic:
            raise ResolutionError("d(lambda) is defined for dyadic lambda")
        return self.value.denominator.bit_length() - 1

    def shift(self):
        """S lambda = fractional part of 2 lambda, made once."""
        if self._shifted is None:
            self._shifted = BinaryLambda(2 * self.value - self.digit(1))
        return self._shifted

    def cut_height(self):
        """Global y coordinate of the cut line."""
        return 2 - 2 * self.value

    def __repr__(self):
        return f"BinaryLambda({self.value})"


# ---------------------------------------------------------------------------
# the (eta_1, eta_2) recursion


def t0(x, y):
    s = F(5, 6) if isinstance(x, F) and isinstance(y, F) else 5 / 6
    a = s * (3 + 2 * x + 2 * y) / (2 + x + y)
    b = 3 * s * (x - y) / (3 + 2 * x - 2 * y)
    return (a + b, a - b)


def t1(x, y):
    if x == 0:
        raise ContractViolation("T_1 needs eta_1 > 0")
    if isinstance(x, F) and isinstance(y, F):
        return (F(5, 3) * (x - y * y / (2 * x)), F(5, 6) * y * y / x)
    return (5 / 3 * (x - y * y / (2 * x)), 5 / 6 * y * y / x)


def apply_t(e, x, y):
    return t0(x, y) if e == 0 else t1(x, y)


def composite_eta(lam, depth, seed=(2, 1), bits=None):
    """T_{e_1} o ... o T_{e_depth}(seed), innermost map applied first; given
    bits, None once an exact numerator or denominator passes that length."""
    x, y = seed
    for k in range(depth, 0, -1):
        x, y = apply_t(lam.digit(k), x, y)
        if bits and max(x.numerator, x.denominator, y.numerator, y.denominator).bit_length() > bits:
            return None
    return (x, y)


def error_bound(lam, depth, seed=(2, 1)):
    """Certified bound 8 (3/5)^(m-2j) (1/(c1-c2)+1) with the least j such
    that 1 - lambda > 2^-j."""
    c1, c2 = seed
    if not c1 > c2 > 0:
        raise ContractViolation("seed must satisfy c1 > c2 > 0")
    gap = 1 - lam.value
    j = 1
    while F(1, 2 ** j) >= gap:
        j += 1
        if j > 64:
            raise AccuracyError("lambda is too close to 1 for a certified bound")
    expo = depth - 2 * j
    return 8.0 * float(F(3, 5)) ** expo * (1.0 / float(c1 - c2) + 1.0)


# under 2**14284 < 10**4300, the interpreter prints every exact eta integer
EXACT_ETA_BITS = 14284


def eta_pair(lam, tol=1e-12, max_depth=400):
    """(eta_1, eta_2)(lambda) by composing the one-digit maps from the seed
    (2, 1).

    Dyadic lambda short-circuits at d(lambda) with exact rational output
    while the exact numbers stay within EXACT_ETA_BITS; otherwise the depth
    is chosen from the certified error bound.
    """
    exact = lam.dyadic and composite_eta(lam, lam.dyadic_depth, (F(2), F(1)), EXACT_ETA_BITS)
    if exact:
        pair = EtaPair(*exact, lam.dyadic_depth, F(0), True)
    else:
        depth = 1
        while depth <= max_depth and error_bound(lam, depth) > tol:
            depth += 1
        if depth > max_depth:
            raise AccuracyError(f"certified depth for tol {tol:g} exceeds {max_depth}")
        x, y = composite_eta(lam, depth, (2.0, 1.0))
        pair = EtaPair(x, y, depth, error_bound(lam, depth), False)
    _check_eta_invariants(pair)
    return pair


def _check_eta_invariants(pair):
    tol = 0 if pair.exact else max(1e-9, 2 * pair.err)
    if not (pair.eta1 >= 2 - tol and -tol <= pair.eta2 <= 1 + tol
            and pair.eta1 + pair.eta2 >= 3 - tol):
        raise ContractViolation(f"eta invariants violated: {pair}")


_ETA_CACHE = {}


def etas(lam, tol=1e-13):
    key = lam.value
    hit = _ETA_CACHE.get(key)
    if hit is None or (not hit.exact and hit.err > tol):
        hit = eta_pair(lam, tol=tol)
        _ETA_CACHE[key] = hit
    return hit


# ---------------------------------------------------------------------------
# closed forms (all-zero and all-one digit prefixes)


def _prefix_etas(lam, m, digit):
    """etas(S^m lambda), once e_1 = ... = e_m = digit is checked."""
    if any(lam.digit(k) != digit for k in range(1, m + 1)):
        raise ResolutionError(
            f"closed form needs an all-{('zero', 'one')[digit]} digit prefix")
    for _ in range(m):
        lam = lam.shift()
    return etas(lam)


def closed_form_zero_prefix(lam, m):
    """(eta1+eta2, eta1-eta2)(lambda) from (eta1, eta2)(S^m lambda) when
    e_1 = ... = e_m = 0."""
    em = _prefix_etas(lam, m, 0)
    s_m = em.eta1 + em.eta2
    d_m = em.eta1 - em.eta2
    p15 = 15 ** m
    s = 3 + 14 * (s_m - 3) / (3 * (p15 - 1) * (s_m - 3) + 14 * p15)
    frac35 = F(3, 5) ** m if em.exact else float(F(3, 5)) ** m
    d = d_m / ((1 - frac35) * d_m + frac35)
    return s, d


def closed_form_zero_matrix(lam, m):
    """M_{0^m}: symmetric with rows summing to 1; the antisymmetric
    eigenvalue in closed form."""
    em = _prefix_etas(lam, m, 0)
    s_m = em.eta1 + em.eta2
    p15, p5 = 15 ** m, 5 ** m
    amb = 14 * p5 * s_m / ((9 * p15 + 5) * s_m + 15 * (p15 - 1))
    a = (1 + amb) / 2
    b = (1 - amb) / 2
    return ((a, b), (b, a))


def closed_form_ones(lam, m):
    """(eta_1, eta_2)(lambda) via the Chebyshev-like variable x when
    e_1 = ... = e_m = 1: eta1(S^m)/eta2(S^m) = (x + 1/x)/2."""
    em = _prefix_etas(lam, m, 1)
    rho = float(em.eta1) / float(em.eta2)
    x = rho - (rho * rho - 1) ** 0.5  # in (0,1)
    p = float(F(5, 3)) ** m
    two_m = 2 ** m
    xm, xmi = x ** two_m, x ** (-two_m)
    eta2 = p * (x - 1 / x) / (xm - xmi) * float(em.eta2)
    eta1 = p * (x - 1 / x) / (x + 1 / x) * (xm + xmi) / (xm - xmi) * float(em.eta1)
    return eta1, eta2


def closed_form_ones_matrix(lam, m, word):
    """M_w for an all-one prefix via powers of x; w over {1,2}^m."""
    em = _prefix_etas(lam, m, 1)
    if len(word) != m or any(ch not in "12" for ch in word):
        raise AddressError("word must be over {1,2} with length m")
    rho = float(em.eta1) / float(em.eta2)
    x = rho - (rho * rho - 1) ** 0.5
    j = sum((int(ch) - 1) * 2 ** (m - k) for k, ch in enumerate(word, start=1))
    two_m = 2 ** m
    a = ((x ** j, -(x ** (two_m - j))), (-(x ** (j + 1)), x ** (two_m - j - 1)))
    det = 1 - x ** (2 * two_m)
    binv = ((1 / det, x ** two_m / det), (x ** two_m / det, 1 / det))
    return _mul2x2(a, binv)


def _mul2x2(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


# ---------------------------------------------------------------------------
# transfer matrices and boundary measures


def single_matrix(lam, digit):
    """One-digit derivative transfer matrix M_i, in terms of eta(S lambda)."""
    em = etas(lam.shift())
    e1, e2 = em.eta1, em.eta2
    if digit == 0:
        if lam.digit(1) != 0:
            raise AddressError("digit 0 requires e_1(lambda) = 0")
        s = e1 + e2
        den = 6 + 4 * s
        return (((3 + 3 * s) / den, (3 + s) / den), ((3 + s) / den, (3 + 3 * s) / den))
    if lam.digit(1) != 1:
        raise AddressError("digits 1,2 require e_1(lambda) = 1")
    h = e2 / (2 * e1)
    if digit == 1:
        return ((1, 0), (-h, h))
    if digit == 2:
        return ((h, -h), (0, 1))
    raise AddressError(f"invalid lower-domain digit {digit}")


def word_alphabet(lam, k):
    """Admissible digits at position k of a word: {0} or {1,2}."""
    return (0,) if lam.digit(k) == 0 else (1, 2)


def transfer_matrix(lam, word):
    """M_w = M_{w_m}^{S^(m-1) lambda} ... M_{w_1}^lambda: the deepest-shift
    matrix sits leftmost, so each appended digit multiplies on the left."""
    m = ((1, 0), (0, 1))
    cur = lam
    for k, d in enumerate(geometry.word_from_str(word), start=1):
        if d not in word_alphabet(lam, k):
            raise AddressError(f"digit {d} at position {k} conflicts with lambda")
        m = _mul2x2(single_matrix(cur, d), m)
        cur = cur.shift()
    return m


def _mass(mw, col, den):
    """[1 1] M_w col / den: the measure of X_w from its transfer matrix."""
    return (mw[0][0] * col[0] + mw[0][1] * col[1]
            + mw[1][0] * col[0] + mw[1][1] * col[1]) / den


def lower_measures(lam, word):
    """(mu_1(X_w), mu_2(X_w)) via the transfer matrix pairing."""
    mw = transfer_matrix(lam, word)
    return tuple(_mass(mw, *root.column) for root in LowerFrame(lam).measures)


# ---------------------------------------------------------------------------
# boundary data


class LowerBoundaryData(CylinderData):
    """Values at q1, q2 plus data on the cut-line boundary set X.

    cylinders maps words over the per-position alphabets ({0} at positions
    where e_k = 0, {1,2} where e_k = 1) to constant values on X_w; for
    dyadic lambda the depth-d(lambda) cylinders are single points (the
    finite boundary atoms)."""

    def __init__(self, lam, q1=0, q2=0, cylinders=None, default=None):
        self.lam = lam
        self.q1 = q1
        self.q2 = q2
        super().__init__(cylinders, default)

    def alphabet(self, k):
        return word_alphabet(self.lam, k)


def constant_lower(lam, c):
    return LowerBoundaryData(lam, q1=c, q2=c, default=c)


def integrate_lower(f, measure=1):
    """The integral of f over X against mu_1 or mu_2 of f's own lambda."""
    return cylinder.integrate(LowerFrame(f.lam).measures[measure - 1], f)


def normal_derivatives_lower(lam, f):
    """(d_n u(q1), d_n u(q2)) from the boundary data via the measure pair."""
    cylinder.check_lam(lam, f)
    return cylinder.normal_derivatives(LowerFrame(lam), f)


def domain_energy_lower(lam, f, g=None):
    """Exact E(u_f, u_g) for dyadic lambda, summed over cylinder pieces with
    the constant-data remainder in closed form (the solution with data a at
    q1, b at q2 and c on X has energy (eta1 - eta2)((a-c)^2 + (b-c)^2) +
    eta2 (a-b)^2); floats through eta for other lambda."""
    g = f if g is None else g
    cylinder.check_lam(lam, f, g)
    return cylinder.energy(LowerFrame(lam), f, g)


# ---------------------------------------------------------------------------
# extension step and evaluation


def extend_step_lower(lam, f):
    """Values of the solution on V_1 inside the lower domain, keyed by
    exact global points: the frame's level-1 solve (`cylinder.Frame.values`)
    without the corners q1 and q2."""
    values = LowerFrame(lam).values(f)
    del values[0, 0], values[4, 0]
    return {(F(x, 2), F(y, 2)): v for (x, y), v in values.items()}


def boundary_value_at_lower(lam, f, p):
    """Data value at an exact point of the cut-line boundary set."""
    cylinder.check_lam(lam, f)
    s, [(_, x, y)] = geometry.scaled([p])
    return LowerFrame(lam).cut_values(f, [(x, y)], s)[0]


class LowerFrame(cylinder.Frame):
    """The lower domain of SG for one lambda as a recursion frame.  Its form
    is its derivative pair: the link eta_2 and the grounding eta_1 - eta_2
    at q1 and q2 against mu_1 and mu_2.  At lambda = 0 the domain is the
    whole gasket and X the point q0: (eta_1, eta_2) = (2, 1) and both
    integrals f(q0), so the form is the cell's three edges to q0, and the
    V_1 values are the cell extension of (f(q0), q1, q2)."""

    name = "lower domain"
    level = 2
    slots = (1, 2)

    ratio = cached_property(lambda self: 1 / geometry.renormalization_factor(2))

    def __init__(self, lam, column=None, matrix=((1, 0), (0, 1))):
        self.lam = lam
        self.params = gasket(2)
        # measure state: (column, denominator) of mu_i at the root lambda,
        # and M_w of the word leading to this node
        self.column = column
        self.matrix = matrix

    @cached_property
    def domain(self):
        return geometry.LowerDomain(cut_y=self.lam.cut_height())

    def corner_values(self, f):
        return (f.q1, f.q2)

    @cached_property
    def form(self):
        em = etas(self.lam)
        return em.eta2, (em.eta1 - em.eta2,) * 2

    @cached_property
    def measures(self):
        # the columns (eta1, -eta2) of mu_1 and (-eta2, eta1) of mu_2 over eta1 - eta2
        em = etas(self.lam)
        cols = (em.eta1, -em.eta2), (-em.eta2, em.eta1)
        return tuple(LowerFrame(self.lam, (col, em.eta1 - em.eta2)) for col in cols)

    def full_cells(self):
        return (1, 2) if self.lam.digit(1) == 0 else ()

    def copies(self):
        return word_alphabet(self.lam, 1)

    def shift(self, d):
        return self._child

    _child = cached_property(lambda self: LowerFrame(self.lam.shift()))

    @cached_property
    def mass(self):
        return _mass(self.matrix, *self.column)

    def closed(self, f, word):
        value = f.subtree(word)
        return None if value is None else value * self.mass

    def children(self):
        lam, child = self.lam, self.lam.shift()
        return [
            (d, 1, LowerFrame(child, self.column, _mul2x2(single_matrix(lam, d), self.matrix)))
            for d in word_alphabet(lam, 1)
        ]


def evaluate_lower(lam, f, v):
    """Value of the harmonic solution at a vertex of the closed domain."""
    return evaluate_lower_many(lam, f, [v])[0]


def evaluate_lower_many(lam, f, vertices):
    """Values at the vertices (as for `evaluate_lower`), in order, all routed
    through the recursion at once."""
    cylinder.check_lam(lam, f)
    return cylinder.evaluate(LowerFrame(lam), f, vertices)


def gauss_green_telescope(lam, hq1, hq2, m):
    """Sum over W~_m of the derivative pairs of h = hq1 h_1 + hq2 h_2; the
    localized Gauss-Green identity makes it equal the level-0 pair sum
    for every m."""
    base = cylinder.normal_derivatives(LowerFrame(lam), LowerBoundaryData(lam, hq1, hq2, default=0))

    total = 0
    per_word = []
    for w in cylinder.words(lambda k: word_alphabet(lam, k), m):
        if len(w) < m:
            continue
        mw = transfer_matrix(lam, w)
        d1 = mw[0][0] * base[0] + mw[0][1] * base[1]
        d2 = mw[1][0] * base[0] + mw[1][1] * base[1]
        per_word.append((w, d1 + d2))
        total += d1 + d2
    return total, base[0] + base[1], per_word
