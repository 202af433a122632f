"""Upper domains of SG_3 cut by a horizontal line at height 1 - lambda.

lambda in (0,1] is encoded by its triadic expansion sum iota_k 3^(-m_k)
with iota_k in {1,2}; triadic rationals use the non-terminating all-2 tail
so the domain recursion never bottoms out.  The crucial coefficient is
alpha(lambda) = h_0(p_4), obtained as the limit of composed one-digit
contractions; eta(lambda) = 2 (15/7)^(m_1) (1 - alpha) is the normal
derivative of h_0 at the top corner and drives the boundary measure, the
extension step, the Haar basis and the energy estimates.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import cylinder, geometry
from .cylinder import DEFAULT_DEPTH, CylinderData
from .errors import AccuracyError, AddressError, ContractViolation, ResolutionError
from .geometry import Q0, gasket

F = Fraction

RATIO = F(15, 7)                    # r^-1 of SG_3
ALPHA_MAX = 0.4415378110            # just above alpha(1) = (75 - sqrt(2353))/60

EtaAlpha = namedtuple("EtaAlpha", ["alpha", "eta", "depth", "err"])


class TriadicLambda:
    """Triadic expansion of lambda in (0,1] with shift R and dilation.

    Backed by an exact Fraction whenever possible (plain rationals and
    digit programs with periodic tails); a raw digit callback pair_fn(k)
    -> (m_k, iota_k) is accepted for eta/measure work but cannot support
    geometric routing.
    """

    def __init__(self, value=None, pair_fn=None):
        if value is not None:
            value = F(value)
            if not (0 < value <= 1):
                raise ResolutionError("lambda must lie in (0, 1]")
        elif pair_fn is None:
            raise ResolutionError("need a value or a digit callback")
        self.value = value
        self.pair_fn = pair_fn
        self._pairs = []
        self._shifted = None

    @classmethod
    def parse(cls, text):
        """Accepts "2/3" style fractions or digit programs like
        "digits:(1,1)(3,2)periodic:(2,2)" ((m, iota) prefix pairs, then
        repeating (gap, iota) increments)."""
        text = text.strip()
        if text.startswith("digits:"):
            body = text[len("digits:"):]
            periodic = None
            if "periodic:" in body:
                body, tail = body.split("periodic:")
                periodic = _parse_pairs(tail)
            prefix = _parse_pairs(body)
            return cls(value=_program_value(prefix, periodic))
        return cls(value=F(text))

    def pair(self, k):
        """(m_k, iota_k), 1-indexed."""
        if k < 1:
            raise AddressError("digit index is 1-based")
        while len(self._pairs) < k:
            self._pairs.append(self._next_pair())
        return self._pairs[k - 1]

    def _next_pair(self):
        n = len(self._pairs)
        if self.value is not None:
            m = self._pairs[n - 1][0] if n else 0
            x = self._rest if n else self.value
            while True:
                m += 1
                d = -((-3 * x.numerator) // x.denominator) - 1  # ceil(3x) - 1
                x = 3 * x - d
                if d:
                    self._rest = x
                    return (m, int(d))
        return self.pair_fn(n + 1)

    @property
    def m1(self):
        return self.pair(1)[0]

    @property
    def iota1(self):
        return self.pair(1)[1]

    def gap(self, k):
        """m_{k+1} - m_k (with m_0 = 0)."""
        prev = 0 if k == 0 else self.pair(k)[0]
        return self.pair(k + 1)[0] - prev

    def shift(self):
        """R lambda: drop the first nonzero digit and rescale (made once,
        since every recursion over words shifts the same chain)."""
        if self._shifted is None:
            m1, i1 = self.pair(1)
            if self.value is not None:
                self._shifted = TriadicLambda(value=self.value * 3 ** m1 - i1)
            else:
                fn = self.pair_fn
                self._shifted = TriadicLambda(pair_fn=lambda k: _shift_pair(fn, m1, k))
        return self._shifted

    def dilate(self):
        """3 lambda, defined when m_1 > 1 (strips one leading zero digit)."""
        if self.m1 <= 1:
            raise ResolutionError("dilate needs m_1 > 1")
        if self.value is not None:
            return TriadicLambda(value=3 * self.value)
        fn = self.pair_fn
        return TriadicLambda(pair_fn=lambda k: _dilate_pair(fn, k))

    def cut_height(self):
        """Global y coordinate of the cut line (the triangle has height 2)."""
        if self.value is None:
            raise ResolutionError("geometric routing needs an exact lambda value")
        return 2 - 2 * self.value

    def key(self):
        return self.value if self.value is not None else id(self)

    def __repr__(self):
        if self.value is not None:
            return f"TriadicLambda({self.value})"
        return "TriadicLambda(<callback>)"


def _shift_pair(fn, m1, k):
    m, i = fn(k + 1)
    return (m - m1, i)


def _dilate_pair(fn, k):
    m, i = fn(k)
    return (m - 1, i)


def _parse_pairs(text):
    text = text.strip()
    if not text:
        return []
    if not (text.startswith("(") and text.endswith(")")):
        raise ResolutionError(f"malformed digit program {text!r}")
    out = []
    for chunk in text[1:-1].split(")("):
        a, b = chunk.split(",")
        out.append((int(a), int(b)))
    return out


def _program_value(prefix, periodic):
    val = F(0)
    m_last = 0
    for m, i in prefix:
        if m <= m_last or i not in (1, 2):
            raise ResolutionError("digit program must have increasing m and iota in {1,2}")
        val += F(i, 3 ** m)
        m_last = m
    if periodic:
        gaps = [g for g, _ in periodic]
        if any(g < 1 for g in gaps) or any(i not in (1, 2) for _, i in periodic):
            raise ResolutionError("periodic block needs gaps >= 1 and iota in {1,2}")
        total_gap = sum(gaps)
        block = F(0)
        g_acc = 0
        for g, i in periodic:
            g_acc += g
            block += F(i, 3 ** g_acc)
        val += F(1, 3 ** m_last) * block / (1 - F(1, 3 ** total_gap))
    if not (0 < val <= 1):
        raise ResolutionError("digit program does not encode lambda in (0,1]")
    return val


# ---------------------------------------------------------------------------
# the alpha/eta fixed point


def _tmap(iota, gap, x):
    c = float(RATIO) ** gap
    e = c * (1.0 - x)
    if iota == 1:
        return 1.0 / (1.0 + 2.0 * e)
    return (3.0 + 6.0 * e + 2.0 * e * e) / (3.0 + 15.0 * e + 6.0 * e * e)


def _composite(lam, depth, seed):
    x = seed
    for k in range(depth, 0, -1):
        x = _tmap(lam.pair(k)[1], lam.gap(k), x)
    return x


_ETA_CACHE = {}


def eta_alpha(lam, tol=1e-12, max_depth=400):
    """alpha(lambda) with a certified bracket, plus eta(lambda).

    The one-digit maps are monotone increasing on [0, alpha(1)], so
    composing from seed 0 and from seed alpha(1)+ brackets the limit; the
    reported err is the bracket width at the final depth.
    """
    key = lam.key()
    cached = _ETA_CACHE.get(key)
    if cached is not None and cached.err <= tol:
        return cached
    depth = 8
    result = None
    while depth <= max_depth:
        lo = _composite(lam, depth, 0.0)
        hi = _composite(lam, depth, ALPHA_MAX)
        err = hi - lo
        result = EtaAlpha(
            alpha=lo,
            eta=2.0 * float(RATIO) ** lam.m1 * (1.0 - lo),
            depth=depth,
            err=err,
        )
        if err <= tol:
            break
        depth *= 2
    if result.err > tol:
        raise AccuracyError(
            f"alpha bracket {result.err:g} did not reach {tol:g} within depth {max_depth}"
        )
    if isinstance(key, F):
        _ETA_CACHE[key] = result
    return result


def eta_of(lam, tol=1e-13):
    return eta_alpha(lam, tol=tol).eta


# ---------------------------------------------------------------------------
# boundary measure


def word_alphabet(lam, k):
    """Admissible digits at position k of a word: S_iota_k, {4,5} or {1,2,3}."""
    return (4, 5) if lam.pair(k)[1] == 1 else (1, 2, 3)


def level_alphabet(lam):
    """Digit alphabet S_iota1 of the first refinement of X."""
    return word_alphabet(lam, 1)


def measure_weights(lam):
    """Per-digit weights of mu^lambda at the first level."""
    if lam.iota1 == 1:
        return {4: 0.5, 5: 0.5}
    eta = eta_of(lam.shift())
    w12 = (6.0 + eta) / (18.0 + 4.0 * eta)
    w3 = (3.0 + eta) / (9.0 + 2.0 * eta)
    return {1: w12, 2: w12, 3: w3}


def cylinder_mass(lam, word):
    """mu^lambda(X_w) as the product of per-level weights along w."""
    mass = 1.0
    cur = lam
    for ch in word:
        d = geometry.WORD_CHARS.index(ch)
        weights = measure_weights(cur)
        if d not in weights:
            raise AddressError(f"digit {d} invalid at this level (iota={cur.iota1})")
        mass *= weights[d]
        cur = cur.shift()
    return mass


class UpperBoundaryData(CylinderData):
    """Data on the boundary of an upper domain: the value at q0 plus a
    piecewise view of f on the Cantor cross-section X.

    cylinders maps words over the per-level alphabets ({4,5} / {1,2,3})
    to constant values on X_w; `fn(word)` may instead give cylinder means
    of a general f (with sup_bound for certified truncation)."""

    def __init__(self, lam, q0=0.0, cylinders=None, default=None, fn=None, sup_bound=None):
        self.lam = lam
        self.q0 = q0
        super().__init__(cylinders, default, fn, sup_bound)

    def alphabet(self, k):
        return word_alphabet(self.lam, k)

    def with_q0(self, q0):
        return UpperBoundaryData(
            self.lam, q0=q0, cylinders=self.cylinders, default=self.default,
            fn=self.fn, sup_bound=self.sup_bound,
        )


def constant_upper(lam, c):
    return UpperBoundaryData(lam, q0=c, default=c)


def integrate_upper(f, prefix="", max_depth=DEFAULT_DEPTH):
    """Mean of f over the cylinder X_prefix against mu^lambda (an Integral
    with certified truncation bound; exact modulo eta for cylinder data)."""
    lam = f.lam
    for _ in prefix:
        lam = lam.shift()
    return cylinder.integrate(UpperFrame(lam), f, prefix, max_depth)


def normal_derivative_q0(lam, f):
    """eta(lambda) * (f(q0) - int f dmu^lambda)."""
    return eta_of(lam) * (float(f.q0) - integrate_upper(f).value)


# ---------------------------------------------------------------------------
# extension algorithm


def h0_crucial_values(lam):
    """h_0 at the crucial points p_i, in closed form in eta(R lambda)."""
    eta = eta_of(lam.shift())
    if lam.iota1 == 1:
        a = 1.0 / (1.0 + eta)
        return {4: a, 5: a}
    den = 6.0 + 15.0 * eta + 3.0 * eta * eta
    return {
        1: (6.0 + eta) / den,
        2: (6.0 + eta) / den,
        3: (6.0 + 2.0 * eta) / den,
    }


def extend_step_upper(lam, f):
    """Values u(p_i) on the first crucial row in terms of the data f."""
    eta = eta_of(lam.shift())
    q0 = float(f.q0)
    ints = {
        d: integrate_upper(f, geometry.WORD_CHARS[d]).value
        for d in level_alphabet(lam)
    }
    if lam.iota1 == 1:
        den = 3.0 + 4.0 * eta + eta * eta
        u4 = q0 / (1.0 + eta) + (2 * eta + eta ** 2) / den * ints[4] + eta / den * ints[5]
        u5 = q0 / (1.0 + eta) + (2 * eta + eta ** 2) / den * ints[5] + eta / den * ints[4]
        return {4: u4, 5: u5}
    d_big = 54.0 + 165.0 * eta + 102.0 * eta ** 2 + 15.0 * eta ** 3
    d_small = 6.0 + 15.0 * eta + 3.0 * eta ** 2
    i1, i2, i3 = ints[1], ints[2], ints[3]
    u1 = (
        (54.0 + 39.0 * eta + 5.0 * eta ** 2) * q0
        + (60.0 * eta + 76.0 * eta ** 2 + 15.0 * eta ** 3) * i1
        + (30.0 * eta + eta ** 2) * i2
        + (36.0 * eta + 20.0 * eta ** 2) * i3
    ) / d_big
    u2 = (
        (54.0 + 39.0 * eta + 5.0 * eta ** 2) * q0
        + (60.0 * eta + 76.0 * eta ** 2 + 15.0 * eta ** 3) * i2
        + (30.0 * eta + eta ** 2) * i1
        + (36.0 * eta + 20.0 * eta ** 2) * i3
    ) / d_big
    u3 = (
        (6.0 + 2.0 * eta) * q0
        + (5.0 * eta + 3.0 * eta ** 2) * i3
        + 4.0 * eta * (i1 + i2)
    ) / d_small
    u4 = (
        (54.0 + 84.0 * eta + 39.0 * eta ** 2 + 5.0 * eta ** 3) * q0
        + (24.0 * eta + 12.0 * eta ** 2 + eta ** 3) * i1
        + (30.0 * eta + 27.0 * eta ** 2 + 4.0 * eta ** 3) * i2
        + (27.0 * eta + 24.0 * eta ** 2 + 5.0 * eta ** 3) * i3
    ) / d_big
    u5 = (
        (54.0 + 84.0 * eta + 39.0 * eta ** 2 + 5.0 * eta ** 3) * q0
        + (24.0 * eta + 12.0 * eta ** 2 + eta ** 3) * i2
        + (30.0 * eta + 27.0 * eta ** 2 + 4.0 * eta ** 3) * i1
        + (27.0 * eta + 24.0 * eta ** 2 + 5.0 * eta ** 3) * i3
    ) / d_big
    return {1: u1, 2: u2, 3: u3, 4: u4, 5: u5}


# crucial point coordinates (m_1 = 1 frame): p_i = F_i q_0
def _crucial_points(params):
    return {i: geometry.apply_word(params, (i,), Q0) for i in range(1, 6)}


_FULL_CELLS = {1: (0,), 2: (0, 4, 5)}


class UpperFrame(cylinder.Frame):
    """The upper domain of SG_3 for one lambda as a recursion frame."""

    name = "upper domain"
    level = 3
    slots = (0,)

    ratio = float(RATIO)

    def __init__(self, lam):
        self.lam = lam
        self.params = gasket(3)

    def dilate(self):
        # while m_1 > 1 the whole domain sits in the top cell
        lam, n = self.lam, 0
        while lam.m1 > 1:
            lam, n = lam.dilate(), n + 1
        return UpperFrame(lam), n

    def terminal(self, f, p):
        if p == Q0:
            return float(f.q0)
        if p[1] == self.lam.cut_height():
            return boundary_value_at_upper(self.lam, f, p)
        return None

    def values(self, f):
        corners = cylinder.cell_corners(3)
        values = {Q0: float(f.q0)}
        for d, v in extend_step_upper(self.lam, f).items():
            values[corners[d][0]] = v
        return values

    def full_cells(self):
        return _FULL_CELLS[self.lam.iota1]

    def copies(self):
        return level_alphabet(self.lam)

    def shift(self, d):
        return UpperFrame(self.lam.shift())

    def children(self):
        child = UpperFrame(self.lam.shift())
        return [(d, w, child) for d, w in measure_weights(self.lam).items()]

    def coefficient(self):
        return eta_of(self.lam)

    def corner(self, f):
        return f.q0


def evaluate_upper(lam, f, v):
    """Value of the harmonic solution at a vertex of the closed domain."""
    return evaluate_upper_many(lam, f, [v])[0]


def evaluate_upper_many(lam, f, vertices):
    """Values at the vertices (as for `evaluate_upper`), in order, all routed
    through the recursion at once."""
    points = [geometry.exact_point(gasket(3), v) for v in vertices]
    cut = lam.cut_height()
    for p in points:
        if p[1] < cut:
            raise ResolutionError(f"{p} lies below the cut line")
    return cylinder.route(UpperFrame(lam), f, points)


def boundary_value_at_upper(lam, f, p, max_depth=DEFAULT_DEPTH):
    """Data value at an exact point of the cut line; at a junction of two
    cylinders of piecewise-constant data the cylinder values are averaged."""
    return cylinder.cut_value(UpperFrame(lam), f, p, max_depth)


# ---------------------------------------------------------------------------
# Haar basis


def haar_psi(lam, j):
    """Depth-1 cylinder values of the mean-zero Haar generator psi^(j)."""
    if lam.iota1 == 1:
        if j != 1:
            raise AddressError("iota_1 = 1 admits only j = 1")
        return {4: -1.0, 5: 1.0}
    if j == 1:
        return {1: 1.0, 2: -1.0, 3: 0.0}
    if j == 2:
        w = measure_weights(lam)
        return {1: w[3], 2: w[3], 3: -2.0 * w[1]}
    raise AddressError("j must be 1 or 2")


def haar_data(lam, word, j):
    """psi_w^(j) as boundary data (zero outside X_word, q0 value 0)."""
    cur = lam
    for _ in word:
        cur = cur.shift()
    psi = haar_psi(cur, j)
    cylinders = {word + geometry.WORD_CHARS[d]: v for d, v in psi.items()}
    return UpperBoundaryData(lam, q0=0.0, cylinders=cylinders, default=0.0)


def haar_expand(lam, f, depth):
    """Mean b plus Haar coefficients {(word, j): c} for |word| < depth.

    c_w^(j) = <f, psi_w^(j)> / <psi_w^(j), psi_w^(j)> reduces to simple
    combinations of cylinder means."""
    if depth < 0:
        raise ContractViolation(f"depth must be >= 0, not {depth}")
    b = integrate_upper(f).value
    coeffs = {}
    for word in cylinder.words(lambda k: word_alphabet(lam, k), depth - 1):
        k = len(word) + 1
        means = {
            d: integrate_upper(f, word + geometry.WORD_CHARS[d]).value
            for d in word_alphabet(lam, k)
        }
        if lam.pair(k)[1] == 1:
            coeffs[(word, 1)] = 0.5 * (means[5] - means[4])
        else:
            coeffs[(word, 1)] = 0.5 * (means[1] - means[2])
            coeffs[(word, 2)] = 0.5 * (means[1] + means[2]) - means[3]
    return b, coeffs


def haar_reconstruct(lam, b, coeffs, word):
    """Value on the cylinder X_word of b + sum c_w psi_w (partial series)."""
    total = b
    cur = lam
    for n in range(len(word)):
        prefix, ch = word[:n], word[n]
        d = geometry.WORD_CHARS.index(ch)
        if (prefix, 1) in coeffs:
            total += coeffs[(prefix, 1)] * haar_psi(cur, 1)[d]
        if (prefix, 2) in coeffs:
            total += coeffs[(prefix, 2)] * haar_psi(cur, 2)[d]
        cur = cur.shift()
    return total


# ---------------------------------------------------------------------------
# energies


def domain_energy_upper(lam, a, f, a2=None, g=None):
    """E_{Omega_lambda}(u_f, u_g) for piecewise-constant boundary data.

    Exact modulo the eta values: once the data is constant on a sub-copy
    the remaining energy is eta * (a - c)^2 in closed form (Cor 3.5 type).
    """
    if g is None:
        a2, g = a, f
    return cylinder.energy(UpperFrame(lam), f.with_q0(float(a)), g.with_q0(float(a2)))


def gauss_green_h0_energy(lam, depth):
    """E_{O_{lambda,n}}(h_0) by the product identity
    eta(lambda) (1 - prod_k sigma_k), with the exact remainder reported."""
    eta = eta_of(lam)
    prod = 1.0
    cur = lam
    for _ in range(depth):
        weights = measure_weights(cur)
        h0 = h0_crucial_values(cur)
        prod *= sum(weights[d] * h0[d] for d in weights)
        cur = cur.shift()
    return eta * (1.0 - prod), eta * prod


def h0_band(lam):
    """Proven bracket for eta(lambda): [2(1-alpha(1)), 2) * (15/7)^{m_1}."""
    scale = float(RATIO) ** lam.m1
    return 1.116924 * scale, 2.0 * scale


UpperEnergyEstimate = namedtuple(
    "UpperEnergyEstimate",
    ["weighted_sum", "energy", "orthogonal_energy", "b", "coeffs", "bracket", "band"],
)


def energy_estimate_upper(lam, a, f, depth):
    """Haar-coefficient energy estimate: the weighted coefficient sum S,
    the exact recursion energy, and the orthogonal-decomposition energy
    sum (a-b)^2 eta + sum c^2 E(h_w), with an empirical bracket c*S."""
    b, coeffs = haar_expand(lam, f, depth)
    a = float(a)
    ratio = float(RATIO)
    s_total = ratio ** lam.m1 * (a - b) ** 2
    ortho = eta_of(lam) * (a - b) ** 2
    term_ratios = []
    for (word, j), c in sorted(coeffs.items()):
        n = len(word)
        m_next = lam.pair(n + 1)[0]
        s_term = ratio ** m_next * c * c
        s_total += s_term
        cur = lam
        for ch in word:
            cur = cur.shift()
        m_prev = lam.pair(n)[0] if n else 0
        e_gen = domain_energy_upper(cur, 0.0, haar_data(cur, "", j))
        e_term = ratio ** m_prev * e_gen
        ortho += c * c * e_term
        term_ratios.append(e_gen / ratio ** cur.m1)
    energy = domain_energy_upper(lam, a, f)
    lo_band, hi_band = h0_band(lam)
    ratios = term_ratios + [eta_of(lam) / ratio ** lam.m1]
    bracket = (min(ratios) * s_total, max(ratios) * s_total)
    return UpperEnergyEstimate(s_total, energy, ortho, b, coeffs, bracket, (lo_band, hi_band))


def empirical_generator_ratios(lams=None):
    """min/max of E(h^(j)) / (15/7)^{m_1} over a lambda grid: the
    two-sided energy-equivalence constants are not explicit, so this
    reports empirical values (positivity is the testable content)."""
    if lams is None:
        lams = [TriadicLambda(F(k, 20)) for k in range(1, 20)] + [TriadicLambda(1)]
    ratios = []
    for lam in lams:
        js = (1,) if lam.iota1 == 1 else (1, 2)
        for j in js:
            e = domain_energy_upper(lam, 0.0, haar_data(lam, "", j))
            ratios.append(e / float(RATIO) ** lam.m1)
    return min(ratios), max(ratios)
