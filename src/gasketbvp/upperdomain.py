"""Upper domains of SG_3 cut by a horizontal line at height 1 - lambda.

lambda in (0,1] is encoded by its triadic expansion sum iota_k 3^(-m_k)
with iota_k in {1,2}; triadic rationals use the non-terminating all-2 tail
so the domain recursion never bottoms out.  The crucial coefficient is
alpha(lambda) = h_0(p_4), obtained as the limit of composed one-digit
contractions; eta(lambda) = 2 (15/7)^(m_1) (1 - alpha) is the normal
derivative of h_0 at the top corner and drives the boundary measure, the
extension step, the Haar basis and the energy estimates.
"""

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache

from . import cylinder, geometry
from .cylinder import MAX_RECURSION, CylinderData
from .errors import AccuracyError, AddressError, ContractViolation, ResolutionError
from .geometry import gasket

F = Fraction


def __getattr__(name):
    # RATIO, r^-1 of SG_3, is an exact solve on Gamma_1: made on first read,
    # since only upper-domain commands read it
    if name == "RATIO":
        return _ratio()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@lru_cache(maxsize=None)
def _ratio():
    return 1 / geometry.renormalization_factor(3)


# (15/7)**300 < 2e99: eta < 2 (15/7)**m_1 and the squares in `_tmap` stay finite
MAX_RATIO_POWER = 300
ALPHA_MAX = 0.4415378110            # just above alpha(1) = (75 - sqrt(2353))/60

EtaAlpha = namedtuple("EtaAlpha", ["alpha", "eta", "depth", "err"])


class TriadicLambda:
    """Triadic expansion of an exact lambda in (0,1] with shift R and
    dilation: a Fraction, or a digit program with a periodic tail (whose
    value is rational too)."""

    def __init__(self, value):
        value = F(value)
        if not (0 < value <= 1):
            raise ResolutionError("lambda must lie in (0, 1]")
        self.value = value
        self._pairs = []
        self._shifted = self._dilated = None

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
            return cls(_program_value(prefix, periodic))
        return cls(F(text))

    def pair(self, k):
        """(m_k, iota_k), 1-indexed."""
        if k < 1:
            raise AddressError("digit index is 1-based")
        while len(self._pairs) < k:
            self._pairs.append(self._next_pair())
        return self._pairs[k - 1]

    def _next_pair(self):
        n = len(self._pairs)
        m = self._pairs[n - 1][0] if n else 0
        x = self._rest if n else self.value
        while True:
            m += 1
            d = -((-3 * x.numerator) // x.denominator) - 1  # ceil(3x) - 1
            x = 3 * x - d
            if d:
                self._rest = x
                return (m, int(d))

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
            self._shifted = TriadicLambda(self.value * 3 ** m1 - i1)
        return self._shifted

    def dilate(self):
        """3 lambda, defined when m_1 > 1 (strips one leading zero digit);
        made once, as `shift`, keeping the digits read so far."""
        if self.m1 <= 1:
            raise ResolutionError("dilate needs m_1 > 1")
        if self._dilated is None:
            self._dilated = lam = TriadicLambda(3 * self.value)
            lam._pairs, lam._rest = [(m - 1, i) for m, i in self._pairs], self._rest
        return self._dilated

    def cut_height(self):
        """Global y coordinate of the cut line (the triangle has height 2)."""
        return 2 - 2 * self.value

    def __repr__(self):
        return f"TriadicLambda({self.value})"


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


def _ratio_power(n, side=0):
    """(15/7)**n in floats, the scale of n triadic digits; refused past
    MAX_RATIO_POWER, before any float power or product of it overflows.

    side -1 or +1 gives a bound below or above the exact power.  float(15/7)
    is within 2**-53 of 15/7 relatively and `**` within an ulp (2**-52
    relatively) of the power of its argument, so the float power is within
    (n + 2) 2**-53 of the exact one for n <= MAX_RATIO_POWER; the bound
    moves it out by (n + 4) 2**-52 and one ulp more."""
    if n > MAX_RATIO_POWER:
        raise ResolutionError(f"--lambda: its triadic digits need (15/7)**{n}, over the "
                              f"(15/7)**{MAX_RATIO_POWER} that floats keep finite here")
    power = float(_ratio()) ** n
    if side:
        power = math.nextafter(power * (1 + side * (n + 4) * 2.0 ** -52), side * math.inf)
    return power


def _rounding(side):
    """v moved one ulp towards side * infinity; v itself for side 0."""
    return (lambda v: math.nextafter(v, side * math.inf)) if side else (lambda v: v)


def _tmap(iota, gap, x, side=0):
    """The one-digit map at x: increasing in x, and decreasing in e.  side -1
    or +1 gives a bound below or above its exact value, (15/7)**gap exact:
    each float operation's result moves one ulp (math.nextafter), past the
    half ulp that rounding to nearest may lose, towards the bound, and
    inside e away from it."""
    out, inn = _rounding(side), _rounding(-side)
    e = inn(_ratio_power(gap, -side) * inn(1.0 - x))
    if iota == 1:
        return out(1.0 / inn(1.0 + inn(2.0 * e)))
    num = out(out(3.0 + out(6.0 * e)) + out(out(2.0 * e) * e))
    return out(num / inn(inn(3.0 + inn(15.0 * e)) + inn(inn(6.0 * e) * e)))


def _composite(lam, depth, seed, side=0):
    x = seed
    for k in range(depth, 0, -1):
        x = _tmap(lam.pair(k)[1], lam.gap(k), x, side)
    return x


_ETA_CACHE = {}


def eta_alpha(lam, tol=1e-12, max_depth=400):
    """alpha(lambda) with a certified bracket, plus eta(lambda).

    The one-digit maps are monotone increasing on [0, alpha(1)], so
    composing from seed 0 and from seed alpha(1)+ brackets the limit.
    alpha is the composite from seed 0 in plain floats; the bracket ends are
    composed again with outward rounding (`_tmap`'s side), so that they
    bound the exact composites, and err, their distance rounded up, bounds
    |alpha - alpha(lambda)|.
    """
    cached = _ETA_CACHE.get(lam.value)
    if cached is not None and cached.err <= tol:
        return cached
    depth = 8
    result = None
    while depth <= max_depth:
        alpha = _composite(lam, depth, 0.0)
        lo, hi = _composite(lam, depth, 0.0, -1), _composite(lam, depth, ALPHA_MAX, 1)
        result = EtaAlpha(
            alpha=alpha,
            eta=2.0 * _ratio_power(lam.m1) * (1.0 - alpha),
            depth=depth,
            err=math.nextafter(hi - lo, math.inf),
        )
        if result.err <= tol:
            break
        depth *= 2
    if result.err > tol:
        raise AccuracyError(
            f"alpha bracket {result.err:g} did not reach {tol:g} within depth {max_depth}"
        )
    _ETA_CACHE[lam.value] = result
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
    for d in geometry.word_from_str(word):
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
    to constant values on X_w."""

    def __init__(self, lam, q0=0.0, cylinders=None, default=None):
        self.lam = lam
        self.q0 = q0
        super().__init__(cylinders, default)

    def alphabet(self, k):
        return word_alphabet(self.lam, k)

    def shifted(self, digit, q0):
        """Data of the copy F_digit; the dilation (m_1 > 1) reads no digit."""
        if self.lam.m1 > 1:
            return UpperBoundaryData(self.lam.dilate(), q0, self.cylinders, self.default)
        return super().shifted(digit, q0)

    def with_q0(self, q0):
        return UpperBoundaryData(self.lam, q0=q0, cylinders=self.cylinders, default=self.default)


def constant_upper(lam, c):
    return UpperBoundaryData(lam, q0=c, default=c)


def integrate_upper(f, prefix=""):
    """Mean of f over the cylinder X_prefix against mu^lambda (exact
    modulo eta)."""
    lam = f.lam
    for _ in prefix:
        lam = lam.shift()
    return cylinder.integrate(UpperFrame(lam), f, prefix)


def normal_derivative_q0(lam, f):
    """eta(lambda) * (f(q0) - int f dmu^lambda)."""
    cylinder.check_lam(lam, f)
    return cylinder.normal_derivatives(UpperFrame(lam), f)[0]


# ---------------------------------------------------------------------------
# extension algorithm


def extend_step_upper(lam, f):
    """Values u(p_d) at the crucial points p_d = F_d q_0 of the first
    crucial row, keyed by d, once the domain is dilated while m_1 > 1: the
    frame's level-1 solve (`cylinder.Frame.values`)."""
    while lam.m1 > 1:
        lam, f = lam.dilate(), f.shifted(0, f.q0)
    values = UpperFrame(lam).values(f)
    points = gasket(3).cell_points
    return {d: values[points[d][0]] for d in range(1, 6) if points[d][0] in values}


def h0_crucial_values(lam):
    """h_0 at the crucial points p_d of the first alphabet: the extend step
    of the data 1 at q0 and 0 on X."""
    step = extend_step_upper(lam, UpperBoundaryData(lam, q0=1.0, default=0.0))
    return {d: step[d] for d in level_alphabet(lam)}


# crucial point coordinates (m_1 = 1 frame): p_i = F_i q_0
def _crucial_points(params):
    return {i: params.cell_corners[i][0] for i in range(1, 6)}


_FULL_CELLS = {1: (0,), 2: (0, 4, 5)}


class UpperFrame(cylinder.Frame):
    """The upper domain of SG_3 for one lambda as a recursion frame; while
    m_1 > 1 it is F_0 of the domain of 3 lambda, its one copy."""

    name = "upper domain"
    level = 3
    slots = (0,)

    @property
    def ratio(self):
        return float(_ratio())

    def __init__(self, lam):
        self.lam = lam
        self.params = gasket(3)

    @cached_property
    def domain(self):
        return geometry.UpperDomain(cut_y=self.lam.cut_height())

    def corner_values(self, f):
        return (float(f.q0),)

    def full_cells(self):
        return _FULL_CELLS[self.lam.iota1] if self.lam.m1 == 1 else ()

    def copies(self):
        return level_alphabet(self.lam) if self.lam.m1 == 1 else (0,)

    def shift(self, d):
        return self._child

    _child = cached_property(
        lambda self: UpperFrame(self.lam.shift() if self.lam.m1 == 1 else self.lam.dilate()))

    @cached_property
    def form(self):
        return 0, (eta_of(self.lam),)

    def children(self):
        child = UpperFrame(self.lam.shift())
        return [(d, w, child) for d, w in measure_weights(self.lam).items()]


def evaluate_upper(lam, f, v):
    """Value of the harmonic solution at a vertex of the closed domain."""
    return evaluate_upper_many(lam, f, [v])[0]


def evaluate_upper_many(lam, f, vertices):
    """Values at the vertices (as for `evaluate_upper`), in order, all routed
    through the recursion at once."""
    cylinder.check_lam(lam, f)
    return cylinder.evaluate(UpperFrame(lam), f, vertices)


def boundary_value_at_upper(lam, f, p):
    """Data value at an exact point of the cut line; at a junction of two
    cylinders of piecewise-constant data the cylinder values are averaged."""
    s, [(_, x, y)] = geometry.scaled([p])
    return UpperFrame(lam).cut_values(f, [(x, y)], s)[0]


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


# the most coefficients haar_expand lists of every word: at lambda = 1,
# depth 12 lists 3**12 - 1 of them, and depth 13 is refused
MAX_HAAR_TERMS = 10 ** 6


def haar_terms(lam, depth):
    """The number of coefficients haar_expand lists of every word below
    depth: one fewer than the words of length depth, as each word has one
    fewer than its children."""
    return math.prod(len(word_alphabet(lam, k)) for k in range(1, depth + 1)) - 1


def haar_expand(lam, f, depth, every=True):
    """Mean b plus Haar coefficients {(word, j): c} for |word| < depth.

    c_w^(j) = <f, psi_w^(j)> / <psi_w^(j), psi_w^(j)> reduces to simple
    combinations of cylinder means.  Data words hold at most MAX_RECURSION
    digits, so every coefficient below that depth is 0 and depth stops
    there.  Below a word where f is constant every coefficient is an exact
    0, written without an integral; with every=False those words are left
    out.  Listing every word is
    refused past MAX_HAAR_TERMS coefficients, before any integral."""
    if not 0 <= depth <= MAX_RECURSION:
        raise ContractViolation(f"depth must be >= 0 and <= {MAX_RECURSION}, not {depth}")
    if every and (terms := haar_terms(lam, depth)) > MAX_HAAR_TERMS:
        raise ContractViolation(f"depth {depth} has {terms} Haar coefficients, over the "
                                f"{MAX_HAAR_TERMS} listed at most: lower --depth")
    cylinder.check_lam(lam, f)
    b = integrate_upper(f)
    coeffs = {}
    keep = None if every else f.refined
    for word in cylinder.words(lambda k: word_alphabet(lam, k), depth - 1, keep=keep):
        k = len(word) + 1
        if not f.refined(word):
            coeffs.update(((word, j), 0.0) for j in ((1,) if lam.pair(k)[1] == 1 else (1, 2)))
            continue
        means = {
            d: integrate_upper(f, word + geometry.WORD_CHARS[d])
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
    for n, d in enumerate(geometry.word_from_str(word)):
        prefix = word[:n]
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
    cylinder.check_lam(lam, f, g)
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
    scale = _ratio_power(lam.m1)
    return 1.116924 * scale, 2.0 * scale


UpperEnergyEstimate = namedtuple(
    "UpperEnergyEstimate",
    ["weighted_sum", "energy", "orthogonal_energy", "b", "coeffs", "bracket", "band"],
)


def energy_estimate_upper(lam, a, f, depth):
    """Haar-coefficient energy estimate: the weighted coefficient sum S,
    the exact recursion energy, and the orthogonal-decomposition energy
    sum (a-b)^2 eta + sum c^2 E(h_w), with an empirical bracket c*S."""
    # only the words where f is refined carry a nonzero coefficient, and
    # adding the exact zeros of the others would leave every sum unchanged
    b, coeffs = haar_expand(lam, f, depth, every=False)
    a = float(a)
    s_total = _ratio_power(lam.m1) * (a - b) ** 2
    ortho = eta_of(lam) * (a - b) ** 2
    # the generator psi_w^(j) lives on lam shifted |w| times, so its energy
    # depends on that lambda and j only, each computed once (the shifts of a
    # rational lambda repeat); the bracket takes every |w| < depth
    generators, energies = {}, {}
    cur = lam
    for n in range(depth):
        for j in (1,) if cur.iota1 == 1 else (1, 2):
            if (cur.value, j) not in energies:
                energies[cur.value, j] = domain_energy_upper(cur, 0.0, haar_data(cur, "", j))
            generators[n, j] = cur, energies[cur.value, j]
        cur = cur.shift()
    for (word, j), c in sorted(coeffs.items()):
        n = len(word)
        m_next = lam.pair(n + 1)[0]
        s_term = _ratio_power(m_next) * c * c
        s_total += s_term
        cur, e_gen = generators[n, j]
        m_prev = lam.pair(n)[0] if n else 0
        e_term = _ratio_power(m_prev) * e_gen
        ortho += c * c * e_term
    energy = domain_energy_upper(lam, a, f)
    lo_band, hi_band = h0_band(lam)
    ratios = [e_gen / _ratio_power(cur.m1) for cur, e_gen in generators.values()]
    ratios.append(eta_of(lam) / _ratio_power(lam.m1))
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
            ratios.append(e / _ratio_power(lam.m1))
    return min(ratios), max(ratios)
