"""Rank-3 cusped triangle reflection groups and congruence filling certificates.

The three supported parameter sets (2,3,inf), (2,inf,inf), (inf,inf,inf) are
realized in the upper half-plane by reflections with integer 2x2 matrices.
Reflections act as z -> M * conj(z) with det M < 0; products of two real
matrices compose by plain matrix multiplication, so a group element is a
projectivized integer matrix plus an orientation bit.

For a cusp stabilizer V_s (infinite dihedral, conjugated so its ideal point
is at infinity) the short-displacement set collects the elements moving the
fundamental horocycle segment at most 2*pi, measured in the intrinsic flat
metric of the horocycle at height h (horizontal offset d gives distance d/h).
A prime p whose matrix reduction mod p is nontrivial on every such element
and injective on the finite standard parabolics exhibits a torsion-free
normal finite-index kernel whose boundary displacements all exceed 2*pi by a
certified rational-interval margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coxeter import INF, CoxeterMatrix
from .errors import DomainError, ResourceCapError, require
from .intervals import le_two_pi, margin_over_two_pi

# the most short elements one cusp may have; the count grows linearly with h
# (630 at h = 25 at width 1) and each element keeps its word
MAX_SHORT = 4096


def _normalize_proj(m):
    a, b, c, d = m
    g = math.gcd(math.gcd(abs(a), abs(b)), math.gcd(abs(c), abs(d)))
    if g > 1:
        a, b, c, d = a // g, b // g, c // g, d // g
    for x in (a, b, c, d):
        if x:
            if x < 0:
                a, b, c, d = -a, -b, -c, -d
            break
    return (a, b, c, d)


@dataclass(frozen=True)
class PlaneIsometry:
    """Projectivized integer matrix with an orientation bit."""

    m: tuple          # (a, b, c, d), gcd 1, first nonzero positive
    reversing: bool

    @classmethod
    def make(cls, a, b, c, d, reversing):
        det = a * d - b * c
        require(det != 0, "singular matrix")
        require((det < 0) == reversing, "orientation bit must match det sign")
        return cls(_normalize_proj((a, b, c, d)), reversing)

    def __mul__(self, other):
        a, b, c, d = self.m
        e, f, g, h = other.m
        return PlaneIsometry(
            _normalize_proj((a * e + b * g, a * f + b * h,
                             c * e + d * g, c * f + d * h)),
            self.reversing != other.reversing)

    def inverse(self):
        a, b, c, d = self.m
        return PlaneIsometry(_normalize_proj((d, -b, -c, a)), self.reversing)

    def is_identity(self):
        a, b, c, d = self.m
        return b == 0 and c == 0 and a == d

    def is_scalar_mod(self, p):
        a, b, c, d = self.m
        return b % p == 0 and c % p == 0 and (a - d) % p == 0

    def trace_sq_over_det(self):
        """(tr M)^2 / det M, the projective invariant deciding element type."""
        a, b, c, d = self.m
        return Fraction((a + d) ** 2, a * d - b * c)


IDENTITY = PlaneIsometry((1, 0, 0, 1), False)


@dataclass(frozen=True)
class CuspData:
    """One cusp: stabilizer generators and the conjugated horocycle picture."""

    s: int                    # V_s = < S \ {s} >
    vertex: object            # Fraction or None for the point at infinity
    conjugator: PlaneIsometry  # unimodular, sends the vertex to infinity
    gen_indices: tuple        # the two generator indices spanning V_s
    mirror_offsets: tuple     # (m1, m2): conjugated reflections x -> m_i - x
    width: Fraction           # translation length of the stabilizer lattice

    @property
    def tau(self):
        """Fundamental segment for V_s on the horocycle (length width/2)."""
        m1, m2 = self.mirror_offsets
        return (m1 / 2, m2 / 2)


@dataclass
class TriangleModel:
    p: object
    q: object
    cm: CoxeterMatrix
    generators: tuple        # three PlaneIsometry reflections
    cusps: dict              # s -> CuspData for each ideal vertex

    def element(self, word):
        out = IDENTITY
        for s in word:
            out = out * self.generators[s]
        return out


def _product_order(g1, g2):
    """Order of the rotation g1*g2 from the projective trace invariant.

    tr^2/det = 4cos^2(angle/2) for elliptics: 0 -> order 2, 1 -> order 3,
    2 -> order 4, ...; 4 -> parabolic (infinite order here).
    """
    t = (g1 * g2).trace_sq_over_det()
    return {Fraction(0): 2, Fraction(1): 3, Fraction(2): 4,
            Fraction(3): 6, Fraction(4): INF}.get(t)


_SUPPORTED = {(2, 3), (2, INF), (INF, INF)}


def build_triangle_model(p, q) -> TriangleModel:
    """Triangle reflection group with angles (pi/p, pi/q, 0).

    Generators satisfy ord(g1 g2) = p, ord(g1 g3) = q, ord(g2 g3) = inf.
    Only parameter sets with rational (integer) reflection matrices are
    supported: (2,3), (2,inf), (inf,inf).
    """
    key = (p, q)
    if key not in _SUPPORTED:
        raise DomainError(
            "unsupported (p, q) = (%s, %s): integer matrices exist only for "
            "(2,3), (2,inf), (inf,inf) with the third exponent inf" % (p, q))
    mirror_x0 = PlaneIsometry.make(-1, 0, 0, 1, True)       # x -> -x
    mirror_x1 = PlaneIsometry.make(-1, 2, 0, 1, True)       # x -> 2 - x
    mirror_xh = PlaneIsometry.make(-1, 1, 0, 1, True)       # x -> 1 - x
    unit_circle = PlaneIsometry.make(0, 1, 1, 0, True)      # z -> 1/conj(z)
    half_circle = PlaneIsometry.make(1, 0, 2, -1, True)     # circle |z-1/2|=1/2
    if key == (2, 3):
        # g1: unit circle, g2: x=0, g3: x=1/2; ideal vertex at infinity
        gens = (unit_circle, mirror_x0, mirror_xh)
        cusp_vertices = {0: None}
    elif key == (2, INF):
        # g1: unit circle, g2: x=0, g3: x=1; ideal vertices at infinity and 1
        gens = (unit_circle, mirror_x0, mirror_x1)
        cusp_vertices = {0: None, 1: Fraction(1)}
    else:
        # ideal triangle 0, 1, infinity: x=0, x=1, circle |z-1/2| = 1/2
        gens = (mirror_x0, mirror_x1, half_circle)
        cusp_vertices = {0: Fraction(1), 1: Fraction(0), 2: None}
    entries = [[1, 2, 2], [2, 1, 2], [2, 2, 1]]
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        order = _product_order(gens[i], gens[j])
        require(order is not None, "generator pair (%d,%d) has unexpected order", i, j)
        entries[i][j] = entries[j][i] = order
    cm = CoxeterMatrix.make(entries)
    want = {(0, 1): key[0], (0, 2): key[1], (1, 2): INF}
    for (i, j), m in want.items():
        require(entries[i][j] == m, "relation orders do not match the request")
    cusps = {}
    for s, vertex in cusp_vertices.items():
        cusps[s] = _cusp_data(gens, s, vertex)
    return TriangleModel(key[0], key[1], cm, gens, cusps)


def _conjugator_to_infinity(vertex):
    if vertex is None:
        return IDENTITY
    fr = Fraction(vertex)
    pnum, pden = fr.numerator, fr.denominator
    g, x, y = _ext_gcd(pnum, pden)
    require(g == 1 and x * pnum + y * pden == 1,
            "extended gcd of %s failed its Bezout check", fr)
    # bottom row (pden, -pnum) sends the vertex to infinity; det = -1
    return PlaneIsometry.make(x, y, pden, -pnum, reversing=True)


def _ext_gcd(a, b):
    if b == 0:
        return abs(a), (1 if a >= 0 else -1), 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def _mirror_offset(iso: PlaneIsometry):
    """For an infinity-fixing reflection x -> m - x, return m exactly."""
    a, b, c, d = iso.m
    require(c == 0 and iso.reversing, "element is not a reflection fixing infinity")
    require(Fraction(a, d) == -1, "element fixing infinity is not a mirror reflection")
    return Fraction(b, d)


def _cusp_data(gens, s, vertex):
    u = _conjugator_to_infinity(vertex)
    uinv = u.inverse()
    pair = tuple(i for i in range(3) if i != s)
    offsets = []
    for i in pair:
        conj = u * gens[i] * uinv
        offsets.append(_mirror_offset(conj))
    m1, m2 = sorted(offsets)
    width = m2 - m1
    require(width > 0, "cusp stabilizer mirrors must be distinct")
    if offsets[0] > offsets[1]:
        pair = (pair[1], pair[0])
    return CuspData(s, vertex, u, pair, (m1, m2), width)


def check_horoball_disjointness(model: TriangleModel, h: Fraction):
    """Horoballs {y > h} at every cusp (in its unimodular frame) are pairwise
    disjoint iff h >= 1.

    All group and conjugator matrices are integral with determinant +-1, so
    two distinct orbit horoballs are tangent to the real line at distinct
    rationals a/c, a'/c' with |ac' - a'c| >= 1 and have Euclidean radii
    1/(2c^2 h), 1/(2c'^2 h); they are disjoint iff |ac' - a'c| >= 1/h.  The
    extreme case |ac' - a'c| = 1 occurs already inside one cusp orbit.
    """
    h = Fraction(h)
    if h <= 0:
        raise DomainError("horoball height must be positive")
    if h < 1:
        raise DomainError(
            "horoball disjointness fails at h = %s: the image of a height-h "
            "horoball under a unimodular element with lower-left entry 1 is a "
            "ball of Euclidean diameter 1/h > h touching the original" % h)


@dataclass(frozen=True)
class ShortElement:
    """A cusp-stabilizer element together with its exact displacement."""

    word: tuple              # word in the global generator indices
    kind: str                # "translation" | "reflection"
    parameter: int           # t^j, or mirror index j
    displacement: Fraction   # dist(tau, v tau) on the height-h horocycle
    matrix: PlaneIsometry


def _affine_action(cusp, v):
    """The conjugated action x -> eps*x + beta of an element v of V_s on the
    horocycle."""
    a, b, c, d = (cusp.conjugator * v * cusp.conjugator.inverse()).m
    require(c == 0, "element does not stabilize the cusp")
    eps = Fraction(a, d)
    require(eps in (1, -1), "horocycle action must be x -> +-x + beta")
    return int(eps), Fraction(b, d)


def _segment_distance(tau, eps, beta, h):
    lo, hi = tau
    if eps == 1:
        ilo, ihi = lo + beta, hi + beta
    else:
        ilo, ihi = beta - hi, beta - lo
    gap = max(ilo - hi, lo - ihi, Fraction(0))
    return gap / Fraction(h)


def compute_short_elements(model: TriangleModel, s: int, h) -> list:
    """The finite set of v in V_s - {1} with dist(tau_s, v tau_s) <= 2*pi.

    Four walks, each by increasing displacement: the translations t^j for
    j > 0 and for j < 0 (t = g_i2 g_i1 is x -> x + width), and the mirror
    reflections t^j g_i1, whose mirror is (m1 + j*width)/2, for j >= 0 and
    for j < 0.  Each step prepends the step word t or t^-1 and costs one
    product, so every element is evaluated once.  Displacements grow
    linearly along a walk, so each walk stops at its first element beyond
    2*pi.  More than MAX_SHORT elements raise ResourceCapError.
    """
    if s not in model.cusps:
        raise DomainError("generator %d has no ideal vertex" % s)
    h = Fraction(h)
    check_horoball_disjointness(model, h)
    cusp = model.cusps[s]
    tau = cusp.tau
    i1, i2 = cusp.gen_indices
    t, t_inv = (i2, i1), (i1, i2)
    walks = (("translation", 1, t, t), ("translation", -1, t_inv, t_inv),
             ("reflection", 0, t, (i1,)), ("reflection", -1, t_inv, t_inv + (i1,)))
    out = []
    for kind, j, step, word in walks:
        step_elem = model.element(step)
        v = model.element(word)
        while True:
            d = _segment_distance(tau, *_affine_action(cusp, v), h)
            if not le_two_pi(d):
                break
            if len(out) == MAX_SHORT:
                raise ResourceCapError("cusp %d has more than %d short elements"
                                       % (s + 1, MAX_SHORT))
            out.append(ShortElement(word, kind, j, d, v))
            word, v, j = step + word, step_elem * v, j + (1 if j >= 0 else -1)
    out.sort(key=lambda e: (e.displacement, e.kind, e.parameter))
    require(not any(e.matrix.is_identity() for e in out), "identity must be excluded")
    return out


def finite_parabolic_subsets(cm: CoxeterMatrix):
    """The generator subsets of the finite standard parabolics of a rank-3
    group: every generator, and every pair with a finite bond order."""
    return [(i,) for i in range(3)] + [(i, j) for i in range(3) for j in range(i + 1, 3)
                                       if cm.entries[i][j] != INF]


def _finite_parabolic_elements(model: TriangleModel):
    """Nontrivial elements of every finite standard parabolic, with words."""
    out = {}
    for subset in finite_parabolic_subsets(model.cm):
        elems = {}
        frontier = {(): IDENTITY}
        while frontier:
            new = {}
            for word, mat in frontier.items():
                for s in subset:
                    w2 = word + (s,)
                    m2 = mat * model.generators[s]
                    if m2.is_identity():
                        continue
                    if m2.m not in elems:
                        elems[m2.m] = (w2, m2)
                        new[w2] = m2
            frontier = new
        out[subset] = [elems[k] for k in sorted(elems)]
    return out


@dataclass
class AvoidanceCertificate:
    """A prime certifying a torsion-free congruence kernel avoiding A_s sets:
    no element of `short_sets` and no nontrivial element of a finite standard
    parabolic is scalar mod `prime`."""

    h: Fraction
    prime: int
    short_sets: dict          # s -> list of ShortElement
    kernel_min_displacement: Fraction
    per_cusp_margin: dict     # s -> (min displacement, margin interval)
    margin_interval: tuple    # enclosure of min displacement - 2*pi

    @property
    def margin_positive(self):
        return self.margin_interval[0] > 0


def _kernel_min_displacement(model, cusp, p, h):
    """Min displacement of nontrivial kernel elements of V_s: dist for t^(+-p).

    Mirror reflections have matrix ~ (-1, m; 0, 1) up to unimodular
    conjugation, never scalar mod an odd prime; a translation t^j is scalar
    mod p iff p | j*width (width is 1 or 2 here, so iff p | j).
    """
    width = cusp.width
    require(width in (1, 2), "cusp width %s is not 1 or 2", width)
    require(width.numerator % p != 0, "prime %d divides the cusp width %s", p, width)
    return (p * width - width / 2) / Fraction(h)


def congruence_search(model: TriangleModel, h,
                      prime_cap: int = 100) -> AvoidanceCertificate:
    """Smallest odd prime whose matrix reduction is nontrivial on every
    short-displacement element and injective on every finite standard
    parabolic; the kernel of the reduction is the certified subgroup.

    Primes dividing the order of a finite parabolic are skipped outright
    (they cannot give an injective reduction on it).
    """
    h = Fraction(h)
    short_sets = {s: compute_short_elements(model, s, h) for s in sorted(model.cusps)}
    parabolics = _finite_parabolic_elements(model)
    excluded = {2}
    for subset, elems in parabolics.items():
        order = len(elems) + 1
        for q in range(2, order + 1):
            while order % q == 0:
                excluded.add(q)
                order //= q
    if prime_cap < 5:
        raise DomainError("prime cap must be at least 5")

    def candidate_primes():
        for p in range(3, prime_cap + 1):
            if p in excluded:
                continue
            if all(p % q for q in range(2, int(p ** 0.5) + 1)):
                yield p

    def check(p):
        """None when p works, else where its first element trivial mod p lies:
        the cusp and the element's length, or the parabolic subset."""
        for s, elems in short_sets.items():
            for e in elems:
                if e.matrix.is_scalar_mod(p):
                    return "cusp %d, length %d" % (s + 1, len(e.word))
        for subset, elems in parabolics.items():
            if any(mat.is_scalar_mod(p) for _, mat in elems):
                return "parabolic %s" % "-".join(str(i + 1) for i in subset)
        return None

    diagnostics = []
    for p in candidate_primes():
        failure = check(p)
        if failure is None:
            per_cusp = {}
            global_min = None
            for s, cusp in sorted(model.cusps.items()):
                dmin = _kernel_min_displacement(model, cusp, p, h)
                per_cusp[s] = (dmin, margin_over_two_pi(dmin))
                global_min = dmin if global_min is None else min(global_min, dmin)
            cert = AvoidanceCertificate(
                h=h, prime=p, short_sets=short_sets, kernel_min_displacement=global_min,
                per_cusp_margin=per_cusp, margin_interval=margin_over_two_pi(global_min))
            require(cert.margin_positive, "kernel displacement fails the 2*pi bound; "
                    "the congruence search postcondition is violated")
            return cert
        diagnostics.append("p=%d (%s)" % (p, failure))
    raise DomainError("no prime <= %d works; an element trivial mod p for each p "
                      "tried: %s" % (prime_cap, "; ".join(diagnostics)))


def two_pi_certificate(model: TriangleModel, cert: AvoidanceCertificate, s: int):
    """Certified margin (rational interval) of cusp s over the 2*pi threshold."""
    if s not in model.cusps:
        raise DomainError("generator %d has no ideal vertex" % s)
    dmin, margin = cert.per_cusp_margin[s]
    require(margin[0] > 0, "non-positive margin despite a successful search")
    return dmin, margin


def boundary_circle_length(model: TriangleModel, cert: AvoidanceCertificate, s: int):
    """Length of the boundary circle (kernel translation displacement)."""
    cusp = model.cusps[s]
    return cert.prime * cusp.width / cert.h
