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
from .errors import (CertificateError, DomainError, SearchExhaustedError,
                     UnsupportedParametersError)
from .intervals import TWO_PI_HI, le_two_pi, margin_over_two_pi


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
        if det == 0:
            raise CertificateError("singular matrix")
        if (det < 0) != reversing:
            raise CertificateError("orientation bit must match det sign")
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
    key = (p if p != INF else INF, q if q != INF else INF)
    if key not in _SUPPORTED:
        raise UnsupportedParametersError(
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
        if order is None:
            raise CertificateError("generator pair (%d,%d) has unexpected order" % (i, j))
        entries[i][j] = entries[j][i] = order
    cm = CoxeterMatrix.make(entries)
    want = {(0, 1): key[0], (0, 2): key[1], (1, 2): INF}
    for (i, j), m in want.items():
        if entries[i][j] != m:
            raise CertificateError("relation orders do not match the request")
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
    if g != 1 or x * pnum + y * pden != 1:
        raise CertificateError("extended gcd of %s failed its Bezout check" % fr)
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
    if c != 0 or not iso.reversing:
        raise DomainError("element is not a reflection fixing infinity")
    if Fraction(a, d) != -1:
        raise DomainError("element fixing infinity is not a mirror reflection")
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
    if width <= 0:
        raise CertificateError("cusp stabilizer mirrors must be distinct")
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


def _affine_action(model, cusp, word):
    """The conjugated action x -> eps*x + beta of a V_s word on the horocycle."""
    v = model.element(word)
    conj = cusp.conjugator * v * cusp.conjugator.inverse()
    a, b, c, d = conj.m
    if c != 0:
        raise DomainError("element does not stabilize the cusp")
    eps = Fraction(a, d)
    if eps not in (1, -1):
        raise CertificateError("horocycle action must be x -> +-x + beta")
    return int(eps), Fraction(b, d), conj


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

    Enumerates translations t^j and mirror reflections by increasing
    displacement; displacements grow linearly, so both scans terminate.
    """
    if s not in model.cusps:
        raise DomainError("generator %d has no ideal vertex" % s)
    h = Fraction(h)
    check_horoball_disjointness(model, h)
    cusp = model.cusps[s]
    i1, i2 = cusp.gen_indices
    tau = cusp.tau
    out = []
    t_word = (i2, i1)  # x -> x + width

    def try_word(word, kind, j):
        eps, beta, conj = _affine_action(model, cusp, word)
        d = _segment_distance(tau, eps, beta, h)
        if le_two_pi(d):
            out.append(ShortElement(word, kind, j, d, model.element(word)))
            return True
        return False

    for direction in (1, -1):
        j = direction
        while True:
            word = t_word * abs(j) if direction == 1 else (i1, i2) * abs(j)
            if not try_word(word, "translation", j):
                break
            j += direction
    # reflections: t^j g_{i1} has mirror (m1 + j*width)/2
    for direction in (1, -1):
        j = 0 if direction == 1 else -1
        while True:
            base = t_word * j if j >= 0 else (i1, i2) * (-j)
            word = base + (i1,)
            if not try_word(word, "reflection", j):
                break
            j += direction
    out.sort(key=lambda e: (e.displacement, e.kind, e.parameter))
    if any(e.matrix.is_identity() for e in out):
        raise CertificateError("identity must be excluded")
    return out


def _finite_parabolic_elements(model: TriangleModel):
    """Nontrivial elements of every finite standard parabolic, with words."""
    out = {}
    cm = model.cm
    subsets = [(i,) for i in range(3)]
    subsets += [(i, j) for i in range(3) for j in range(i + 1, 3)
                if cm.entries[i][j] != INF]
    for subset in subsets:
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
    """A prime certifying a torsion-free congruence kernel avoiding A_s sets."""

    model_params: tuple
    h: Fraction
    prime: int
    short_sets: dict          # s -> list of ShortElement
    nontrivial_mod_p: dict    # s -> list of (word, True)
    parabolic_table: dict     # subset -> list of (word, injective bool)
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
    if width.denominator != 1 or width.numerator not in (1, 2):
        raise CertificateError("cusp width %s is not 1 or 2" % width)
    if width.numerator % p == 0:
        raise CertificateError("prime %d divides the cusp width %s" % (p, width))
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
        for s, elems in short_sets.items():
            for e in elems:
                if e.matrix.is_scalar_mod(p):
                    return "element %r of cusp %d is trivial mod %d" % (e.word, s, p)
        for subset, elems in parabolics.items():
            for word, mat in elems:
                if mat.is_scalar_mod(p):
                    return "parabolic %r element %r collapses mod %d" % (subset, word, p)
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
                model_params=(model.p, model.q),
                h=h,
                prime=p,
                short_sets=short_sets,
                nontrivial_mod_p={s: [(e.word, True) for e in elems]
                                  for s, elems in short_sets.items()},
                parabolic_table={subset: [(w, True) for w, _ in elems]
                                 for subset, elems in parabolics.items()},
                kernel_min_displacement=global_min,
                per_cusp_margin=per_cusp,
                margin_interval=margin_over_two_pi(global_min),
            )
            if not cert.margin_positive:
                raise CertificateError(
                    "kernel displacement fails the 2*pi bound; the congruence "
                    "search postcondition is violated")
            return cert
        diagnostics.append("p=%d: %s" % (p, failure))
    raise SearchExhaustedError(
        "no prime <= %d works; tried: %s" % (prime_cap, "; ".join(diagnostics)))


def two_pi_certificate(model: TriangleModel, cert: AvoidanceCertificate, s: int):
    """Certified margin (rational interval) of cusp s over the 2*pi threshold."""
    if s not in model.cusps:
        raise DomainError("generator %d has no ideal vertex" % s)
    dmin = _kernel_min_displacement(model, model.cusps[s], cert.prime, cert.h)
    lo, hi = margin_over_two_pi(dmin)
    if lo <= 0:
        raise CertificateError("non-positive margin despite a successful search")
    return dmin, (lo, hi)


def boundary_circle_length(model: TriangleModel, cert: AvoidanceCertificate, s: int):
    """Length of the boundary circle (kernel translation displacement)."""
    cusp = model.cusps[s]
    return cert.prime * cusp.width / cert.h
