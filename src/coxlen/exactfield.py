"""Exact arithmetic in the real cyclotomic field Q(theta), theta = 2cos(pi/N).

Every scalar is a polynomial in theta with a shared integer denominator,
reduced modulo the (monic, integer) minimal polynomial of theta.  Equality is
coefficient equality of the normalized vector, and signs are decided exactly
by interval Horner evaluation on Python integers against a dyadic enclosure
a/2^P < theta < b/2^P, refined by bisection when a sign needs it, so no
verdict anywhere in the package depends on floating point.

The minimal polynomial is obtained from the cyclotomic polynomial
Phi_{2N} = prod_{d|2N} (x^d - 1)^mu(2N/d), built in integers by multiplying
out the mu = +1 binomials and exact-dividing by the mu = -1 ones, then the
palindromic substitution y = z + 1/z: writing Phi_{2N}(z)/z^d as a
polynomial in y uses z^k + z^{-k} = D_k(y) with the Dickson recurrence
D_0 = 2, D_1 = y, D_{k+1} = y*D_k - D_{k-1}, rolled forward once.

Theta's starting enclosure (a/2^64, 2) comes from a Taylor certificate: the
second- and fourth-order bounds on cos with 333/106 < pi < 355/113 put a
dyadic a/2^64 below theta and above every other conjugate 2cos(k pi/N),
gcd(k, 2N) = 1 (see `_isolate_theta`), so bisecting it by the sign of the
minimal polynomial keeps theta inside.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import sub

from .errors import ResourceCapError, require

# 333/106 < pi < 355/113: loose enough to keep the Fractions of the theta
# certificate small, tight enough for every conductor
_PI_LO = Fraction(333, 106)
_PI_HI = Fraction(355, 113)

# the largest field degree phi(2N)/2 that is built; each sign and product
# costs more with the degree (see the README)
MAX_DEGREE = 300

# bits of theta's starting enclosure a/2^P < theta < b/2^P, and the bits the
# precision grows by once the enclosure is narrower than 2^_GUARD units
_START_PREC = 64
_GUARD = 32


def _mobius(n):
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def _totient(n):
    out, p = n, 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    return out - out // n if n > 1 else out


def _cyclotomic(n):
    """Integer coefficients (low->high) of Phi_n = prod_{d|n} (x^d - 1)^mu(n/d), n > 1."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    poly = [1]
    for d in divisors:                     # multiply by the mu = +1 binomials
        if _mobius(n // d) == 1:
            poly = [0] * d + poly
            for i in range(len(poly) - d):
                poly[i] -= poly[i + d]
    for d in divisors:                     # exact-divide by the mu = -1 binomials
        if _mobius(n // d) == -1:
            q = [0] * (len(poly) - d)
            for i in range(len(q)):
                q[i] = (q[i - d] if i >= d else 0) - poly[i]
            poly = q
    return poly


def _cosine_minimal_poly(N):
    """Monic integer coefficients (low->high) of the minimal poly of 2cos(pi/N)."""
    if N == 1:
        return [2, 1]          # theta = -2
    if N == 2:
        return [0, 1]          # theta = 0
    phi = _cyclotomic(2 * N)
    d = (len(phi) - 1) // 2
    # Phi is palindromic; Phi(z)/z^d = c_d + sum_{k>=1} c_{d+k} D_k(z + 1/z)
    out = [0] * (d + 1)
    out[0] = phi[d]
    prev, cur = [2], [0, 1]                # D_0, D_1
    for k in range(1, d + 1):
        ck = phi[d + k]
        if ck:
            for i, co in enumerate(cur):
                out[i] += ck * co
        nxt = [0] + cur
        for i, co in enumerate(prev):
            nxt[i] -= co
        prev, cur = cur, nxt
    require(out[-1] == 1, "real cyclotomic minimal polynomial for N=%d is not monic", N)
    return out


def _dyadic_sign(coeffs, m, P):
    """Exact sign of sum(coeffs[i] (m/2^P)^i), from the integer homogeneous
    Horner sum(coeffs[i] m^i 2^(P(d-i))) = 2^(Pd) times the value."""
    acc, shift = 0, 0
    for c in reversed(coeffs):
        acc = acc * m + (c << shift)
        shift += P
    return (acc > 0) - (acc < 0)


def check_degree(N):
    """Raise ResourceCapError when Q(2cos(pi/N)) has degree above MAX_DEGREE,
    without building the field."""
    # phi(2N) >= sqrt(N): a conductor above 4 MAX_DEGREE^2 is refused unfactored
    if N > 4 * MAX_DEGREE ** 2 or _totient(2 * N) > 2 * MAX_DEGREE:
        raise ResourceCapError("Q(2cos(pi/%d)) has degree above the cap of %d"
                               % (N, MAX_DEGREE))


class RealCyclotomicField:
    """Q(2cos(pi/N)) with exact arithmetic and sign determination."""

    _cache = {}

    def __new__(cls, N):
        if N in cls._cache:
            return cls._cache[N]
        self = super().__new__(cls)
        self._init(N)
        cls._cache[N] = self
        return self

    def _init(self, N):
        if N < 1:
            raise ValueError("conductor must be >= 1")
        check_degree(N)
        self.N = N
        self.minpoly = tuple(_cosine_minimal_poly(N))
        self.degree = len(self.minpoly) - 1
        d = self.degree
        # theta^(d+j) as integer vectors, j = 0..d-2
        red = []
        cur = [-c for c in self.minpoly[:-1]]  # theta^d
        red.append(tuple(cur))
        for _ in range(d - 2):
            cur = [0] + cur
            top = cur.pop()
            if top:
                cur = [c - top * m for c, m in zip(cur, self.minpoly[:-1])]
            red.append(tuple(cur))
        self._reduction = tuple(red)
        # the nonzero (power, coefficient) terms of each reduction row
        self._reduction_terms = tuple(
            tuple((i, c) for i, c in enumerate(row) if c) for row in red)
        self._theta_float = 2.0 * math.cos(math.pi / N)
        self._isolate_theta()
        # D_0 = 2 and D_1 = theta (rational, -minpoly[0], at degree 1): see dickson
        theta = (-self.minpoly[0],) if d == 1 else (0, 1) + (0,) * (d - 2)
        self._dickson = [(2,) + (0,) * (d - 1), theta]

    # the ExactScalar constants, built on first read: no computation reads them
    zero = cached_property(lambda self: self.scalar((0,) * self.degree))
    one = cached_property(lambda self: self.from_rational(1))
    theta = cached_property(lambda self: self.scalar(self.dickson(1)))

    def _isolate_theta(self):
        """Verified dyadic enclosure a/2^P < theta < b/2^P, theta the largest
        root of minpoly, at P = 64.

        As cos x >= 1 - x^2/2, lo = 2 - (pi/N)^2 (pi rounded up) lies below
        theta, and so does a/2^P with a = floor(lo 2^P).  Every other
        conjugate 2cos(k pi/N), k odd >= 3, lies below 2cos(2pi/N), and
        cos x <= 1 - x^2/2 + x^4/24 bounds that from above, so (a/2^P, 2)
        isolates theta once a/2^P exceeds the bound.  b stays 2^(P+1): the
        starting width costs a few bisections, paid only by the signs that
        need them.  The minimal polynomial is negative at a/2^P and positive
        at 2, checked exactly.
        """
        if self.degree == 1:
            return
        N, mp, P = self.N, self.minpoly, _START_PREC
        lo = 2 - (_PI_HI / N) ** 2
        a, b = (lo.numerator << P) // lo.denominator, 2 << P
        second = 2 - (2 * _PI_LO / N) ** 2 + (2 * _PI_HI / N) ** 4 / 12
        require(Fraction(a, 1 << P) > second, "failed to isolate theta for N=%d", N)
        require(_dyadic_sign(mp, a, P) < 0 < _dyadic_sign(mp, b, P),
                "minimal polynomial for N=%d does not change sign around theta", N)
        self._a, self._b, self._prec = a, b, P

    def refine_theta(self, width):
        """Bisect theta's enclosure to a width of at most `width` (rational).

        Each midpoint m/2^P is kept on theta's side by the exact sign of the
        minimal polynomial there (`_dyadic_sign`): negative means m/2^P is
        below theta.  A zero there would be a rational root of an irreducible
        polynomial of degree >= 2, so it raises.  P grows by _GUARD bits
        whenever the enclosure is narrower than 2^_GUARD units of 2^-P, so
        the rounding of `sign_of` stays far below the enclosure's width.
        The enclosure persists on the field: later signs start from it.
        """
        if self.degree == 1:
            return
        width = Fraction(width)
        if width <= 0:
            raise ValueError("refinement width must be positive")
        mp, a, b, P = self.minpoly, self._a, self._b, self._prec
        while (b - a) * width.denominator > width.numerator << P:
            if b - a < 1 << _GUARD:
                a, b, P = a << _GUARD, b << _GUARD, P + _GUARD
            m = (a + b) >> 1
            s = _dyadic_sign(mp, m, P)
            require(s != 0, "minimal polynomial for N=%d has a rational root", self.N)
            if s < 0:
                a = m
            else:
                b = m
        self._a, self._b, self._prec = a, b, P

    # -- scalar constructors -------------------------------------------------

    def scalar(self, num, den=1):
        return ExactScalar(self, tuple(num), den)

    def from_rational(self, q):
        q = Fraction(q)
        num = (q.numerator,) + (0,) * (self.degree - 1)
        return ExactScalar(self, num, q.denominator)

    def dickson(self, k):
        """D_k(theta) = 2cos(k*pi/N) as its `degree` coefficients (theta^0
        first), by D_(j+1) = theta D_j - D_(j-1), memoised on the field."""
        seq = self._dickson
        while len(seq) <= k:
            seq.append(tuple(map(sub, self.mul(seq[1], seq[-1]), seq[-2])))
        return seq[k]

    def mul(self, a, b):
        """The product of two elements given by their `degree` coefficients:
        the convolution, reduced once modulo the minimal polynomial."""
        d = self.degree
        if d == 1:
            return (a[0] * b[0],)
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        out = conv[:d]
        for j in range(d - 1):
            top = conv[d + j]
            if top:
                row = self._reduction[j]
                for i in range(d):
                    out[i] += top * row[i]
        return tuple(out)

    # -- sign machinery -------------------------------------------------------

    def sign_of(self, num, den):
        """Exact sign of sum(num[i] theta^i)/den; den > 0, len(num) <= degree.

        Interval Horner on integers in units of 2^-P: with theta in
        [a, b]/2^P, 0 < a, the partial value's interval [lo, hi] times
        [a, b] is [lo*a or lo*b, hi*b or hi*a] by the signs of lo and hi
        (in units of 2^-2P); `>> P` floors the lower end and `-((-x) >> P)`
        ceils the upper end back to units of 2^-P, and the next coefficient
        adds c << P exactly.  Every rounding is outward and the enclosure
        holds theta, so each step's interval holds the true partial value,
        and the sign is returned once the final interval excludes 0.
        Otherwise `refine_theta` narrows the enclosure by 4 bits and the
        evaluation runs again.  The value is nonzero, as 1, theta, ...,
        theta^(degree-1) are linearly independent over Q and num is not all
        zero, and the interval's width shrinks with the enclosure's (P grows
        with it, so the rounding does too), so the loop ends.
        """
        if len(num) > self.degree:
            raise ValueError("sign_of needs at most %d coefficients" % self.degree)
        if not any(num):
            return 0
        if self.degree == 1:
            return 1 if num[0] > 0 else -1
        while True:
            a, b, P = self._a, self._b, self._prec
            lo = hi = 0
            for c in reversed(num):
                c <<= P
                lo = ((lo * a if lo >= 0 else lo * b) >> P) + c
                hi = c - ((-(hi * b if hi >= 0 else hi * a)) >> P)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self.refine_theta(Fraction(b - a, 1 << (P + 4)))

    def __repr__(self):
        return "RealCyclotomicField(N=%d, degree=%d)" % (self.N, self.degree)


def _normalize(num, den):
    if den < 0:
        num = tuple(-c for c in num)
        den = -den
    g = den
    for c in num:
        g = math.gcd(g, abs(c))
        if g == 1:
            return num, den
    if g > 1:
        num = tuple(c // g for c in num)
        den //= g
    return num, den


class ExactScalar:
    """Element of a RealCyclotomicField: integer vector over one denominator."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den=1):
        if den == 1:
            self.field = field
            self.num = num
            self.den = 1
        else:
            num, den = _normalize(num, den)
            self.field = field
            self.num = num
            self.den = den

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self, other
        if a.den == 1 and b.den == 1:
            return ExactScalar(a.field, tuple(x + y for x, y in zip(a.num, b.num)), 1)
        num = tuple(x * b.den + y * a.den for x, y in zip(a.num, b.num))
        return ExactScalar(a.field, num, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(self.field, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return ExactScalar(self.field, self.field.mul(self.num, other.num),
                           self.den * other.den)

    __rmul__ = __mul__

    # -- predicates / conversions ---------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExactScalar):
            if other.field is not self.field:
                raise ValueError("mixed fields: N=%d vs N=%d" % (self.field.N, other.field.N))
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def is_zero(self):
        return not any(self.num)

    def sign(self):
        return self.field.sign_of(self.num, self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.field is other.field and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.field.N, self.num, self.den))

    def as_fraction(self):
        """Exact rational value; raises if the element is irrational."""
        if any(self.num[1:]):
            if self.field.degree > 1:
                raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def __float__(self):
        acc = 0.0
        t = self.field._theta_float
        for c in reversed(self.num):
            acc = acc * t + c
        return acc / self.den

    def __repr__(self):
        return "ExactScalar(N=%d, num=%r, den=%d)" % (self.field.N, self.num, self.den)
