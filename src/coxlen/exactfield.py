"""Exact arithmetic in the real cyclotomic field Q(theta), theta = 2cos(pi/N).

Every scalar is a polynomial in theta with a shared integer denominator,
reduced modulo the (monic, integer) minimal polynomial of theta.  Equality is
coefficient equality of the normalized vector, and signs are decided exactly
by interval evaluation against a refinable isolating interval for theta, so
no verdict anywhere in the package depends on floating point.

The minimal polynomial is obtained from the cyclotomic polynomial Phi_{2N}
via the palindromic substitution y = z + 1/z: writing Phi_{2N}(z)/z^d as a
polynomial in y uses z^k + z^{-k} = D_k(y) with the Dickson recurrence
D_0 = 2, D_1 = y, D_{k+1} = y*D_k - D_{k-1}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import CertificateError


def _int_dickson(k):
    """Integer coefficient list (low->high) of D_k with D_k(2cos a)=2cos(ka)."""
    if k == 0:
        return [2]
    prev, cur = [2], [0, 1]
    for _ in range(k - 1):
        shifted = [0] + cur
        nxt = [s - p for s, p in zip(shifted, prev + [0] * (len(shifted) - len(prev)))]
        prev, cur = cur, nxt
    return cur


def _cosine_minimal_poly(N):
    """Monic integer coefficients (low->high) of the minimal poly of 2cos(pi/N)."""
    if N == 1:
        return [2, 1]          # theta = -2
    if N == 2:
        return [0, 1]          # theta = 0
    from sympy import Symbol, cyclotomic_poly, Poly

    z = Symbol("z")
    phi = Poly(cyclotomic_poly(2 * N, z), z).all_coeffs()[::-1]  # low->high
    deg = len(phi) - 1
    d = deg // 2
    # Phi is palindromic; Phi(z)/z^d = c_d + sum_{k>=1} c_{d+k} (z^k + z^{-k})
    out = [0] * (d + 1)
    out[0] = int(phi[d])
    for k in range(1, d + 1):
        ck = int(phi[d + k])
        if ck == 0:
            continue
        for i, co in enumerate(_int_dickson(k)):
            out[i] += ck * co
    if out[-1] != 1:
        raise CertificateError("real cyclotomic minimal polynomial for N=%d is not "
                               "monic" % N)
    return out


def _poly_eval_frac(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sturm_chain(coeffs):
    """Sturm chain of a squarefree integer polynomial (Fraction arithmetic)."""
    def deriv(p):
        return [Fraction(i * c) for i, c in enumerate(p)][1:]

    def rem(a, b):
        a = list(a)
        while len(a) >= len(b) and any(a):
            if a[-1] == 0:
                a.pop()
                continue
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        return a

    chain = [[Fraction(c) for c in coeffs]]
    chain.append(deriv(chain[0]))
    while len(chain[-1]) > 1 or (chain[-1] and chain[-1][0] != 0):
        r = rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _sign_variations(chain, x):
    signs = []
    for p in chain:
        v = _poly_eval_frac(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


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
        self.zero = self.scalar((0,) * d, 1)
        self.one = self.scalar((1,) + (0,) * (d - 1), 1)
        if d == 1:
            # theta is rational: -minpoly[0]
            self.theta = self.from_rational(Fraction(-self.minpoly[0]))
        else:
            self.theta = self.scalar((0, 1) + (0,) * (d - 2), 1)
        self._cos_cache = {}

    def _isolate_theta(self):
        """Verified isolating interval for theta, the largest root of minpoly."""
        d = self.degree
        if d == 1:
            v = Fraction(-self.minpoly[0])
            self._lo = self._hi = v
            return
        hi = Fraction(2)
        lo = Fraction(round((self._theta_float - 0.05) * 10**6), 10**6)
        mp = self.minpoly
        if _poly_eval_frac(mp, hi) <= 0:
            raise CertificateError("minimal polynomial for N=%d is not positive at 2"
                                   % self.N)
        chain = _sturm_chain(mp)
        v_hi = _sign_variations(chain, hi)
        # walk lo upward until (lo, hi] holds exactly one root, which is then
        # theta (the largest root); such a point has p(lo) < 0, so only those
        # points pay for the Sturm count
        for _ in range(64):
            if (_poly_eval_frac(mp, lo) < 0
                    and _sign_variations(chain, lo) - v_hi == 1):
                break
            lo = (lo + Fraction(round(self._theta_float * 10**9), 10**9)) / 2
        else:
            raise CertificateError("failed to isolate theta for N=%d" % self.N)
        self._lo, self._hi = lo, hi

    def refine_theta(self, width: Fraction):
        """Shrink the isolating interval below the requested width."""
        if self.degree == 1:
            return
        mp = self.minpoly
        lo, hi = self._lo, self._hi
        while hi - lo > width:
            mid = (lo + hi) / 2
            if _poly_eval_frac(mp, mid) < 0:
                lo = mid
            else:
                hi = mid
        self._lo, self._hi = lo, hi

    # -- scalar constructors -------------------------------------------------

    def scalar(self, num, den=1):
        return ExactScalar(self, tuple(num), den)

    def from_rational(self, q):
        q = Fraction(q)
        num = (q.numerator,) + (0,) * (self.degree - 1)
        return ExactScalar(self, num, q.denominator)

    def dickson(self, k):
        """D_k(theta) = 2cos(k*pi/N) as a field element."""
        if k == 0:
            return self.from_rational(2)
        prev, cur = self.from_rational(2), self.theta
        for _ in range(k - 1):
            prev, cur = cur, self.theta * cur - prev
        return cur

    def cos_pi_over(self, m):
        """cos(pi/m) exactly; requires m == 2 or m | N."""
        if m in self._cos_cache:
            return self._cos_cache[m]
        if m == 2:
            val = self.zero
        else:
            if self.N % m:
                raise ValueError("cos(pi/%d) does not lie in Q(2cos(pi/%d))" % (m, self.N))
            val = self.dickson(self.N // m) * self.from_rational(Fraction(1, 2))
        self._cos_cache[m] = val
        return val

    # -- sign machinery -------------------------------------------------------

    def sign_of(self, num, den):
        """Exact sign of sum(num[i] theta^i)/den; den > 0."""
        if not any(num):
            return 0
        if self.degree == 1:
            v = _poly_eval_frac(num, self._lo)
            return 1 if v > 0 else (-1 if v < 0 else 0)
        while True:
            vals = self._interval_eval(num)
            if vals[0] > 0:
                return 1
            if vals[1] < 0:
                return -1
            self.refine_theta((self._hi - self._lo) / 16)

    def _interval_eval(self, num):
        """Interval Horner evaluation of an integer polynomial at [lo, hi]."""
        lo = hi = Fraction(0)
        a, b = self._lo, self._hi
        for c in reversed(num):
            cands = (lo * a, lo * b, hi * a, hi * b)
            lo, hi = min(cands) + c, max(cands) + c
        return lo, hi

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
        f = self.field
        d = f.degree
        a, b = self.num, other.num
        if d == 1:
            return ExactScalar(f, (a[0] * b[0],), self.den * other.den)
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
                row = f._reduction[j]
                for i in range(d):
                    out[i] += top * row[i]
        return ExactScalar(f, tuple(out), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

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
