import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from coxlen import intervals
from coxlen.exactfield import _PI_HI, _PI_LO, RealCyclotomicField
from exactfield_oracles import fraction_sign


def _reference_minimal_poly(N):
    """sympy's Phi_2N, then Phi_2N(z)/z^d written in y = z + 1/z through a
    Dickson polynomial D_k (z^k + z^-k = D_k(y)) built afresh for every k."""
    from sympy import Poly, Symbol, cyclotomic_poly

    def dickson(k):
        if k == 0:
            return [2]
        prev, cur = [2], [0, 1]
        for _ in range(k - 1):
            shifted = [0] + cur
            prev = prev + [0] * (len(shifted) - len(prev))
            prev, cur = cur, [s - p for s, p in zip(shifted, prev)]
        return cur

    z = Symbol("z")
    phi = Poly(cyclotomic_poly(2 * N, z), z).all_coeffs()[::-1]  # low->high
    d = (len(phi) - 1) // 2
    out = [0] * (d + 1)
    out[0] = int(phi[d])
    for k in range(1, d + 1):
        for i, co in enumerate(dickson(k)):
            out[i] += int(phi[d + k]) * co
    return out


def test_minimal_polynomials_match_sympy():
    import sympy

    x = sympy.Symbol("x")
    for N in (3, 4, 5, 6, 8, 12, 15, 30):
        F = RealCyclotomicField(N)
        mine = sum(c * x ** i for i, c in enumerate(F.minpoly))
        theirs = sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / N), x)
        assert sympy.expand(mine - theirs) == 0, N
    for N in list(range(3, 151)) + [210, 391, 400]:
        assert list(RealCyclotomicField(N).minpoly) == _reference_minimal_poly(N), N


def test_small_pi_bounds_enclose_the_fine_ones():
    assert _PI_LO < intervals.PI_LO < intervals.PI_HI < _PI_HI


def test_degenerate_conductors():
    assert RealCyclotomicField(1).theta.as_fraction() == -2
    assert RealCyclotomicField(2).theta.as_fraction() == 0
    assert RealCyclotomicField(3).theta.as_fraction() == 1


def _random_scalar(F, rng):
    num = tuple(rng.randint(-30, 30) for _ in range(F.degree))
    den = rng.randint(1, 12)
    return F.scalar(num, den)


@pytest.mark.parametrize("N", [4, 5, 12, 20])
def test_field_axioms(N):
    F = RealCyclotomicField(N)
    rng = random.Random(N)
    for _ in range(200):
        a, b = _random_scalar(F, rng), _random_scalar(F, rng)
        assert (a + b) - b == a
        assert a * b == b * a
        assert a * (b + b) == a * b + a * b


@pytest.mark.parametrize("N", [3, 4, 5, 12, 60])
def test_sign_matches_high_precision(N):
    from mpmath import mp, mpf, cos, pi

    mp.dps = 60
    theta = 2 * cos(pi / N)
    F = RealCyclotomicField(N)
    rng = random.Random(777 + N)
    for _ in range(2000):
        s = _random_scalar(F, rng)
        val = sum(mpf(c) * theta ** i for i, c in enumerate(s.num)) / s.den
        want = 0 if val == 0 else (1 if val > 0 else -1)
        # high-precision value this far from zero decides the sign reliably
        if abs(val) > mpf("1e-40") or want == 0:
            assert s.sign() == want


def test_sign_of_exact_zero_combination():
    F = RealCyclotomicField(12)
    # theta^2 = 2 + sqrt(3) here, so theta^4 - 4 theta^2 + 1 = 0
    theta2 = F.theta * F.theta
    v = theta2 * theta2 - 4 * theta2 + F.one
    assert v.is_zero() and v.sign() == 0


def test_cosine_values():
    # cos(pi/m) = D_(N/m)(theta)/2 for every m dividing N
    F = RealCyclotomicField(60)
    for m in (2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60):
        # float() Horner in the degree-16 field carries ~1e-11 roundoff
        got = float(F.scalar(F.dickson(60 // m), 2))
        assert abs(got - math.cos(math.pi / m)) < 1e-9


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 7, 12, 30, 60, 385])
def test_dickson_is_twice_the_cosine_of_k_pi_over_n(N):
    # D_k(theta) = 2cos(k pi/N) to 40 digits for k over more than a period,
    # at degrees 1 to 120; terms c theta^i reach ~10^60 at degree 120
    F = RealCyclotomicField(N)
    with mpmath.workdps(130):
        theta = 2 * mpmath.cos(mpmath.pi / N)
        for k in range(2 * N + 3):
            coeffs = F.dickson(k)
            assert len(coeffs) == F.degree and all(type(c) is int for c in coeffs)
            got = sum(c * theta ** i for i, c in enumerate(coeffs))
            assert abs(got - 2 * mpmath.cos(k * mpmath.pi / N)) < mpmath.mpf(10) ** -40, k


def test_comparisons_and_float():
    F = RealCyclotomicField(5)
    golden = F.theta  # 2cos(pi/5) = (1+sqrt 5)/2
    assert (golden - F.one).sign() > 0
    assert (golden - F.from_rational(2)).sign() < 0
    assert abs(float(golden) - (1 + math.sqrt(5)) / 2) < 1e-14
    assert golden * golden == golden + F.one  # x^2 = x + 1


def test_scalar_normalization_and_hash():
    F = RealCyclotomicField(4)
    a = F.scalar((2, 4), 6)
    b = F.scalar((1, 2), 3)
    assert a == b and hash(a) == hash(b)
    c = F.scalar((-1, 0), -2)
    assert c == F.from_rational(Fraction(1, 2))


def test_theta_isolation_for_every_conductor_up_to_400():
    for N in range(3, 401):
        F = RealCyclotomicField(N)
        if F.degree == 1:
            continue
        # the field cache is shared, so another test may have narrowed the
        # enclosure to any precision: compare at 64 bits beyond it
        with mpmath.workprec(F._prec + 64):
            lo = mpmath.mpf(F._a) / 2 ** F._prec
            hi = mpmath.mpf(F._b) / 2 ** F._prec
            # the roots of the minimal polynomial are 2cos(k pi/N), gcd(k, 2N) = 1
            roots = [2 * mpmath.cos(k * mpmath.pi / N)
                     for k in range(1, N) if math.gcd(k, 2 * N) == 1]
            assert len(roots) == F.degree, N
            assert [r for r in roots if lo < r < hi] == [roots[0]], N


def test_signs_in_a_wide_conductor_field():
    F = RealCyclotomicField(71)
    # theta = 2cos(pi/71) lies just below 2
    assert F.theta.sign() == 1
    assert (F.theta - F.from_rational(2)).sign() == -1
    assert (F.theta - F.from_rational(Fraction(1997, 1000))).sign() == 1


# a conductor for each field degree 1, 2, 4, 8, 16, 48
_SIGN_CONDUCTORS = (3, 5, 12, 30, 60, 210)


def _mp_sign(N, num, dps=100):
    """Sign of sum(num[i] theta^i) at `dps` digits, None within 1e-60 of 0."""
    with mpmath.workdps(dps):
        val = mpmath.polyval(list(reversed(num)), 2 * mpmath.cos(mpmath.pi / N))
        if abs(val) < mpmath.mpf(10) ** -60:
            return None
        return 1 if val > 0 else -1


@st.composite
def _field_polynomial(draw):
    field = RealCyclotomicField(draw(st.sampled_from(_SIGN_CONDUCTORS)))
    num = draw(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=1,
                        max_size=field.degree))
    return field, tuple(num)


@settings(max_examples=300, deadline=None)
@given(_field_polynomial())
def test_sign_matches_the_fraction_oracle_and_mpmath(case):
    field, num = case
    got = field.sign_of(num, 1)
    assert got == fraction_sign(field, num)
    want = _mp_sign(field.N, num)
    assert want is None or got == want


def _convergents(x, q_max):
    """Continued-fraction convergents p/q of the mpf x with q <= q_max."""
    out = []
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = int(mpmath.floor(x))
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > q_max:
            return out
        out.append((p1, q1))
        x = 1 / (x - a)


def _counting_refinements(monkeypatch):
    """Count refine_theta calls on fields built from here on."""
    calls = []
    original = RealCyclotomicField.refine_theta

    def counting(self, width):
        calls.append(width)
        return original(self, width)

    monkeypatch.setattr(RealCyclotomicField, "refine_theta", counting)
    monkeypatch.setattr(RealCyclotomicField, "_cache", {})
    return calls


@pytest.mark.parametrize("N", [5, 12, 30, 60, 210])
def test_signs_near_zero_at_continued_fraction_convergents(N, monkeypatch):
    # q theta - p is about 1/q: down to 1e-40, far inside the starting
    # enclosure's width, so the field must refine several times
    calls = _counting_refinements(monkeypatch)
    field = RealCyclotomicField(N)
    with mpmath.workdps(120):
        convergents = _convergents(2 * mpmath.cos(mpmath.pi / N), 10 ** 40)
    assert convergents[-1][1] > 10 ** 38
    for p, q in convergents:
        num = (-p, q) + (0,) * (field.degree - 2)
        want = _mp_sign(N, num, dps=120)
        assert field.sign_of(num, 1) == want == fraction_sign(field, num), (p, q)
    assert len(calls) >= 20


def test_theta_refinement_is_lazy_and_persistent(monkeypatch):
    calls = _counting_refinements(monkeypatch)
    field = RealCyclotomicField(30)
    assert calls == []                       # building refines nothing
    theta = field.theta
    # theta = 1.989...: the starting enclosure (1.98..., 2) decides these
    assert theta.sign() == 1
    assert (theta - field.from_rational(3)).sign() == -1
    assert (theta - field.from_rational(Fraction(39, 20))).sign() == 1
    assert calls == []
    with mpmath.workdps(60):
        p, q = _convergents(2 * mpmath.cos(mpmath.pi / 30), 10 ** 20)[-1]
    near = field.scalar((-p, q) + (0,) * 6)
    sign = near.sign()
    refined = len(calls)
    assert refined > 0
    # the narrowed enclosure stays on the field
    assert near.sign() == sign and (-near).sign() == -sign
    assert len(calls) == refined
