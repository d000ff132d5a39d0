"""A Fraction oracle for the field's exact signs.

The field decides a sign by interval Horner on integers against a dyadic
enclosure of theta.  This oracle is the evaluator that did it before:
interval Horner on Fractions against theta's Taylor-certified isolating
interval (lo, 2), narrowed by Fraction bisection on the sign of the minimal
polynomial.  It keeps its own interval per conductor, so it shares no state
with the field.
"""

from fractions import Fraction

from coxlen.exactfield import _PI_HI

_INTERVALS = {}


def _poly_eval_frac(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _interval_eval(num, a, b):
    """Interval Horner evaluation of an integer polynomial at [a, b]."""
    lo = hi = Fraction(0)
    for c in reversed(num):
        cands = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = min(cands) + c, max(cands) + c
    return lo, hi


def fraction_sign(field, num):
    """Exact sign of sum(num[i] theta^i) in `field`, on Fractions alone."""
    if not any(num):
        return 0
    mp = field.minpoly
    if field.degree == 1:
        v = _poly_eval_frac(num, Fraction(-mp[0]))
        return (v > 0) - (v < 0)
    lo, hi = _INTERVALS.get(field.N, (2 - (_PI_HI / field.N) ** 2, Fraction(2)))
    while True:
        vlo, vhi = _interval_eval(num, lo, hi)
        if vlo > 0 or vhi < 0:
            _INTERVALS[field.N] = lo, hi
            return 1 if vlo > 0 else -1
        width = (hi - lo) / 16
        while hi - lo > width:
            mid = (lo + hi) / 2
            if _poly_eval_frac(mp, mid) < 0:
                lo = mid
            else:
                hi = mid
