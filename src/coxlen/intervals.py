"""Rational interval enclosures for certified inequalities against pi.

All geometric certificates compare exact rationals with multiples of pi.
Equality can never occur (pi is irrational), so a tight rational enclosure
decides every comparison.  The enclosure below is 30 digits wide enough for
any decision this package makes; tests re-validate it against mpmath.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import require

# 3.141592653589793238462643383279502884197... (truncated / rounded up)
PI_LO = Fraction(3141592653589793238462643383279, 10**30)
PI_HI = Fraction(3141592653589793238462643383280, 10**30)

TWO_PI_LO = 2 * PI_LO
TWO_PI_HI = 2 * PI_HI


def le_two_pi(x: Fraction) -> bool:
    """Decide x <= 2*pi for rational x (never ambiguous)."""
    if x <= TWO_PI_LO:
        return True
    require(x >= TWO_PI_HI, "pi enclosure too coarse for %r", x)
    return False


def margin_over_two_pi(x: Fraction) -> tuple[Fraction, Fraction]:
    """Enclosure of x - 2*pi as a rational interval [lo, hi]."""
    return (x - TWO_PI_HI, x - TWO_PI_LO)
