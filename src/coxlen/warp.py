"""Warped metric profiles interpolating a cusp cross-section into a cone.

On [r_T, 0] the radial factor f must equal (2pi/L) sinh(r - r_T) near the
cone point, equal e^r near the boundary, and be positive, increasing and
convex in between.  A single quintic cannot bridge the two pieces here: its
second derivative would have to stay near the tiny mean (f'(r_b)-f'(r_a))/h
while ending at e^{r_b} ~ 1, which forces it negative in the middle.  The
bridge therefore prescribes f'' directly as a nonnegative piecewise-linear
function with two interior knots whose heights are solved from the two
remaining matching constraints (the integral of f'' and its first moment),
then integrates twice.  All joins match value, first and second derivative,
so the assembled f is C^2; convexity holds by construction and is verified
on the grid anyway.

The grid and the sampled f, f', f'' are tuples of Python floats, each point
evaluated once; the grid checks are min over forward and second differences
taken elementwise, so no array library is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ResourceCapError

# the largest grid accepted, checked before the grid is built (see the README)
MAX_GRID = 262_144


@dataclass
class BridgeSpec:
    r_a: float
    r_b: float
    knots: tuple       # ((s0, y0), (s1, y1), (s2, y2), (s3, y3)) in s = r - r_a
    base_value: float  # f(r_a)
    base_slope: float  # f'(r_a)


@dataclass
class WarpProfile:
    """A verified profile: analytic end pieces plus a convex C^2 bridge."""

    L: float
    r_T: float
    bridge: BridgeSpec
    grid: tuple        # the grid points over (r_T, 0], as floats
    f: tuple           # f, f' and f'' at the grid points
    fp: tuple
    fpp: tuple
    attempts: int

    @property
    def r_a(self):
        return self.bridge.r_a

    @property
    def r_b(self):
        return self.bridge.r_b

    def value(self, r):
        return _eval_profile(self, r)[0]


def _apex(L, r_T, r):
    amp = 2 * math.pi / L
    x = r - r_T
    return amp * math.sinh(x), amp * math.cosh(x), amp * math.sinh(x)


def _boundary(r):
    e = math.exp(r)
    return e, e, e


def _bridge_eval(spec: BridgeSpec, r):
    s = r - spec.r_a
    knots = spec.knots
    if s <= 0:
        return spec.base_value, spec.base_slope, knots[0][1]
    f = spec.base_value
    fp = spec.base_slope
    for (s0, y0), (s1, y1) in zip(knots, knots[1:]):
        d = s1 - s0
        t = min(s, s1) - s0
        slope = (y1 - y0) / d
        f += fp * t + y0 * t * t / 2 + slope * t ** 3 / 6
        fp += y0 * t + slope * t * t / 2
        if s <= s1:
            return f, fp, y0 + slope * t
    last = knots[-1]
    return f, fp, last[1]


def _eval_profile(profile: WarpProfile, r):
    if r <= profile.bridge.r_a:
        return _apex(profile.L, profile.r_T, r)
    if r >= profile.bridge.r_b:
        return _boundary(r)
    return _bridge_eval(profile.bridge, r)


def _solve_bridge(L, r_T, r_a, r_b, w1, w3, w2):
    """Bridge with f'' shaped as: ramp from A down/up to a plateau p1 over
    w1, plateau p1, ramp to p2 over w3, ramp to B over w2.

    The plateau and peak heights (p1, p2) are the unique solution of the two
    matching constraints (integral of f'' = f' jump, first moment = value
    jump); returns None when either comes out negative (shape infeasible for
    these widths).  The shape covers both regimes: mass spread along the
    bridge (p1 > 0, small L) and mass concentrated in an end spike (p1 ~ 0,
    p2 possibly above B, large L).
    """
    amp = 2 * math.pi / L
    h = r_b - r_a
    if h <= 0 or w1 + w3 + w2 >= h:
        return None
    x = r_a - r_T
    A = amp * math.sinh(x)               # f'' at the apex end
    B = math.exp(r_b)                    # f'' at the boundary end
    va, sa = amp * math.sinh(x), amp * math.cosh(x)
    vb, sb = math.exp(r_b), math.exp(r_b)
    J = sb - sa                          # required integral of f''
    V = vb - va - sa * h                 # required first moment (weight h - s)
    if J <= 0 or V <= 0:
        return None
    t1, t2, t3 = w1, h - w2 - w3, h - w2
    breaks = (0.0, t1, t2, t3, h)

    def seg_weights(s0, s1):
        # contributions of the segment's two endpoint heights to the
        # integral and to the (h - s)-weighted moment of a linear piece
        d = s1 - s0
        m0 = (h - s0) * d / 2 - d * d / 6
        m1 = (h - s0) * d / 2 - d * d / 3
        return d / 2, d / 2, m0, m1

    # heights vector is (A, p1, p1, p2, B); accumulate linear coefficients
    coeff_int = [0.0] * 5
    coeff_mom = [0.0] * 5
    for k in range(4):
        i0, i1, m0, m1 = seg_weights(breaks[k], breaks[k + 1])
        coeff_int[k] += i0
        coeff_int[k + 1] += i1
        coeff_mom[k] += m0
        coeff_mom[k + 1] += m1
    a11 = coeff_int[1] + coeff_int[2]
    a12 = coeff_int[3]
    c1 = coeff_int[0] * A + coeff_int[4] * B
    a21 = coeff_mom[1] + coeff_mom[2]
    a22 = coeff_mom[3]
    c2 = coeff_mom[0] * A + coeff_mom[4] * B
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-300:
        return None
    p1 = ((J - c1) * a22 - a12 * (V - c2)) / det
    p2 = (a11 * (V - c2) - (J - c1) * a21) / det
    if p1 < 0 or p2 < 0:
        return None
    knots = ((0.0, A), (t1, p1), (t2, p1), (t3, p2), (h, B))
    return BridgeSpec(r_a, r_b, knots, va, sa)


def _schedule(L, r_T):
    """Deterministic (r_a, r_b, w1, w3, w2) candidates, best-first."""
    span = -r_T
    amp = 2 * math.pi / L
    # near the degenerate end r_T -> -1 the bridge must cover almost the whole
    # interval (a convex interpolant needs the moment below h * integral), so
    # candidates scaled by the margin |r_T| - 1 are tried as well
    margin = max(span - 1.0, 0.0)
    fas = (0.05, 0.03, 0.08, 0.12, 0.02, 0.01, 0.005, 0.18, 0.25, 0.35,
           0.3 * margin / span, 0.1 * margin / span)
    fbs = (0.005, 0.003, 0.01, 0.02, 0.002, 0.04, 0.08, 0.15,
           0.3 * margin / span, 0.1 * margin / span)
    for fa in fas:
        if fa <= 0:
            continue
        r_a = r_T + fa * span
        for fb in fbs:
            if fb <= 0:
                continue
            r_b = -fb * span
            h = r_b - r_a
            if h <= 0:
                continue
            x = r_a - r_T
            try:
                J = math.exp(r_b) - amp * math.cosh(x)
            except OverflowError:   # amp cosh(x) > 1 >= e^r_b, so J < 0
                continue
            B = math.exp(r_b)
            if J <= 0:
                continue
            ramp = min(2 * J / B, 0.8 * h)
            for fw2 in (0.5, 0.25, 0.75, 0.1):
                w2 = fw2 * ramp
                for fw3 in (0.1, 0.3, 0.6):
                    w3 = fw3 * (h - w2)
                    for fw1 in (0.1, 0.05, 0.2):
                        w1 = fw1 * h
                        if w1 + w3 + w2 < h:
                            yield (r_a, r_b, w1, w3, w2)


def warp_profile(L, r_T=None, grid=512) -> WarpProfile:
    """Construct and grid-verify the radial warp factor for the cone metric.

    Preconditions: L > 2*pi and r_T in (-L/(2*pi), -1); r_T defaults to the
    midpoint of that interval.  Verification on the grid over (r_T, 0]:
    f > 0 everywhere, forward differences of f positive, central second
    differences >= -1e-9 * max|f| * step^2 (`_grid_tests`, which
    `grid_checks` reads too).  Candidate bridges are tried in a fixed
    order; exhaustion raises with the best violation seen.
    """
    L = float(L)
    if not L > 2 * math.pi:
        raise DomainError("need L > 2*pi, got L = %r" % L)
    lo, hi = -L / (2 * math.pi), -1.0
    if r_T is None:
        r_T = (lo + hi) / 2
    r_T = float(r_T)
    if not (lo < r_T < hi):
        raise DomainError("r_T must lie in (%r, %r), got %r" % (lo, hi, r_T))
    if grid < 8:
        raise DomainError("grid too small")
    if grid > MAX_GRID:
        raise ResourceCapError("grid %d is above the cap of %d" % (grid, MAX_GRID))
    rs = tuple(r_T + (i + 1) * (0.0 - r_T) / grid for i in range(grid))
    best_violation = None
    attempts = 0
    for (r_a, r_b, w1, w3, w2) in _schedule(L, r_T):
        attempts += 1
        spec = _solve_bridge(L, r_T, r_a, r_b, w1, w3, w2)
        if spec is None:
            continue
        profile = WarpProfile(L, r_T, spec, rs, None, None, None, attempts)
        f, fp, fpp = zip(*(_eval_profile(profile, r) for r in rs))
        violation = _grid_violation(rs, f)
        if violation is None:
            profile.f, profile.fp, profile.fpp = f, fp, fpp
            return profile
        if best_violation is None or violation[1] < best_violation[1]:
            best_violation = violation
    if best_violation is None:
        raise DomainError(
            "none of the %d candidates in the schedule gave a feasible bridge for "
            "L = %r, r_T = %r; adjust (L, r_T)" % (attempts, L, r_T))
    raise DomainError(
        "no bridge in the schedule passed the grid checks (worst remaining "
        "violation: %s); adjust (L, r_T)" % (best_violation,))


def _grid_tests(rs, f):
    """The three grid tests over the samples f at the grid rs, in order, as
    (kind, worst value, passed): f > 0, forward differences > 0, and second
    differences >= -1e-9 * max|f| * step^2."""
    tol = -1e-9 * max(map(abs, f)) * (rs[1] - rs[0]) ** 2
    fmin = min(f)
    d1 = min(b - a for a, b in zip(f, f[1:]))
    d2 = min(c - 2 * b + a for a, b, c in zip(f, f[1:], f[2:]))
    return (("positivity", fmin, fmin > 0), ("monotonicity", d1, d1 > 0),
            ("convexity", d2, d2 >= tol))


def _grid_violation(rs, f):
    """None when all grid tests pass, else the first failing (kind, signed
    severity)."""
    return next(((kind, worst) for kind, worst, ok in _grid_tests(rs, f) if not ok), None)


def grid_checks(profile: WarpProfile):
    """The acceptance predicate triple (f > 0, f' > 0, f'' tolerance)."""
    return tuple(ok for _, _, ok in _grid_tests(profile.grid, profile.f))
