import dataclasses
import math

import numpy as np
import pytest

from coxlen.cli import main
from coxlen.errors import DomainError
from coxlen.warp import (_apex, _boundary, _bridge_eval, _grid_violation,
                         grid_checks, warp_profile)


def test_analytic_pieces_are_convex():
    # (e^r)'' = e^r > 0 and ((2pi/L) sinh(r - r_T))'' = (2pi/L) sinh(r - r_T) > 0
    L, r_T = 6.5, -1.02
    for r in np.linspace(r_T + 1e-6, 0, 50):
        assert _apex(L, r_T, r)[2] > 0
    for r in np.linspace(-1, 0, 50):
        assert _boundary(r)[2] > 0


def test_construction_at_certified_length():
    profile = warp_profile(6.5, r_T=-1.02)
    assert grid_checks(profile) == (True, True, True)
    assert len(profile.grid) == 512


def test_construction_at_midpoint_default():
    L = 6.5
    profile = warp_profile(L)
    lo, hi = -L / (2 * math.pi), -1.0
    assert profile.r_T == pytest.approx((lo + hi) / 2)
    assert grid_checks(profile) == (True, True, True)


def test_endpoint_pieces_match_exactly():
    L = 6.5
    profile = warp_profile(L)
    amp = 2 * math.pi / L
    for r, f in zip(profile.grid, profile.f):
        if r <= profile.r_a:
            assert f == amp * math.sinh(r - profile.r_T)
        if r >= profile.r_b:
            assert f == math.exp(r)


def test_joins_are_c2():
    profile = warp_profile(6.5)
    apex_end = _apex(profile.L, profile.r_T, profile.r_a)
    bridge_start = _bridge_eval(profile.bridge, profile.r_a)
    assert apex_end == bridge_start
    bridge_end = _bridge_eval(profile.bridge, profile.r_b)
    boundary_start = _boundary(profile.r_b)
    for x, y in zip(bridge_end, boundary_start):
        assert x == pytest.approx(y, abs=1e-12)


def test_second_difference_tolerance():
    profile = warp_profile(6.5)
    f = np.asarray(profile.f)
    step = float(profile.grid[1] - profile.grid[0])
    d2 = (f[2:] - 2 * f[1:-1] + f[:-2]) / step ** 2
    assert d2.min() >= -1e-9 * float(np.abs(f).max())


def test_preconditions():
    with pytest.raises(DomainError):
        warp_profile(6.0)                 # below 2*pi
    with pytest.raises(DomainError):
        warp_profile(6.5, r_T=-0.9)       # above -1
    with pytest.raises(DomainError):
        warp_profile(6.5, r_T=-1.2)       # below -L/2pi


@pytest.mark.parametrize("L", [1e5, 1e308])
def test_lengths_beyond_float_cosh_fail_the_construction(L):
    # amp cosh(r_a - r_T) overflows for every candidate: no feasible bridge
    with pytest.raises(DomainError, match="feasible bridge"):
        warp_profile(L)


def test_profile_positive_and_increasing_everywhere():
    for L in (6.5, 7.0, 9.0, 21.0):
        profile = warp_profile(L)
        assert profile.f[0] > 0
        assert np.diff(profile.f).min() > 0
        assert profile.f[-1] == 1.0       # e^0 at the boundary


def test_equal_lengths_give_identical_profiles():
    # profiles are a deterministic function of the boundary isometry class
    a = warp_profile(9.0)
    b = warp_profile(9.0)
    assert np.array_equal(a.f, b.f)
    assert a.bridge == b.bridge


def test_profile_columns_are_tuples_of_floats():
    profile = warp_profile(9.0, grid=64)
    for column in (profile.grid, profile.f, profile.fp, profile.fpp):
        assert type(column) is tuple and len(column) == 64
        assert all(type(x) is float for x in column)


# f on grid index i, each failing exactly one grid test
_PLANTED = {
    "positivity": lambda i, n: -1.0 + (i / n) ** 2,           # increasing, convex
    "monotonicity": lambda i, n: 1.0 + (i / n - 0.5) ** 2,    # positive, convex
    "convexity": lambda i, n: 1.0 + math.sqrt(i / n),         # positive, increasing
}


def _planted(kind):
    profile = warp_profile(6.5, grid=64)
    n = len(profile.grid)
    return dataclasses.replace(profile, f=tuple(_PLANTED[kind](i, n) for i in range(n)))


@pytest.mark.parametrize("kind", sorted(_PLANTED))
def test_grid_checks_and_grid_violation_agree_on_a_planted_failure(kind):
    profile = _planted(kind)
    checks = grid_checks(profile)
    assert checks == tuple(k != kind for k in ("positivity", "monotonicity", "convexity"))
    assert _grid_violation(profile.grid, profile.f)[0] == kind


def test_grid_checks_and_grid_violation_agree_on_an_accepted_profile():
    profile = warp_profile(6.5)
    assert grid_checks(profile) == (True, True, True)
    assert _grid_violation(profile.grid, profile.f) is None


@pytest.mark.parametrize("kind", sorted(_PLANTED))
def test_warp_command_refuses_a_profile_failing_its_grid_checks(kind, tmp_path, capsys,
                                                                monkeypatch):
    profile = _planted(kind)
    monkeypatch.setattr("coxlen.cli.warp_profile", lambda *args: profile)
    out = tmp_path / "out"
    assert main(["warp", "--L", "6.5", "--output", str(out)]) == 3
    assert "grid checks" in capsys.readouterr().err
    assert not out.exists()

