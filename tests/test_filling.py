from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coxlen.coxeter import INF, Kind, classify_group, gram_matrix
from coxlen.errors import CertificateError, DomainError
from coxlen.filling import (PlaneIsometry, _finite_parabolic_elements,
                            _kernel_min_displacement, boundary_circle_length,
                            build_triangle_model, compute_short_elements,
                            congruence_search, two_pi_certificate)
from coxlen.intervals import PI_HI, PI_LO, TWO_PI_HI, TWO_PI_LO, le_two_pi
from coxlen.tits import gram_signature
from filling_oracles import word_short_elements


def test_pi_enclosure_against_mpmath():
    from mpmath import mp, mpf, pi

    mp.dps = 50
    assert mpf(PI_LO.numerator) / mpf(PI_LO.denominator) < pi
    assert mpf(PI_HI.numerator) / mpf(PI_HI.denominator) > pi
    assert PI_HI - PI_LO < Fraction(1, 10**28)


def test_two_pi_comparison_inside_the_enclosure_raises():
    assert le_two_pi(TWO_PI_LO) and not le_two_pi(TWO_PI_HI)
    with pytest.raises(CertificateError):
        le_two_pi((TWO_PI_LO + TWO_PI_HI) / 2)


def test_model_relation_orders():
    m = build_triangle_model(2, 3)
    assert m.cm.entries == ((1, 2, 3), (2, 1, INF), (3, INF, 1))
    m = build_triangle_model(2, INF)
    assert m.cm.entries == ((1, 2, INF), (2, 1, INF), (INF, INF, 1))
    m = build_triangle_model(INF, INF)
    assert m.cm.entries == ((1, INF, INF), (INF, 1, INF), (INF, INF, 1))


def test_model_generators_are_reflections():
    for args in ((2, 3), (2, INF), (INF, INF)):
        m = build_triangle_model(*args)
        for g in m.generators:
            assert g.reversing
            assert (g * g).is_identity()


def test_unsupported_parameters():
    for bad in ((5, 3), (3, 3), (2, 5), (7, INF)):
        with pytest.raises(DomainError, match="unsupported"):
            build_triangle_model(*bad)


def test_model_group_is_minimal_nonaffine_hyperbolic():
    m = build_triangle_model(2, 3)
    verdict = classify_group(m.cm)
    assert verdict.kind == Kind.NON_AFFINE and verdict.minimal_nonaffine
    assert gram_signature(gram_matrix(m.cm)) == (2, 1, 0)


def test_cusp_geometry_2_3():
    m = build_triangle_model(2, 3)
    assert set(m.cusps) == {0}
    cusp = m.cusps[0]
    assert cusp.vertex is None
    assert cusp.width == 1
    lo, hi = cusp.tau
    assert hi - lo == Fraction(1, 2)  # fundamental segment is width/2


def test_short_elements_2_3_infinity():
    m = build_triangle_model(2, 3)
    elems = compute_short_elements(m, 0, 1)
    translations = sorted(e.parameter for e in elems if e.kind == "translation")
    # oracle: dist(tau, t^j tau) = (|j| - 1/2)/h <= 2*pi iff |j| <= 6
    assert translations == [j for j in range(-6, 7) if j != 0]
    for e in elems:
        if e.kind == "translation":
            assert e.displacement == Fraction(abs(e.parameter)) - Fraction(1, 2)
    # identity never appears
    assert all(not e.matrix.is_identity() for e in elems)
    assert len(elems) == 26


def test_short_elements_closed_under_inversion():
    m = build_triangle_model(2, 3)
    elems = compute_short_elements(m, 0, 1)
    keys = {(e.matrix.m, e.matrix.reversing) for e in elems}
    for e in elems:
        inv = e.matrix.inverse()
        assert (inv.m, inv.reversing) in keys


def test_larger_height_halves_displacements_and_grows_the_set():
    # going from h = 2 down to h = 1 doubles every displacement and shrinks
    # the short set (displacement is linear in 1/h)
    m = build_triangle_model(2, 3)
    at_two = {(e.matrix.m, e.matrix.reversing): e.displacement
              for e in compute_short_elements(m, 0, 2)}
    at_one = {(e.matrix.m, e.matrix.reversing): e.displacement
              for e in compute_short_elements(m, 0, 1)}
    assert set(at_one) <= set(at_two)
    for key, d in at_one.items():
        assert d == 2 * at_two[key]


_MODELS = {pq: build_triangle_model(*pq) for pq in ((2, 3), (2, INF), (INF, INF))}


@st.composite
def _cusp_and_height(draw):
    model = _MODELS[draw(st.sampled_from(sorted(_MODELS)))]
    s = draw(st.sampled_from(sorted(model.cusps)))
    b = draw(st.integers(1, 6))
    return model, s, Fraction(draw(st.integers(b, 12 * b)), b)


@settings(max_examples=80, deadline=None)
@given(_cusp_and_height())
def test_short_elements_match_the_word_oracle(case):
    # words, kinds, parameters, displacements and matrices, in order
    model, s, h = case
    assert compute_short_elements(model, s, h) == word_short_elements(model, s, h)


def test_disjointness_guard():
    m = build_triangle_model(2, 3)
    with pytest.raises(DomainError):
        compute_short_elements(m, 0, Fraction(1, 2))
    compute_short_elements(m, 0, Fraction(3, 2))  # any h >= 1 is fine


def test_no_cusp_error():
    m = build_triangle_model(2, INF)
    with pytest.raises(DomainError):
        compute_short_elements(m, 2, 1)  # V_3 is finite


def test_congruence_search_finds_seven():
    m = build_triangle_model(2, 3)
    cert = congruence_search(m, 1, 100)
    assert cert.prime == 7
    assert cert.kernel_min_displacement == Fraction(13, 2)
    assert cert.margin_positive
    lo, hi = cert.margin_interval
    assert Fraction(21, 100) < lo < hi < Fraction(22, 100)
    # no short element and no nontrivial finite parabolic element is scalar mod 7
    assert not any(e.matrix.is_scalar_mod(7) for elems in cert.short_sets.values()
                   for e in elems)
    assert not any(mat.is_scalar_mod(7) for elems in _finite_parabolic_elements(m).values()
                   for _, mat in elems)


def test_congruence_oracle_mod_five_and_seven():
    # direct matrix arithmetic: t = g3 g2 is z -> z + 1; t^5 is scalar mod 5
    m = build_triangle_model(2, 3)
    t = m.element((2, 1))
    assert t.m == (1, 1, 0, 1)
    t5 = m.element((2, 1) * 5)
    assert t5.is_scalar_mod(5)
    assert not t5.is_scalar_mod(7)
    assert all(not m.element((2, 1) * k).is_scalar_mod(7) for k in range(1, 7))


def test_congruence_search_skips_parabolic_orders_and_caps():
    m = build_triangle_model(2, 3)
    with pytest.raises(DomainError, match=r"no prime <= 6 works; .* tried: "
                                          r"p=5 \(cusp 1, length 10\)$"):
        congruence_search(m, 1, 6)   # 2, 3 excluded; 5 fails on t^5
    with pytest.raises(DomainError, match="prime cap"):
        congruence_search(m, 1, 3)


def test_two_pi_certificate_margins():
    m = build_triangle_model(2, 3)
    cert = congruence_search(m, 1, 100)
    dmin, (lo, hi) = two_pi_certificate(m, cert, 0)
    assert dmin == Fraction(13, 2)
    assert lo > 0
    # margin = 13/2 - 2*pi ~ 0.21681
    assert float(lo) == pytest.approx(0.2168146928204138, abs=1e-12)
    assert boundary_circle_length(m, cert, 0) == 7
    # displacement for a hypothetical larger prime follows the same formula
    assert _kernel_min_displacement(m, m.cusps[0], 11, 1) == Fraction(21, 2)


def test_other_models_certify():
    m = build_triangle_model(INF, INF)
    cert = congruence_search(m, 1, 100)
    assert cert.prime == 5
    assert cert.kernel_min_displacement == 9  # (5*2 - 1)/1
    m2 = build_triangle_model(2, INF)
    cert2 = congruence_search(m2, 1, 100)
    assert cert2.prime == 7
    assert set(cert2.short_sets) == {0, 1}


def test_kernel_is_normal_spot_check():
    # conjugates of scalar-mod-p elements stay scalar mod p
    m = build_triangle_model(2, 3)
    cert = congruence_search(m, 1, 100)
    p = cert.prime
    kernel_elt = m.element((2, 1) * p)
    assert kernel_elt.is_scalar_mod(p)
    for word in ((0,), (0, 1), (1, 2, 0), (0, 2, 1, 0)):
        u = m.element(word)
        conj = u * kernel_elt * u.inverse()
        assert conj.is_scalar_mod(p)


def test_warp_accepts_certified_boundary_bound():
    from coxlen.warp import grid_checks, warp_profile

    m = build_triangle_model(2, 3)
    cert = congruence_search(m, 1, 100)
    profile = warp_profile(float(cert.kernel_min_displacement))
    assert grid_checks(profile) == (True, True, True)


def test_plane_isometry_normalization():
    a = PlaneIsometry.make(-2, 0, 0, -2, False)
    assert a.is_identity()
    b = PlaneIsometry.make(0, 2, 2, 0, True)
    assert b.m == (0, 1, 1, 0)


def test_margin_check_survives_python_O():
    import os
    import subprocess
    import sys

    import coxlen

    # a non-positive margin must still be refused when asserts are stripped
    script = (
        "import coxlen.filling as filling\n"
        "from coxlen.errors import CertificateError\n"
        "from fractions import Fraction\n"
        "filling.margin_over_two_pi = lambda d: (Fraction(-1), Fraction(1))\n"
        "try:\n"
        "    filling.congruence_search(filling.build_triangle_model(2, 3), 1)\n"
        "except CertificateError:\n"
        "    print('raised')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxlen.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"
