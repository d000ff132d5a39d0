import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coxlen import quasimorphism
from coxlen.errors import DomainError, InputError, ResourceCapError
from coxlen.quasimorphism import (FreeCoxeterWord, _cross, _defect_over_window,
                                  _reduced_words_upto, build_certificate,
                                  certify_lower_bound, counting_qm,
                                  defect_window, homogenize, reduce_word)
from qm_oracles import defect_stress_sample, random_reduced_word, two_window_defect


def _H(pattern, word):
    return counting_qm(reduce_word(pattern, 3), reduce_word(word, 3))


# -- word reduction ---------------------------------------------------------


def test_reduce_examples():
    assert reduce_word("aa", 3).letters == ""
    assert reduce_word("abbac", 3).letters == "c"
    assert reduce_word("abc", 3).letters == "abc"


def test_reduce_rejects_out_of_range_letters():
    with pytest.raises(InputError):
        reduce_word("abd", 3)
    with pytest.raises(InputError):
        reduce_word((1, 4), 3)


def test_unreduced_word_is_refused():
    with pytest.raises(InputError):
        FreeCoxeterWord("aa", 3)


def test_unreduced_word_is_refused_under_python_O():
    import os
    import subprocess
    import sys

    import coxlen

    script = (
        "from coxlen.errors import InputError\n"
        "from coxlen.quasimorphism import FreeCoxeterWord\n"
        "try:\n"
        "    FreeCoxeterWord('aa', 3)\n"
        "except InputError:\n"
        "    print('raised')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxlen.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def test_reduce_accepts_integer_tuples():
    assert reduce_word((1, 2, 2, 1, 3), 3).letters == "c"


# -- counting ----------------------------------------------------------------


def test_counting_examples():
    assert _H("ab", "ab") == 1
    assert _H("ab", "ba") == -1
    assert _H("abc", "abc" * 3) == 3


def test_counting_rejects_empty_pattern():
    with pytest.raises(DomainError):
        counting_qm(reduce_word("", 3), reduce_word("ab", 3))


def test_antisymmetry_on_random_words():
    rng = random.Random(1)
    w = reduce_word("abc", 3)
    for _ in range(300):
        g = random_reduced_word(3, rng.randrange(25), rng)
        assert counting_qm(w, g[::-1]) == -counting_qm(w, g)


# -- defect ------------------------------------------------------------------


def _brute_force_defect(pattern, B):
    """Literal enumeration over all pairs of reduced words of length <= B."""
    w = reduce_word(pattern, 3)
    words = [""]
    frontier = [""]
    for _ in range(B):
        frontier = [x + c for x in frontier for c in "abc" if not x or x[-1] != c]
        words.extend(frontier)
    best = 0
    for g in words:
        for h in words:
            d = abs(counting_qm(w, reduce_word(g + h, 3)) -
                    counting_qm(w, reduce_word(g, 3)) -
                    counting_qm(w, reduce_word(h, 3)))
            best = max(best, d)
    return best


@pytest.mark.parametrize("pattern,B", [("ab", 4), ("ab", 5), ("abc", 4), ("abc", 5)])
def test_defect_matches_brute_force(pattern, B):
    w = reduce_word(pattern, 3)
    assert defect_window(w, B).value == _brute_force_defect(pattern, B)


def test_defect_frozen_values():
    # exhaustive enumeration gives 1 for both patterns (see the brute force)
    assert defect_window(reduce_word("ab", 3), 6).value == 1
    d = defect_window(reduce_word("abc", 3), 9)
    assert d.value == 1 and d.stabilized
    g, h = d.pair
    w = reduce_word("abc", 3)
    attained = abs(counting_qm(w, reduce_word(g + h, 3)) -
                   counting_qm(w, reduce_word(g, 3)) -
                   counting_qm(w, reduce_word(h, 3)))
    assert attained == d.value


def test_single_letter_pattern_has_zero_defect():
    d = defect_window(reduce_word("a", 3), 3)
    assert d.value == 0
    # H_a is identically zero: the pattern equals its own inverse
    rng = random.Random(2)
    w = reduce_word("a", 3)
    for _ in range(100):
        assert counting_qm(w, random_reduced_word(3, rng.randrange(30), rng)) == 0


def test_defect_not_stabilized_below_three_pattern_lengths():
    assert not defect_window(reduce_word("abc", 3), 5).stabilized
    assert defect_window(reduce_word("abc", 3), 9).stabilized


def test_defect_window_honours_its_cap(monkeypatch):
    w = reduce_word("abcabcabcabc", 3)
    monkeypatch.setattr(quasimorphism, "MAX_COMBINATIONS", 10_000)
    with pytest.raises(ResourceCapError):
        defect_window(w, 36)


def test_window_soundness_random_sample():
    w = reduce_word("abc", 3)
    claimed = defect_window(w, 9).value
    violations, worst = defect_stress_sample(w, claimed, 20_000, 36, seed=9)
    assert violations == 0 and worst <= claimed


# -- homogenization ------------------------------------------------------------


def test_homogenize_examples():
    w = reduce_word("abc", 3)
    assert homogenize(w, reduce_word("", 3)) == 0
    assert homogenize(w, w) == 1
    assert homogenize(w, reduce_word("a", 3)) == 0


def test_homogeneity_on_powers():
    rng = random.Random(4)
    w = reduce_word("abc", 3)
    for _ in range(40):
        g = random_reduced_word(3, rng.randrange(1, 9), rng)
        base = homogenize(w, reduce_word(g, 3))
        for n in range(1, 11):
            assert homogenize(w, reduce_word(g * n, 3)) == n * base


def _homogenize_by_powers(w, g, n_cap=64):
    """phi_w(g) as the slope of n -> H_w(g^n), read off once |w| + 2
    consecutive first differences agree (the power loop the closed form
    replaced)."""
    gs = reduce_word(g, w.k).letters
    if not gs:
        return Fraction(0)
    values = [0]
    power = ""
    run = 0
    last_diff = None
    for _ in range(n_cap):
        power = reduce_word(power + gs, w.k).letters
        values.append(counting_qm(w, power))
        diff = values[-1] - values[-2]
        if diff == last_diff:
            run += 1
        else:
            run = 1
            last_diff = diff
        if run >= len(w) + 2:
            return Fraction(last_diff)
    raise AssertionError("power differences did not stabilize")


@pytest.mark.parametrize("k,max_pattern,max_g", [(3, 4, 7), (4, 3, 5)])
def test_homogenize_matches_the_power_loop(k, max_pattern, max_g):
    patterns = [w for w in _reduced_words_upto(k, max_pattern)
                if w and (len(w) == 1 or w[0] != w[-1])]
    words = _reduced_words_upto(k, max_g)
    for pattern in patterns:
        w = reduce_word(pattern, k)
        for g in words:
            assert homogenize(w, g) == _homogenize_by_powers(w, g), (pattern, g)


def test_conjugation_invariance():
    rng = random.Random(6)
    w = reduce_word("abc", 3)
    for _ in range(60):
        g = random_reduced_word(3, rng.randrange(12), rng)
        k = random_reduced_word(3, rng.randrange(8), rng)
        conj = reduce_word(k + g + k[::-1], 3)
        assert homogenize(w, conj) == homogenize(w, reduce_word(g, 3))


# -- certificates ---------------------------------------------------------------


def test_certificate_values():
    cert = build_certificate(3, "abc")
    assert cert.raw_defect == 1
    assert cert.homogeneous_defect == 2
    assert cert.generator_max == 0
    assert cert.constant == Fraction(1, 2)
    constant, bounds = certify_lower_bound(cert, "abc", 8)
    assert constant == Fraction(1, 2)
    assert bounds == [1, 1, 2, 2, 3, 3, 4, 4]


def test_certificate_zero_slope_bounds_are_vacuous():
    cert = build_certificate(3, "abc")
    _, bounds = certify_lower_bound(cert, "a", 4)
    assert bounds == [0, 0, 0, 0]
    assert cert.bound_for(reduce_word("ab", 3)) == 0  # finite-order element


def test_certificate_preconditions():
    with pytest.raises(DomainError):
        build_certificate(2, "ab")            # W_2 is Euclidean
    with pytest.raises(DomainError):
        build_certificate(3, "aba")           # not cyclically reduced
    with pytest.raises(DomainError):
        build_certificate(3, "")
    with pytest.raises(DomainError, match="homomorphism"):
        build_certificate(3, "a")             # zero defect, zero slope


def test_certificate_refuses_unstabilized_window():
    with pytest.raises(DomainError, match="not stabilized"):
        build_certificate(3, "abc", window=4)


def test_certificate_bounds_respect_exact_values():
    from coxlen.coxeter import parse_coxeter_matrix
    from coxlen.reflen import exact_reflection_length, get_group

    cert = build_certificate(3, "abc")
    W3 = parse_coxeter_matrix("rank 3; m12=inf m13=inf m23=inf")
    group = get_group(W3)
    for k in range(1, 5):
        value, _ = exact_reflection_length(group, group.element((0, 1, 2) * k))
        assert value >= cert.bound_for(reduce_word("abc", 3), power=k)


def test_certificate_adapter_scope():
    from coxlen.coxeter import parse_coxeter_matrix

    cert = build_certificate(3, "abc")
    free = parse_coxeter_matrix("rank 3; m12=inf m13=inf m23=inf")
    assert cert.lower_bound_for_word(free, (0, 1, 2)) == 1
    not_free = parse_coxeter_matrix("rank 3; m12=3 m13=inf m23=inf")
    assert cert.lower_bound_for_word(not_free, (0, 1, 2)) is None
    wrong_rank = parse_coxeter_matrix("rank 2; m12=inf")
    assert cert.lower_bound_for_word(wrong_rank, (0, 1)) is None


# -- defect window: pinned values and the three-cross oracle -------------------

# (k, pattern, value, defect_pair, stabilized) at the default window 3|w| for
# every cyclically reduced pattern with k = 3, |w| <= 4 and k = 4, |w| <= 3,
# up to relabelling, recorded before the junction tables
DEFECTS = (
    (3, "a", 0, ("", ""), True),
    (3, "ab", 1, ("a", "b"), True),
    (3, "abc", 1, ("a", "bc"), True),
    (3, "abab", 1, ("a", "bab"), True),
    (3, "abac", 1, ("a", "bac"), True),
    (3, "abcb", 1, ("a", "bcb"), True),
    (4, "a", 0, ("", ""), True),
    (4, "ab", 1, ("a", "b"), True),
    (4, "abc", 1, ("a", "bc"), True),
)


def _relabel(word):
    names = {}
    return "".join(names.setdefault(ch, "abcd"[len(names)]) for ch in word)


def test_pinned_patterns_are_every_class():
    for k, length in ((3, 4), (4, 3)):
        classes = set()
        for n in range(1, length + 1):
            for letters in itertools.product("abcd"[:k], repeat=n):
                w = "".join(letters)
                if reduce_word(w, k).letters == w and (n == 1 or w[0] != w[-1]):
                    classes.add(_relabel(w))
        assert classes == {p for kk, p, *_ in DEFECTS if kk == k}


@pytest.mark.parametrize("k,pattern,value,pair,stabilized", DEFECTS)
def test_defect_window_is_pinned(k, pattern, value, pair, stabilized):
    w = reduce_word(pattern, k)
    d = defect_window(w, 3 * len(w))
    assert (d.value, d.pair, d.stabilized) == (value, pair, stabilized)


def _three_cross_defect(w, B):
    """The junction maximum with all three cross terms recomputed per triple."""
    pat = w.letters
    m = len(pat)
    side = _reduced_words_upto(w.k, min(B, m - 1))
    mids = _reduced_words_upto(w.k, min(B, 2 * m - 1) if w.k >= 3 else B)
    best, best_pair = 0, ("", "")
    for c in mids:
        rc = c[::-1]
        for a in side:
            if len(a) + len(c) > B or (a and rc and a[-1] == rc[0]):
                continue
            for b in side:
                if (len(c) + len(b) > B or (c and b and c[-1] == b[0])
                        or (a and b and a[-1] == b[0])):
                    continue
                d = abs(_cross(pat, a, b) - _cross(pat, a, rc) - _cross(pat, c, b))
                if d > best:
                    best, best_pair = d, (a + rc, c + b)
    return best, best_pair


@pytest.mark.parametrize("k,pattern", [(3, "abab"), (3, "abcb"), (3, "abcab"),
                                       (4, "abc"), (4, "abcd"), (5, "abc")])
def test_junction_tables_match_three_cross_oracle(k, pattern):
    w = reduce_word(pattern, k)
    for B in range(len(w), len(w) + 3):
        assert _defect_over_window(w, B) == _three_cross_defect(w, B), B


@st.composite
def _pattern_and_window(draw):
    k = draw(st.sampled_from([2, 3, 4]))
    length = draw(st.integers(1, {2: 6, 3: 4, 4: 3}[k]))
    letters = [draw(st.sampled_from("abcd"[:k]))]
    while len(letters) < length:
        letters.append(draw(st.sampled_from([c for c in "abcd"[:k] if c != letters[-1]])))
    w = reduce_word("".join(letters), k)
    return w, draw(st.integers(len(w), 3 * len(w) + 2))


@settings(max_examples=60, deadline=None)
@given(_pattern_and_window())
def test_one_window_matches_the_two_window_oracle(case):
    w, B = case
    assert defect_window(w, B) == two_window_defect(w, B)

