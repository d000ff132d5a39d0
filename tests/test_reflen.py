import itertools
import random

import pytest

from coxlen.coxeter import parse_coxeter_matrix
from coxlen.errors import DomainError
from coxlen.reflen import (ReflenProtocol, affine_bound_experiment,
                           carter_length_finite, exact_reflection_length,
                           get_group, growth_profile, min_product_length,
                           reflection_distances, reflen_ball, reflen_element,
                           standard_ball)
from coxlen.tits import enumerate_reflections, fixed_space_codim

A2 = parse_coxeter_matrix("rank 2; m12=3")
B2 = parse_coxeter_matrix("rank 2; m12=4")
A3 = parse_coxeter_matrix("rank 3; m12=3 m23=3")
AT1 = parse_coxeter_matrix("rank 2; m12=inf")
AT2 = parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=3")
W3 = parse_coxeter_matrix("rank 3; m12=inf m13=inf m23=inf")


# -- independent oracle: symmetric groups as permutations --------------------


def _perm_reflection_lengths(n):
    """Reflection length on S_n from scratch: BFS over all transpositions."""
    transpositions = [tuple(j if j not in (a, b) else (b if j == a else a)
                            for j in range(n))
                      for a in range(n) for b in range(a + 1, n)]
    identity = tuple(range(n))
    dist = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for t in transpositions:
                q = tuple(p[t[i]] for i in range(n))
                if q not in dist:
                    dist[q] = dist[p] + 1
                    nxt.append(q)
        frontier = nxt
    return dist


def _perm_of_word(word, n):
    perm = list(range(n))
    for s in word:
        perm[s], perm[s + 1] = perm[s + 1], perm[s]
    return tuple(perm)


def test_a2_values_match_symmetric_group_oracle():
    oracle = _perm_reflection_lengths(3)
    group = get_group(A2)
    values = []
    for elt, _ in standard_ball(group, 3).values():
        word = group.reduced_word(elt)
        values.append(exact_reflection_length(group, elt)[0])
        assert values[-1] == oracle[_perm_of_word(word, 3)]
    assert sorted(values) == [0, 1, 1, 1, 2, 2]


def test_a3_against_symmetric_group_oracle():
    oracle = _perm_reflection_lengths(4)
    group = get_group(A3)
    for elt, _ in standard_ball(group, 6).values():
        word = group.reduced_word(elt)
        got = exact_reflection_length(group, elt)[0]
        assert got == oracle[_perm_of_word(word, 4)]


def test_a3_longest_and_coxeter_elements():
    group = get_group(A3)
    w0 = group.element((0, 1, 0, 2, 1, 0))
    assert group.length(w0) == 6
    # w0 is the permutation (1 4)(2 3): two disjoint transpositions
    assert exact_reflection_length(group, w0)[0] == 2
    assert exact_reflection_length(group, group.element((0, 1, 2)))[0] == 3


def test_carter_equality_exhaustive():
    for cm, radius in ((A2, 3), (B2, 4), (A3, 6)):
        group = get_group(cm)
        for elt, _ in standard_ball(group, radius).values():
            value = exact_reflection_length(group, elt)[0]
            assert value == carter_length_finite(cm, group.reduced_word(elt))


def test_carter_rejects_nonspherical():
    with pytest.raises(DomainError):
        carter_length_finite(AT1, (0,))


def test_infinite_dihedral_closed_form():
    group = get_group(AT1)
    for elt, length in standard_ball(group, 12).values():
        value = exact_reflection_length(group, elt)[0]
        assert value == (0 if length == 0 else 1 if length % 2 else 2)


def test_translation_in_affine_triangle_group():
    group = get_group(AT2)
    translation = group.element((0, 1, 2, 0, 1, 2))
    assert group.length(translation) == 6
    value, witness = exact_reflection_length(group, translation)
    assert value == 4 and len(witness) == 4
    # independent check against the full depth-10 reflection set: no product
    # of two of them equals the translation, but some product of four does
    refl = enumerate_reflections(group.gram, 10)
    pair_products = {}
    for r1 in refl:
        for r2 in refl:
            p = r1.element * r2.element
            pair_products.setdefault(p.key, p)
    assert translation.key not in pair_products
    assert any((p.inverse() * translation).key in pair_products
               for p in pair_products.values())


def test_reflen_ball_basics():
    ball = reflen_ball(A2, 3, 2)
    assert sorted(r.upper for r in ball.results.values()) == [0, 1, 1, 1, 2, 2]
    by_len = {}
    for res in ball.results.values():
        assert res.upper is not None
        assert res.upper % 2 == res.len_s % 2
        assert res.lower <= res.upper
        by_len.setdefault(res.len_s, []).append(res.upper)
    assert by_len[0] == [0]
    assert sorted(by_len[1]) == [1, 1]
    # witness words multiply back to the element
    group = get_group(A2)
    for res in ball.results.values():
        if res.witness:
            prod = group.identity
            for word in res.witness:
                prod = prod * group.element(word)
            assert prod.key == res.element.key


def _truncated_distances(group, reflections, targets):
    """l_R^(D) by plain BFS in Cayley(W, R_D) until every target is reached."""
    dist = {group.identity.key: 0}
    frontier = [group.identity]
    level = 0
    while not set(targets) <= dist.keys():
        level += 1
        nxt = []
        for x in frontier:
            for r in reflections:
                y = x * r.element
                if y.key not in dist:
                    dist[y.key] = level
                    nxt.append(y)
        frontier = nxt
    return dist


@pytest.mark.parametrize("text,L,D", [
    ("rank 2; m12=inf", 8, 3),
    ("rank 3; m12=3 m13=3 m23=3", 4, 2),
    ("rank 3; m12=3 m13=3 m23=4", 4, 2),
    ("rank 3; m12=3 m23=5", 6, 4),
])
def test_ball_uppers_match_plain_bfs(text, L, D):
    cm = parse_coxeter_matrix(text)
    group = get_group(cm)
    ball = reflen_ball(cm, L, D)
    assert not ball.capped
    oracle = _truncated_distances(group, enumerate_reflections(group.gram, D),
                                  ball.results.keys())
    dist, capped = reflection_distances(group, enumerate_reflections(group.gram, D),
                                        ball.results.keys(), L)
    assert not capped
    for key, res in ball.results.items():
        assert res.upper == oracle[key] == dist[key][0]
        prod = group.identity
        for word in res.witness:
            prod = prod * group.element(word)
        assert prod.key == key


def test_ball_search_cap_leaves_rows_unsettled():
    t334 = parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4")
    full = reflen_ball(t334, 5, 4)
    capped = reflen_ball(t334, 5, 4, node_cap=100)
    assert capped.capped and not full.capped
    assert capped.results.keys() == full.results.keys()
    unsettled = [r for r in capped.results.values() if r.upper is None]
    assert unsettled and len(unsettled) < len(capped.results)
    for key, res in capped.results.items():
        if res.upper is None:
            assert res.status == "Bracketed" and res.capped
        else:
            assert res.upper == full.results[key].upper


def test_shared_search_gives_each_target_its_own_hit():
    group = get_group(parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4"))
    factors = [r.element for r in enumerate_reflections(group.gram, 2)]
    targets = [(elt, n_max) for (elt, len_s), n_max in
               zip(standard_ball(group, 4).values(), itertools.cycle((4, 3, 1, 0)))]
    hits, capped = min_product_length(group, targets, factors)
    assert not capped and any(h is None for h in hits)
    assert hits == [min_product_length(group, [t], factors)[0][0] for t in targets]


def test_infinite_dihedral_ball_translation_value():
    ball = reflen_ball(AT1, 6, 6)
    group = get_group(AT1)
    target = group.element((0, 1) * 3)
    res = ball.results[target.key]
    assert res.upper == 2 and res.status == "Exact"


def test_truncation_monotone_in_depth():
    uppers = {}
    for d in (1, 2, 4):
        ball = reflen_ball(AT1, 8, d)
        uppers[d] = {k: r.upper for k, r in ball.results.items()}
    for k in uppers[1]:
        assert uppers[4][k] <= uppers[2][k] <= uppers[1][k]


def test_reflen_element_exact_and_bracketed_paths():
    res = reflen_element(W3, (0, 1, 2))
    assert res.upper == res.lower == 3 and res.status == "Exact"
    assert "inversion-complete" in res.lower_sources
    # parity alone certifies 3 here: odd and not a reflection
    no_solver = ReflenProtocol(use_exact_solver=False)
    res2 = reflen_element(W3, (0, 1, 2), no_solver)
    assert res2.upper == 3
    assert res2.status in ("Exact", "Bracketed")
    assert res2.lower <= 3


def test_two_reflection_products_solve_to_at_most_two():
    # a failure here would mean a short factorization exists that no
    # inversion factorization matches, refuting the exactness mechanism
    t334 = parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4")
    for cm in (AT2, t334, W3):
        group = get_group(cm)
        refl = enumerate_reflections(group.gram, 4)
        rng = random.Random(8)
        for _ in range(15):
            r1, r2 = rng.choice(refl), rng.choice(refl)
            g = r1.element * r2.element
            value, _ = exact_reflection_length(group, g)
            assert value <= 2


def test_solver_matches_truncated_ladder_uppers():
    # the ladder value is an upper bound for the exact value; on a small
    # Euclidean ball the two coincide, cross-validating the exact route
    group = get_group(AT2)
    ladder = ReflenProtocol(use_exact_solver=False, d_cap=8)
    for elt, _ in standard_ball(group, 4).values():
        word = group.reduced_word(elt)
        exact = exact_reflection_length(group, elt)[0]
        bracketed = reflen_element(AT2, word, ladder)
        assert bracketed.upper == exact


def test_conjugation_invariance_spot_checks():
    group = get_group(AT2)
    rng = random.Random(11)
    for _ in range(10):
        word = tuple(rng.randrange(3) for _ in range(rng.randint(1, 6)))
        conj = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4)))
        w = group.element(word)
        k = group.element(conj)
        kwk = k * w * k.inverse()
        assert exact_reflection_length(group, w)[0] == \
            exact_reflection_length(group, kwk)[0]


def test_restriction_to_special_subgroups():
    # dihedral parabolic of the (3,3,4) triangle group
    t334 = parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4")
    dihedral = parse_coxeter_matrix("rank 2; m12=3")
    big, small = get_group(t334), get_group(dihedral)
    for word in [(0,), (0, 1), (0, 1, 0), (1, 0, 1, 0)]:
        a = exact_reflection_length(big, big.element(word))[0]
        b = exact_reflection_length(small, small.element(word))[0]
        assert a == b
    # Euclidean triangle parabolic of the rank-4 all-threes group
    r4 = parse_coxeter_matrix("rank 4; m12=3 m13=3 m14=3 m23=3 m24=3 m34=3")
    big = get_group(r4)
    small = get_group(AT2)
    for elt, _ in standard_ball(small, 4).values():
        word = small.reduced_word(elt)
        assert exact_reflection_length(big, big.element(word))[0] == \
            exact_reflection_length(small, elt)[0]


def test_quotient_monotonicity_on_dihedral():
    # words map through I2(6) ->> I2(3); the quotient length never exceeds
    hexagon, triangle = parse_coxeter_matrix("rank 2; m12=6"), A2
    g6, g3 = get_group(hexagon), get_group(triangle)
    for elt, _ in standard_ball(g6, 6).values():
        word = g6.reduced_word(elt)
        src = exact_reflection_length(g6, elt)[0]
        dst = exact_reflection_length(g3, g3.element(word))[0]
        assert dst <= src


def test_affine_bound_examples():
    rec = affine_bound_experiment(AT1, 12)
    assert (rec.max_value, rec.bound, rec.attained) == (2, 2, True)
    prod = parse_coxeter_matrix("rank 4; m12=inf m34=inf")
    rec = affine_bound_experiment(prod, 8)
    assert (rec.max_value, rec.bound, rec.attained) == (4, 4, True)


def test_affine_bound_rejects_bad_inputs():
    with pytest.raises(DomainError):
        affine_bound_experiment(A2, 4)
    with pytest.raises(DomainError):
        # spherical factor attached to a Euclidean one
        affine_bound_experiment(parse_coxeter_matrix("rank 3; m12=inf"), 4)


def test_growth_profiles():
    rec = growth_profile(AT1, (0, 1), 10)
    assert all(r.upper == 2 and r.status == "Exact" for _, r in rec.powers)
    rec = growth_profile(AT1, (0,), 5)
    assert [r.upper for _, r in rec.powers] == [1, 0, 1, 0, 1]
    with pytest.raises(DomainError):
        growth_profile(AT1, (0,), 0)


def test_result_parity_and_ordering_invariants():
    ball = reflen_ball(AT2, 4, 4)
    for res in ball.results.values():
        assert res.upper is None or res.upper % 2 == res.len_s % 2
        assert res.lower >= fixed_space_codim(res.element)


def test_witness_check_survives_python_O():
    import os
    import subprocess
    import sys

    import coxlen

    # l_R(abc) = 3 in W3, so two of its inversions cannot multiply to it
    script = (
        "from coxlen.coxeter import parse_coxeter_matrix\n"
        "from coxlen.errors import CertificateError\n"
        "from coxlen.reflen import _witness, get_group, inversion_reflections\n"
        "group = get_group(parse_coxeter_matrix('rank 3; m12=inf m13=inf m23=inf'))\n"
        "g = group.element((0, 1, 2))\n"
        "invs = inversion_reflections(group, group.reduced_word(g))\n"
        "try:\n"
        "    _witness(group, invs, (0, 1), g)\n"
        "except CertificateError:\n"
        "    print('raised')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxlen.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"
