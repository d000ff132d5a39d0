import collections
import hashlib
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import coxlen.reflen
from coxlen.coxeter import INF, CoxeterMatrix, classify_group, parse_coxeter_matrix
from coxlen.errors import CertificateError, DomainError, ResourceCapError
from coxlen.reflen import (NODE_CAP, AffineBoundRecord, ReflenProtocol,
                           affine_bound_experiment,
                           carter_length_finite, exact_reflection_length,
                           get_group, get_reflections, growth_profile,
                           inversion_reflections, min_product_length,
                           reflection_distances, reflen_ball, reflen_element,
                           standard_ball)
from coxlen.tits import (GroupElement, enumerate_reflections, fixed_space_codim,
                         row_factor, row_key)
from tits_oracles import image_root, matrix_is_built

A2 = parse_coxeter_matrix("rank 2; m12=3")
B2 = parse_coxeter_matrix("rank 2; m12=4")
A3 = parse_coxeter_matrix("rank 3; m12=3 m23=3")
AT1 = parse_coxeter_matrix("rank 2; m12=inf")
AT2 = parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=3")
W3 = parse_coxeter_matrix("rank 3; m12=inf m13=inf m23=inf")
W4 = parse_coxeter_matrix("rank 4; m12=inf m13=inf m14=inf m23=inf m24=inf m34=inf")


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
    assert len(group.reduced_word(w0)) == 6
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
    assert len(group.reduced_word(translation)) == 6
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
    assert any((group.element(p.word[::-1]) * translation).key in pair_products
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


def test_ball_search_cap_raises():
    # the 57-element ball fits under a cap of 100, the search's second layer
    # over the 24 reflections of depth <= 4 does not, and no row is returned
    t334 = parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4")
    assert len(reflen_ball(t334, 5, 4).results) == 57
    with pytest.raises(ResourceCapError, match="node cap of 100 stored"):
        reflen_ball(t334, 5, 4, node_cap=100)


def test_affine_bound_search_cap_raises():
    # the 31-element A~2 ball of radius 4 fits under a cap of 60, its search
    # at D = 3 does not; no verdict is drawn from the rows it settled
    protocol = ReflenProtocol(node_cap=60)
    assert len(standard_ball(get_group(AT2), 4, protocol.node_cap)) == 31
    with pytest.raises(ResourceCapError, match="node cap of 60 stored"):
        affine_bound_experiment(AT2, 4, protocol)
    assert affine_bound_experiment(AT2, 4, ReflenProtocol(node_cap=100)).max_value == 3


def test_shared_search_gives_each_target_its_own_hit():
    group = get_group(parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4"))
    factors = [r.element for r in enumerate_reflections(group.gram, 2)]
    targets = [(elt, n_max) for (elt, len_s), n_max in
               zip(standard_ball(group, 4).values(), itertools.cycle((4, 3, 1, 0)))]
    hits = min_product_length(group, targets, factors)
    assert any(h is None for h in hits)
    assert hits == [min_product_length(group, [t], factors)[0] for t in targets]


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
        kwk = k * w * group.element(conj[::-1])
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


# -- the affine experiment reads one shared search at D = L - 1 ---------------

CT2 = parse_coxeter_matrix("rank 3; m12=4 m23=4")
GT2 = parse_coxeter_matrix("rank 3; m12=6 m23=3")
AT3 = parse_coxeter_matrix("rank 4; m12=3 m23=3 m34=3 m14=3")


def _affine_bound_oracle(cm, L):
    """The experiment as a per-element loop: the exact solver on each ball
    element.  Returns (value by key, AffineBoundRecord)."""
    n = cm.rank - len(classify_group(cm).components)
    group = get_group(cm)
    ball = standard_ball(group, L)
    values = {}
    for key, (elt, _) in ball.items():
        # a ball element is first reached at its own level, so its BFS
        # word is reduced
        values[key] = exact_reflection_length(group, elt, reduced_word=elt.word)[0]
    counts = collections.Counter(values.values())
    max_value = max(counts)
    return values, AffineBoundRecord(cm, L, n, 2 * n, max_value, max_value == 2 * n,
                                     dict(sorted(counts.items())), len(ball))


@pytest.mark.parametrize("text,L", [
    ("rank 2; m12=inf", 12), ("rank 3; m12=3 m13=3 m23=3", 8),
    ("rank 3; m12=4 m23=4", 10), ("rank 3; m12=6 m23=3", 10),
    ("rank 3; m12=inf m13=inf m23=inf", 5), ("rank 3; m12=3 m23=5", 8),
    ("rank 3; m12=3 m13=3 m23=4", 6), ("rank 4; m12=4 m23=3 m34=4 m14=3", 4)])
def test_ball_inversions_have_root_depth_below_the_radius(text, L):
    # the j-th inversion of a reduced word has root depth <= j - 1 <= L - 1
    group = get_group(parse_coxeter_matrix(text))
    keys = {r.element.key for r in get_reflections(group, max(L - 1, 0))}
    for elt, _ in standard_ball(group, L).values():
        for t in inversion_reflections(group, elt.word):
            assert t.key in keys, elt.word


@pytest.mark.parametrize("cm,L", [(AT1, 12), (AT2, 8), (CT2, 10), (GT2, 10), (AT3, 6)])
def test_affine_bound_matches_the_per_element_solver(cm, L):
    values, record = _affine_bound_oracle(cm, L)
    ball = reflen_ball(cm, L, L - 1)
    assert {key: res.upper for key, res in ball.results.items()} == values
    assert affine_bound_experiment(cm, L) == record


def test_affine_bound_runs_no_per_element_solve(monkeypatch):
    import coxlen.reflen

    def refuse(*args, **kwargs):
        raise AssertionError("the affine experiment solved an element on its own")

    monkeypatch.setattr(coxlen.reflen, "exact_reflection_length", refuse)
    monkeypatch.setattr(coxlen.reflen, "inversion_reflections", refuse)
    # nor a lower bound, which the experiment never reads
    monkeypatch.setattr(coxlen.reflen, "fixed_space_codim", refuse)
    rec = affine_bound_experiment(AT2, 8)
    assert (rec.max_value, rec.bound, rec.attained) == (4, 4, True)


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


def _corrupted_search(monkeypatch):
    """Make min_product_length swap the last factor of every nonempty hit."""
    import coxlen.reflen

    real = coxlen.reflen.min_product_length

    def corrupted(group, targets, factors, cap=2_000_000):
        return [h if not h or not h[1] else
                (h[0], h[1][:-1] + ((h[1][-1] + 1) % len(factors),))
                for h in real(group, targets, factors, cap)]

    monkeypatch.setattr(coxlen.reflen, "min_product_length", corrupted)


def test_ladder_remultiplies_its_witness(monkeypatch):
    no_solver = ReflenProtocol(use_exact_solver=False)
    assert reflen_element(W3, (0, 1, 2), no_solver).upper == 3
    _corrupted_search(monkeypatch)
    with pytest.raises(CertificateError):
        reflen_element(W3, (0, 1, 2), no_solver)


def test_ball_remultiplies_its_witnesses(monkeypatch):
    assert len(reflen_ball(AT2, 3, 2).results) == 19
    _corrupted_search(monkeypatch)
    with pytest.raises(CertificateError):
        reflen_ball(AT2, 3, 2)


def _reference_ladder(group, g, len_s, d_cap):
    """The ladder with a fresh enumeration per rung D = 2, 4, ... <= d_cap,
    stopping after two stable increments: (upper, witness, depth_used)."""
    upper, witness, depth_used, stable = None, None, None, 0
    for D in range(2, d_cap + 1, 2):
        reflections = enumerate_reflections(group.gram, D)
        (hit,) = min_product_length(group, [(g, len_s)],
                                    [r.element for r in reflections])
        if hit is not None:
            stable = stable + 1 if hit[0] == upper else 0
            upper = hit[0]
            witness = tuple(reflections[i].word for i in hit[1])
            depth_used = D
            if stable >= 2:
                break
    return upper, witness, depth_used


@pytest.mark.parametrize("cm,d_cap", [(W3, 2), (W3, 4), (AT2, 6),
                                      (parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4"), 5)])
def test_ladder_matches_one_enumeration_per_rung(cm, d_cap):
    group = get_group(cm)
    protocol = ReflenProtocol(use_exact_solver=False, d_cap=d_cap)
    rng = random.Random(d_cap)
    for _ in range(6):
        word = tuple(rng.randrange(cm.rank) for _ in range(rng.randint(3, 9)))
        res = reflen_element(cm, word, protocol)
        assert (res.upper, res.witness, res.depth_used) == _reference_ladder(
            group, res.element, res.len_s, d_cap), word


def test_depth_used_is_none_when_no_rung_gives_the_bound():
    # no rung runs below D = 2; when the solver and every rung exceed a cap
    # of 5, that cap is raised rather than a result without a bound
    for protocol in (ReflenProtocol(use_exact_solver=False, d_cap=0),
                     ReflenProtocol(use_exact_solver=False, d_cap=1)):
        res = reflen_element(W3, (0, 1, 2, 0, 1, 2), protocol)
        assert (res.upper, res.witness, res.depth_used) == (None, None, None)
    with pytest.raises(ResourceCapError, match="node cap of 5 stored"):
        reflen_element(W3, (0, 1, 2, 0, 1, 2), ReflenProtocol(d_cap=4, node_cap=5))


def test_a_top_rung_whose_enumeration_exceeds_the_cap_gives_way():
    # W3 has 3, 9, 21, 45 and 93 reflections of root depth <= 0 .. 4: under a
    # cap of 50 the enumeration to depth 6 stops before building depth 5, the
    # depth <= 6 prefix of a deeper enumeration is refused alike, and the
    # ladder runs the rungs D = 2 and 4 instead
    group = get_group(W3)
    refused = "root depth < 6 exceeded the node cap of 50 stored"
    with pytest.raises(ResourceCapError, match=refused):
        enumerate_reflections(group.gram, 6, 50)
    assert len(get_reflections(group, 8)) == 3 * (2 ** 9 - 1)
    with pytest.raises(ResourceCapError, match=refused):
        get_reflections(group, 6, 50)
    assert len(get_reflections(group, 4, 50)) == 93
    res = reflen_element(W3, (0, 1, 2), ReflenProtocol(use_exact_solver=False, d_cap=6,
                                                       node_cap=50))
    assert (res.upper, res.depth_used) == (3, 4)


# -- the search's witness contract against brute force --------------------------


def _least_factorizations(group, targets, factors):
    """Brute force per (g, n_max) target: the least n of n_max's parity, then
    the lexicographically least index tuple of length n whose product is g,
    or None."""
    products = {(): group.identity}

    def product(indices):
        if indices not in products:
            products[indices] = product(indices[:-1]) * factors[indices[-1]]
        return products[indices]

    def least(g, n_max):
        if g.is_identity():
            return 0, ()
        for n in range(2 - n_max % 2, n_max + 1, 2):
            for indices in itertools.product(range(len(factors)), repeat=n):
                if product(indices).key == g.key:
                    return n, indices
        return None

    return [least(g, n_max) for g, n_max in targets]


T334 = parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4")
H3 = parse_coxeter_matrix("rank 3; m12=3 m23=5")
B4H = parse_coxeter_matrix("rank 4; m12=4 m23=3 m34=4 m14=3")


def _witness_cases():
    """(group, factors, targets): R_2 of four groups against their radius-3
    balls, and the inversion sets of a few words against their own word and
    a radius-2 ball, at n_max from l_S to l_S + 3 (mostly misses)."""
    for cm in (W3, AT2, T334, H3):
        group = get_group(cm)
        factors = [r.element for r in enumerate_reflections(group.gram, 2)]
        yield group, factors, [(elt, len_s) for elt, len_s
                               in standard_ball(group, 3).values()]
    for cm, word in ((W3, (0, 1, 2, 0, 1)), (AT2, (0, 1, 2, 0, 1, 2)),
                     (T334, (0, 1, 2, 1, 0)), (H3, (0, 1, 2, 1))):
        group = get_group(cm)
        g = group.element(word)
        rw = group.reduced_word(g)
        factors = inversion_reflections(group, rw)
        ball = standard_ball(group, 2).values()
        targets = [(g, len(rw))] + [(elt, len_s + extra) for (elt, len_s), extra
                                    in zip(ball, itertools.cycle((0, 1, 2, 3)))]
        yield group, factors, targets


def _target_forms(group, targets):
    """The targets as given, without a word (as `reflection_distances`
    builds them) and with a non-reduced word."""
    rank = group.cm.rank
    yield targets
    yield [(GroupElement(group.gram, g.packed), n_max) for g, n_max in targets]
    yield [(group.element(g.word[:i % 3] + (i % rank,) * 2 + g.word[i % 3:]), n_max)
           for i, (g, n_max) in enumerate(targets)]


def test_search_hit_is_the_least_index_tuple_of_least_length():
    lengths = set()
    for group, factors, targets in _witness_cases():
        oracle = _least_factorizations(group, targets, factors)
        lengths.update(h and h[0] for h in oracle)
        for form in _target_forms(group, targets):
            # one target at a time (odd n walks the children of each prefix) ...
            for target, expected in zip(form, oracle):
                assert min_product_length(group, [target], factors) == [expected]
            # ... and all of them in one shared search
            assert min_product_length(group, form, factors) == oracle
    # misses, and hits at odd and even n beyond a single factor
    assert {None, 2, 3, 4} <= lengths


def test_single_odd_target_settles_without_the_next_layer():
    # l_R(abc) = 3 in W3; over the 93 reflections of R_4 the odd probe at
    # n = 3 needs only layer 1 and the children of its first few prefixes,
    # so a cap far below the 93^2 products of layer 2 does not stop it
    group = get_group(W3)
    factors = [r.element for r in enumerate_reflections(group.gram, 4)]
    assert len(factors) == 93
    target = group.element((0, 1, 2))
    assert min_product_length(group, [(target, 3)], factors, cap=1000) == \
        [(3, (0, 3, 11))]
    assert min_product_length(group, [(target, 3)], factors) == [(3, (0, 3, 11))]


def _layer_sizes(group, factors, k):
    """|L_1|, ..., |L_k|: the distinct products of 1, ..., k factors, on row keys."""
    products = [row_factor(t) for t in factors]
    layer = {product(row_key(group.identity)) for product in products}
    sizes = [len(layer)]
    for _ in range(k - 1):
        layer = {product(key) for key in layer for product in products}
        sizes.append(len(layer))
    return sizes


@st.composite
def _last_probe_case(draw):
    """(group, factors, g): a rank 3-4 diagram, an element of l_S 4-10, and
    the reflections of depth <= 2 or 4, or the element's inversions.  Depth 4
    is drawn at rank 3 only: at rank 4 it holds up to ~480 reflections, whose
    second layer takes seconds to build."""
    n = draw(st.integers(3, 4))
    entries = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entries[i][j] = entries[j][i] = draw(st.sampled_from([2, 3, 4, 6, INF]))
    group = get_group(CoxeterMatrix.make(entries))
    g = group.element(tuple(draw(st.lists(st.integers(0, n - 1), min_size=4,
                                          max_size=10))))
    rw = group.reduced_word(g)
    assume(len(rw) >= 4)
    D = draw(st.sampled_from([None, 2, 4] if n == 3 else [None, 2]))
    if D is None:
        return group, inversion_reflections(group, rw), g
    return group, [r.element for r in get_reflections(group, D)], g


def _check_last_probe(group, factors, g):
    """The single-target search for g with n_max = l_S, and at n_max = n, its
    hit's length, against the same search run to n + 2, whose probe at n is
    not its last and builds the layers it walks: the same hit, and the same
    hit or cap error at caps around stored + |L_(a-1)| |factors| for n = 2a."""
    len_s = len(group.reduced_word(g))

    def search(n_max, cap=NODE_CAP):
        try:
            return min_product_length(group, [(g, n_max)], factors, cap)
        except ResourceCapError as e:
            return str(e)

    (hit,) = search(len_s)
    n = hit[0]
    caps = [len(factors), NODE_CAP]
    if n % 2 == 0 and n >= 4:
        sizes = _layer_sizes(group, factors, n // 2 - 1)
        rule = len(factors) + sum(sizes[1:]) + sizes[-1] * len(factors)
        caps += [rule - 1, rule, rule + 1]
    assert search(n) == [hit]
    settled = None   # a cap only raises: the built result under the least cap it settles at
    for cap in sorted(caps):
        expected = settled or search(n + 2, cap)
        if not isinstance(expected, str):
            settled = expected
        assert search(n, cap) == expected, cap


@settings(max_examples=100, deadline=None)
@given(_last_probe_case())
def test_a_last_even_probe_hits_as_the_built_layer_does(case):
    # a single target whose last probe n = 2a is even walks the children of
    # layer a - 1 instead of building layer a, when the cap allows building it
    _check_last_probe(*case)


def _counted(factors):
    """Copies of the factors read only through their products, and a list
    whose one entry counts the row products made through them."""
    count = [0]

    def counting(product):
        def apply(row):
            count[0] += 1
            return product(row)
        return apply

    copies = [_product_only(t) for t in factors]
    for copy in copies:
        copy._factor = counting(copy._factor)
    return copies, count


def test_a_last_even_probe_stops_at_its_first_hit():
    # l_R^(4)(bcacbabc) = 4 in W3: over the 93 reflections of R_4 the probe
    # at n = n_max = 4 stops at its first hit, where building layer 2 makes
    # 93^2 = 8649 row products before it is walked
    group = get_group(W3)
    factors, count = _counted([r.element for r in get_reflections(group, 4)])
    g = group.element((1, 2, 0, 2, 1, 0, 1, 2))
    assert min_product_length(group, [(g, 4)], factors) == [(4, (0, 2, 19, 11))]
    assert count[0] <= 398
    # at n_max = 6 the probe at 4 is not the last, so it builds layer 2
    count[0] = 0
    assert min_product_length(group, [(g, 6)], factors) == [(4, (0, 2, 19, 11))]
    assert count[0] <= 8841
    res = reflen_element(W3, g.word, ReflenProtocol(use_exact_solver=False, d_cap=4))
    assert (res.upper, res.lower, res.status, res.depth_used) == (4, 2, "Bracketed", 4)
    assert res.witness == ((2,), (0,), (0, 2, 1, 2, 0), (2, 1, 0, 1, 2))
    # past the budget of 2 |L_(a-1)| children the layer is built and walked:
    # over the inversions of dcbdabcacdabca in W4 the hit at n = 6 comes late
    group = get_group(W4)
    g = group.element((3, 2, 1, 3, 0, 1, 2, 0, 2, 3, 0, 1, 2, 0))
    factors, count = _counted(inversion_reflections(group, group.reduced_word(g)))
    assert min_product_length(group, [(g, 6)], factors) == [(6, (11, 9, 8, 5, 2, 1))]
    assert count[0] <= 10548
    _check_last_probe(group, factors, g)


def test_odd_and_shared_probes_keep_their_product_counts():
    # the row products each probe kind makes, counted through the factors:
    # abc at n = 3 over the 93 reflections of R_4 in W3 tests layer 1 alone;
    # listed twice it builds layer 2 and walks layer 1 against it
    group = get_group(W3)
    factors, count = _counted([r.element for r in get_reflections(group, 4)])
    abc = group.element((0, 1, 2))
    assert min_product_length(group, [(abc, 3)], factors) == [(3, (0, 3, 11))]
    assert count[0] <= 99
    count[0] = 0
    assert min_product_length(group, [(abc, 3)] * 2, factors) == [(3, (0, 3, 11))] * 2
    assert count[0] <= 8746
    # the radius-5 ball of T334 over R_4 in one shared search
    group = get_group(T334)
    factors, count = _counted([r.element for r in get_reflections(group, 4)])
    targets = [(elt, len_s) for elt, len_s in standard_ball(group, 5).values()]
    assert len(targets) == 57
    hits = min_product_length(group, targets, factors)
    assert _sha(hits) == T334_CAP_PINS[4340]   # every target settles, as pinned
    assert count[0] <= 728


# stored-element caps just below and above the count after each layer: T334
# over R_4 has layers of 24, 355 and 3960 elements, W3 over R_4 a first
# layer of 93.  Below 380 stored elements the T334 search raises (None); at
# 380 and above it settles every target: sha256 of repr(hits), recorded
# before the layers held row keys
T334_CAP_PINS = {
    23: None,
    25: None,
    378: None,
    380: "2b8c2bb282985f2ba3de9fc750c332bdf0eaa934d700f44aa9810b4ed2d1022f",
    4338: "2b8c2bb282985f2ba3de9fc750c332bdf0eaa934d700f44aa9810b4ed2d1022f",
    4340: "2b8c2bb282985f2ba3de9fc750c332bdf0eaa934d700f44aa9810b4ed2d1022f",
}
# sha256 of repr((upper, witness) per row) of reflen_ball(T334, 5, 4)
T334_BALL_CAP_PINS = {
    378: None,
    380: "1ae9bb6b0fbbe6f0a1ef815c54b19e499b2364f7587cd364243574f6a7ca99d8",
}


def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_search_caps_are_pinned():
    group = get_group(T334)
    factors = [r.element for r in get_reflections(group, 4)]
    targets = [(elt, len_s) for elt, len_s in standard_ball(group, 5).values()]
    assert len(factors) == 24 and len(targets) == 57
    for cap, digest in T334_CAP_PINS.items():
        if digest is None:
            with pytest.raises(ResourceCapError, match="node cap of %d stored" % cap):
                min_product_length(group, targets, factors, cap)
        else:
            assert _sha(min_product_length(group, targets, factors, cap)) == digest, cap
    for cap, digest in T334_BALL_CAP_PINS.items():
        if digest is None:
            with pytest.raises(ResourceCapError, match="node cap of %d stored" % cap):
                reflen_ball(T334, 5, 4, node_cap=cap)
        else:
            ball = reflen_ball(T334, 5, 4, node_cap=cap)
            rows = [(r.upper, r.witness) for r in ball.results.values()]
            assert _sha(rows) == digest, cap
    # the single odd probe stores layer 1 only, so no cap stops it
    group = get_group(W3)
    factors = [r.element for r in get_reflections(group, 4)]
    abc = group.element((0, 1, 2))
    for cap in (92, 94, 7785, 7787):
        assert min_product_length(group, [(abc, 3)], factors, cap) == [(3, (0, 3, 11))]
        res = reflen_element(W3, (0, 1, 2), ReflenProtocol(use_exact_solver=False,
                                                           d_cap=4, node_cap=cap))
        assert (res.upper, res.witness, res.depth_used) == \
            (3, ((2,), (2, 1, 2), (2, 1, 0, 1, 2)), 4)


# groups of field degree <= 4: 1 and 2 in PROPERTY_GROUPS below, H3 at 2,
# and rank 3 with bonds 3 and 8 at 4
PRODUCT_ONLY_GROUPS = ["rank 3; m12=3 m23=4", "rank 3; m12=3 m13=3 m23=3",
                       "rank 3; m12=inf m13=inf m23=inf",
                       "rank 4; m12=4 m23=3 m34=4 m14=3", "rank 3; m12=3 m23=5",
                       "rank 3; m12=3 m23=8"]


def _product_only(t):
    """A copy of the factor t without its matrix, its product function bound."""
    copy = GroupElement(t.gram, None, t.word)
    copy._factor = row_factor(t)
    return copy


@st.composite
def _search_case(draw):
    """(group, factors, targets, cap): the inversion set of a random word or
    R_2, the word's element and up to three more targets, and a cap."""
    group = get_group(parse_coxeter_matrix(draw(st.sampled_from(PRODUCT_ONLY_GROUPS))))
    words = st.lists(st.integers(0, group.cm.rank - 1), max_size=6).map(tuple)
    g = group.element(draw(words))
    rw = group.reduced_word(g)
    if draw(st.booleans()):
        factors = inversion_reflections(group, rw)
    else:
        factors = [r.element for r in get_reflections(group, 2)]
    targets = [(g, len(rw))] + [(group.element(w), n) for w, n in draw(
        st.lists(st.tuples(words, st.integers(0, 4)), max_size=3))]
    return group, factors, targets, draw(st.sampled_from([30, 300, NODE_CAP]))


@settings(max_examples=80, deadline=None)
@given(_search_case())
def test_search_reads_factors_only_through_their_products(case):
    group, factors, targets, cap = case

    def search(factors):
        try:
            return min_product_length(group, targets, factors, cap)
        except ResourceCapError as e:
            return str(e)

    expected = search(factors)
    copies = [_product_only(t) for t in factors]
    assert search(copies) == expected
    assert not any(matrix_is_built(t) for t in copies)


def test_exact_solver_builds_no_inversion_matrix(monkeypatch):
    # the solver reads its inversions only through their products, so none
    # gets its matrix; a witness part builds its own when its key is read
    made = []

    def recorded(group, reduced_word):
        made[:] = inversion_reflections(group, reduced_word)
        return made

    monkeypatch.setattr(coxlen.reflen, "inversion_reflections", recorded)
    for cm, word in ((W3, (0, 1, 2, 0, 2, 1)), (B4H, (0, 1, 2, 3, 0, 1, 2, 3)),
                     (T334, (0, 2, 1, 2, 1, 0, 1, 2, 0, 1))):
        group = get_group(cm)
        value, parts = exact_reflection_length(group, group.element(word))
        assert len(made) == len(word) > value
        assert not any(matrix_is_built(t) for t in made)
        assert [t.key for t in parts] == [group.element(t.word).key for t in parts]
        assert all(matrix_is_built(t) for t in parts)


def test_inversions_of_a_word_that_is_not_reduced_are_refused():
    # the inversions are compared on their row keys: the second inversion of
    # aa, and the fourth of abab past the longest element aba of A2, reflect
    # the negative root -alpha_a, where t_beta = t_-beta is the first
    group = get_group(A2)
    assert len(inversion_reflections(group, (0, 1, 0))) == 3
    minus_alpha_a = tuple(-c for c in image_root(group.identity, 0))
    for word in ((0, 0), (0, 1, 0, 1)):
        assert image_root(group.element(word[:-1]), word[-1]) == minus_alpha_a
        with pytest.raises(CertificateError, match="must be distinct"):
            inversion_reflections(group, word)


# -- properties over random small Coxeter matrices --------------------------------


@st.composite
def _matrix_and_word(draw):
    n = draw(st.integers(3, 4))
    entries = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entries[i][j] = entries[j][i] = draw(st.sampled_from([2, 3, 4, 6, INF]))
    word = tuple(draw(st.lists(st.integers(0, n - 1), max_size=6)))
    return CoxeterMatrix.make(entries), word, draw(st.integers(0, 3))


@settings(max_examples=50, deadline=None)
@given(_matrix_and_word())
def test_reflection_length_properties(case):
    # codim <= l_R <= l_S with l_R = l_S mod 2, l_R(w) = l_R(w^-1), and the
    # exact value below the ladder's upper bound; the ladder runs under a
    # small node cap, which raises when every rung's layers outgrow it.
    # Over the ball of radius L, the search at D = L - 1 gives each exact value.
    cm, word, L = case
    group = get_group(cm)
    g = group.element(word)
    len_s = len(group.reduced_word(g))
    value, _ = exact_reflection_length(group, g)
    assert fixed_space_codim(g) <= value <= len_s
    assert value % 2 == len_s % 2
    inverse = group.element(tuple(reversed(word)))
    assert exact_reflection_length(group, inverse)[0] == value
    try:
        ladder = reflen_element(cm, word, ReflenProtocol(use_exact_solver=False,
                                                          d_cap=4, node_cap=5_000))
    except ResourceCapError:
        pass
    else:
        assert value <= ladder.upper
    for res in reflen_ball(cm, L, max(L - 1, 0)).results.values():
        assert res.upper == exact_reflection_length(group, res.element)[0]


# groups for the invariance properties: finite, affine (degenerate form) and
# hyperbolic, over field degrees 1 and 4
PROPERTY_GROUPS = [parse_coxeter_matrix(text) for text in (
    "rank 3; m12=3 m23=4", "rank 3; m12=3 m13=3 m23=3",
    "rank 3; m12=3 m13=3 m23=4", "rank 3; m12=inf m13=inf m23=inf",
    "rank 4; m12=4 m23=3 m34=4 m14=3")]


@st.composite
def _group_and_words(draw):
    cm = draw(st.sampled_from(PROPERTY_GROUPS))
    letters = st.integers(0, cm.rank - 1)
    return (cm, tuple(draw(st.lists(letters, max_size=8))),
            tuple(draw(st.lists(letters, max_size=4))))


@settings(max_examples=60, deadline=None)
@given(_group_and_words())
def test_reflection_length_is_conjugation_invariant(case):
    # R is closed under conjugation, so l_R(u w u^-1) = l_R(w)
    cm, word, conj = case
    group = get_group(cm)
    w = group.element(word)
    kwk = group.element(conj + word + conj[::-1])
    assert exact_reflection_length(group, kwk)[0] == \
        exact_reflection_length(group, w)[0]


@settings(max_examples=60, deadline=None)
@given(_group_and_words(), st.data())
def test_reflection_length_restricts_to_standard_parabolics(case, data):
    # an element of W_J has the same reflection length in W_J and in W
    cm, _, _ = case
    subset = data.draw(st.lists(st.integers(0, cm.rank - 1), min_size=1,
                                max_size=cm.rank - 1, unique=True).map(sorted))
    word = tuple(data.draw(st.lists(st.integers(0, len(subset) - 1), max_size=8)))
    big, small = get_group(cm), get_group(cm.submatrix(subset))
    in_w = exact_reflection_length(big, big.element(tuple(subset[s] for s in word)))
    assert in_w[0] == exact_reflection_length(small, small.element(word))[0]
