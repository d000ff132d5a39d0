"""End-to-end acceptance suite.

Each test covers one gate criterion at its stated tolerance and prints a
single PASS line (visible with pytest -s); any assertion failure marks the
criterion FAILED.
"""

import itertools
import json
import math
import sys
from fractions import Fraction

import pytest

from coxlen.catalog import table_kind
from coxlen.coxeter import (INF, CoxeterMatrix, Kind, classify_group,
                            gram_matrix, parse_coxeter_matrix)
from coxlen.filling import (_finite_parabolic_elements, build_triangle_model,
                            congruence_search, two_pi_certificate)
from coxlen.quasimorphism import (build_certificate, certify_lower_bound,
                                  counting_qm, homogenize, reduce_word)
from coxlen.reflen import (affine_bound_experiment, carter_length_finite,
                           exact_reflection_length, get_group, growth_profile,
                           standard_ball)
from coxlen.tits import fixed_space_codim, gram_signature
from qm_oracles import defect_stress_sample, random_reduced_word


def _report(n, text):
    print("ACCEPTANCE %d PASS: %s" % (n, text))
    sys.stdout.flush()


def test_criterion_1_affine_maximum():
    """Max reflection length over affine balls is exactly 2n, attained."""
    at1 = parse_coxeter_matrix("rank 2; m12=inf")
    rec1 = affine_bound_experiment(at1, 12)
    assert rec1.max_value == 2 and rec1.bound == 2 and rec1.attained
    assert max(rec1.value_counts) <= 2

    at2 = parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=3")
    rec2 = affine_bound_experiment(at2, 8)
    assert rec2.max_value == 4 and rec2.bound == 4 and rec2.attained
    assert max(rec2.value_counts) <= 4
    _report(1, "affine maxima: 2 on the infinite dihedral ball (L=12), "
               "4 on the Euclidean triangle ball (L=8), both attained, "
               "never exceeded")


def test_criterion_2_unbounded_growth_certificates():
    """Certified lower bounds for (abc)^k in W_3 grow without bound."""
    cert = build_certificate(3, "abc")
    constant, bounds = certify_lower_bound(cert, "abc", 40)
    gap = int(cert.homogeneous_defect)
    assert constant > 0
    # strictly increasing along the arithmetic subsequence with that gap
    for k in range(1, 41 - gap):
        assert bounds[k - 1 + gap] == bounds[k - 1] + 1
    assert bounds[-1] >= 20  # unbounded in k

    W3 = parse_coxeter_matrix("rank 3; m12=inf m13=inf m23=inf")
    record = growth_profile(W3, (0, 1, 2), 4, certificates=(cert,))
    group = get_group(W3)
    for k, res in record.powers:
        assert res.lower <= res.upper
        assert res.status == "Exact"
        assert res.upper % 2 == res.len_s % 2
        assert res.upper >= fixed_space_codim(res.element)
        assert res.upper >= bounds[k - 1]
    _report(2, "W_3 growth: certified bounds ceil(k/%d) unbounded; exact "
               "values for k<=4 respect parity, fixed-space and certificate "
               "bounds" % gap)


def test_criterion_3_carter_equality():
    """Exact reflection length equals rank(M - I) on finite groups."""
    cases = (("rank 2; m12=3", 3), ("rank 2; m12=4", 4), ("rank 3; m12=3 m23=3", 6))
    checked = 0
    for text, radius in cases:
        cm = parse_coxeter_matrix(text)
        group = get_group(cm)
        ball = standard_ball(group, radius)
        for elt, _ in ball.values():
            value, _ = exact_reflection_length(group, elt)
            assert value == carter_length_finite(cm, group.reduced_word(elt))
            checked += 1
    assert checked == 6 + 8 + 24
    _report(3, "Carter equality on all %d elements of the three finite test "
               "groups" % checked)


_PERM_MAPS_BY_RANK = {}


def _perm_maps(n):
    if n not in _PERM_MAPS_BY_RANK:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        index = {p: k for k, p in enumerate(pairs)}
        maps = []
        for perm in itertools.permutations(range(n)):
            maps.append(tuple(index[tuple(sorted((perm[i], perm[j])))]
                              for (i, j) in pairs))
        _PERM_MAPS_BY_RANK[n] = maps
    return _PERM_MAPS_BY_RANK[n]


def _canonical(edges, n):
    return (n, min(tuple(edges[k] for k in m) for m in _perm_maps(n)))


def _connected(edges, n):
    adj = [[False] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            adj[i][j] = adj[j][i] = edges[k] != 2
            k += 1
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in range(n):
            if adj[v][w] and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _matrix_from_edges(edges, n):
    entries = [[1] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            entries[i][j] = entries[j][i] = edges[k]
            k += 1
    return CoxeterMatrix.make(entries)


def test_criterion_4_classification_tables():
    """Classifier reproduces the tables on every connected diagram of rank
    <= 4 over bond orders {2,3,4,5,6,inf}; minimal non-affine ones have
    hyperbolic signature (n, 1, 0)."""
    labels = (2, 3, 4, 5, 6, INF)
    verdict_of_class = {}
    total = 0
    for n in (1, 2, 3, 4):
        edge_count = n * (n - 1) // 2
        for edges in itertools.product(labels, repeat=edge_count):
            if not _connected(edges, n):
                continue
            total += 1
            canon = _canonical(edges, n)
            if canon not in verdict_of_class:
                cm = _matrix_from_edges(edges, n)
                verdict = classify_group(cm)
                expected = table_kind(cm)
                assert verdict.kind == expected, (n, edges, verdict.kind, expected)
                if verdict.minimal_nonaffine:
                    sig = gram_signature(gram_matrix(cm))
                    assert sig == (n - 1, 1, 0), (edges, sig)
                verdict_of_class[canon] = verdict.kind
    assert total == 1 + 5 + 200 + 45750
    _report(4, "classifier matches the tables on all %d connected diagrams "
               "of rank <= 4 (%d isomorphism classes); every minimal "
               "non-affine diagram has signature (n,1,0)"
            % (total, len(verdict_of_class)))


def test_criterion_5_restriction_to_parabolic():
    """Exact values agree between the rank-4 all-threes group and its
    Euclidean-triangle special subgroups on the whole L=6 subgroup ball."""
    big_cm = parse_coxeter_matrix("rank 4; m12=3 m13=3 m14=3 m23=3 m24=3 m34=3")
    small_cm = parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=3")
    big, small = get_group(big_cm), get_group(small_cm)
    ball = standard_ball(small, 6)
    agreed = 0
    for elt, _ in ball.values():
        word = small.reduced_word(elt)
        inner = exact_reflection_length(small, elt)
        outer = exact_reflection_length(big, big.element(word))
        assert inner is not None and outer is not None
        assert inner[0] == outer[0], word
        agreed += 1
    assert agreed == len(ball)
    _report(5, "restriction: exact reflection lengths agree on 100%% of the "
               "%d subgroup-ball elements (L=6)" % agreed)


def test_criterion_6_filling_certificate():
    """(2,3,inf) at h=1: prime 7, margin 13/2 - 2*pi > 0.21, all short
    elements nontrivial mod 7, both finite parabolics injective."""
    model = build_triangle_model(2, 3)
    cert = congruence_search(model, 1, 100)
    assert cert.prime == 7
    dmin, (lo, hi) = two_pi_certificate(model, cert, 0)
    assert dmin == Fraction(13, 2)
    assert lo > Fraction(21, 100)
    assert not any(e.matrix.is_scalar_mod(7) for elems in cert.short_sets.values()
                   for e in elems)
    parabolics = _finite_parabolic_elements(model)
    assert len([sub for sub in parabolics if len(sub) == 2]) == 2
    assert not any(mat.is_scalar_mod(7) for elems in parabolics.values()
                   for _, mat in elems)
    _report(6, "filling: p=7 with margin 13/2 - 2*pi in [%.6f, %.6f] "
               "(> 0.21), short sets nontrivial, parabolics injective"
            % (float(lo), float(hi)))


def test_criterion_7_warp_profile():
    """Warp profile for the certified boundary bound: grid checks on 512
    points and exact endpoint-piece matching."""
    from coxlen.warp import grid_checks, warp_profile

    L = 6.5
    lo, hi = -L / (2 * math.pi), -1.0
    profile = warp_profile(L, r_T=(lo + hi) / 2, grid=512)
    pos, inc, conv = grid_checks(profile)
    assert pos and inc and conv
    assert len(profile.grid) == 512
    amp = 2 * math.pi / L
    matched_apex = matched_boundary = 0
    for r, f in zip(profile.grid, profile.f):
        if r <= profile.r_a:
            assert f == amp * math.sinh(r - profile.r_T)
            matched_apex += 1
        if r >= profile.r_b:
            assert f == math.exp(r)
            matched_boundary += 1
    assert matched_apex and matched_boundary
    _report(7, "warp profile at L=6.5, r_T=midpoint: f>0, f'>0, f''>=-1e-9 "
               "max|f| on 512 points; %d apex and %d boundary grid points "
               "match the analytic pieces exactly"
            % (matched_apex, matched_boundary))


def test_criterion_8_quasimorphism_suite():
    """Antisymmetry, homogeneity, conjugation invariance, and defect
    soundness on 10^5 fresh random pairs with zero violations."""
    import random

    w = reduce_word("abc", 3)
    cert = build_certificate(3, "abc")
    rng = random.Random(20260810)
    for _ in range(2000):
        g = random_reduced_word(3, rng.randrange(30), rng)
        assert counting_qm(w, g[::-1]) == -counting_qm(w, g)
    for _ in range(200):
        g = random_reduced_word(3, rng.randrange(1, 10), rng)
        base = homogenize(w, reduce_word(g, 3))
        for n in range(1, 11):
            assert homogenize(w, reduce_word(g * n, 3)) == n * base
    for _ in range(300):
        g = random_reduced_word(3, rng.randrange(12), rng)
        k = random_reduced_word(3, rng.randrange(8), rng)
        assert homogenize(w, reduce_word(k + g + k[::-1], 3)) == \
            homogenize(w, reduce_word(g, 3))
    violations, worst = defect_stress_sample(
        w, cert.raw_defect, pairs=100_000, max_len=4 * cert.window, seed=1)
    assert violations == 0
    assert worst <= cert.raw_defect
    _report(8, "quasimorphism suite: antisymmetry, homogeneity (n<=10), "
               "conjugation invariance, and 100000-pair window soundness "
               "with zero violations")


_CRITERION_9_CONFIGS = [
    ["classify", "--inline", "rank 3; m12=3 m13=3 m23=4"],
    ["subgroups", "--inline", "rank 3; m12=3 m13=3 m23=4"],
    ["affine-bound", "--inline", "rank 2; m12=inf", "-L", "12"],
    ["affine-bound", "--inline", "rank 3; m12=3 m13=3 m23=3", "-L", "8"],
    ["growth", "--inline", "rank 3; m12=inf m13=inf m23=inf",
     "--word", "abc", "--K", "4", "--pattern", "abc"],
    ["reflen", "--inline", "rank 3; m12=3 m13=3 m23=3", "--word", "abcabc"],
    ["reflen", "--inline", "rank 2; m12=3", "-L", "3", "-D", "2"],
    ["qm-certify", "--k", "3", "--pattern", "abc", "--g", "abc", "--K", "6"],
    ["filling", "--p", "2", "--q", "3", "--h", "1"],
    ["warp", "--L", "6.5"],
]


def test_criterion_9_deterministic_reports(tmp_path):
    """Reports for the criteria scenarios are byte-identical across reruns."""
    from coxlen.cli import main

    for idx, cfg in enumerate(_CRITERION_9_CONFIGS):
        outputs = []
        for run in "abc":
            path = tmp_path / ("%d%s" % (idx, run))
            code = main(cfg + ["--output", str(path)])
            assert code == 0, cfg
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], cfg
    _report(9, "all %d criterion reports byte-identical across reruns"
            % len(_CRITERION_9_CONFIGS))


def _refuse_constant(name):
    raise ValueError("%s is not JSON" % name)


def test_criterion_9_reports_are_strict_json(tmp_path):
    """Every JSON document, and every CSV configuration line, of the criteria
    scenarios parses as JSON without NaN or Infinity."""
    from coxlen.cli import main

    for idx, cfg in enumerate(_CRITERION_9_CONFIGS):
        path = tmp_path / str(idx)
        assert main(cfg + ["--output", str(path)]) == 0, cfg
        text = path.read_text()
        if not text.startswith("{"):
            config_line = text.splitlines()[1]
            assert config_line.startswith("# config: "), cfg
            text = config_line[len("# config: "):]
        doc = json.loads(text, parse_constant=_refuse_constant)
        assert isinstance(doc, dict), cfg
