import random

import pytest

from coxlen.coxeter import parse_coxeter_matrix, gram_matrix
from coxlen.reflen import get_group
from coxlen.tits import (TitsGroup, bilinear_value, enumerate_reflections,
                         evaluate_word, fixed_space_codim, gram_signature,
                         tits_generator)


def _entries(elt):
    return tuple(tuple((e.num, e.den) for e in row) for row in elt.matrix)


def test_generator_matrices():
    a1 = get_group(parse_coxeter_matrix("rank 1"))
    assert _entries(a1.generators[0]) == ((((-1,), 1),),)

    a2 = get_group(parse_coxeter_matrix("rank 2; m12=3"))
    assert _entries(a2.generators[0]) == ((((-1,), 1), ((1,), 1)),
                                          (((0,), 1), ((1,), 1)))

    at1 = get_group(parse_coxeter_matrix("rank 2; m12=inf"))
    assert _entries(at1.generators[0]) == ((((-1,), 1), ((2,), 1)),
                                           (((0,), 1), ((1,), 1)))


def test_evaluate_word_identities():
    g = get_group(parse_coxeter_matrix("rank 2; m12=3"))
    assert g.element(()).is_identity()
    assert g.element((0, 0)).is_identity()
    assert g.element((0, 1) * 3).is_identity()
    assert evaluate_word(g.generators, (1, 1)).is_identity()


def test_canonical_keys():
    g = get_group(parse_coxeter_matrix("rank 2; m12=3"))
    assert g.element((0, 1, 0)).key == g.element((1, 0, 1)).key
    assert g.element((0,)).key == g.element((0,)).key
    # the full group has exactly 6 distinct keys
    keys = set()
    for n in range(4):
        for word in _words(2, n):
            keys.add(g.element(word).key)
    assert len(keys) == 6


def _words(rank, length):
    if length == 0:
        yield ()
        return
    for w in _words(rank, length - 1):
        for s in range(rank):
            yield w + (s,)


@pytest.mark.parametrize("text", [
    "rank 2; m12=3",
    "rank 2; m12=4",
    "rank 2; m12=inf",
    "rank 3; m12=3 m13=3 m23=4",
    "rank 3; m12=inf m13=inf m23=inf",
])
def test_form_preserved_on_random_words(text):
    group = get_group(parse_coxeter_matrix(text))
    gm = group.gram
    rng = random.Random(hash(text) & 0xFFFF)
    basis = [group.simple_root(i) for i in range(group.cm.rank)]
    for _ in range(12):
        word = tuple(rng.randrange(group.cm.rank) for _ in range(rng.randint(0, 20)))
        g = group.element(word)
        # M^T B M = B checked entrywise via the bilinear form on basis images
        from coxlen.tits import _mat_vec
        images = [_mat_vec(g.matrix, b) for b in basis]
        for i in range(group.cm.rank):
            for j in range(group.cm.rank):
                assert bilinear_value(gm, images[i], images[j]) == gm.entries[i][j]


def test_reflection_enumeration_counts():
    a2 = gram_matrix(parse_coxeter_matrix("rank 2; m12=3"))
    assert len(enumerate_reflections(a2, 0)) == 2
    assert len(enumerate_reflections(a2, 1)) == 3
    at1 = gram_matrix(parse_coxeter_matrix("rank 2; m12=inf"))
    # 2 simple mirrors, then two new mirrors per depth level
    assert len(enumerate_reflections(at1, 1)) == 4
    assert len(enumerate_reflections(at1, 2)) == 6


def test_reflection_sets_stabilize_on_finite_groups():
    sizes = {"rank 2; m12=3": 3, "rank 2; m12=4": 4, "rank 3; m12=3 m23=3": 6}
    for text, count in sizes.items():
        gm = gram_matrix(parse_coxeter_matrix(text))
        stable = enumerate_reflections(gm, 12)
        assert len(stable) == count
        assert len(enumerate_reflections(gm, 13)) == count


def test_reflection_monotone_in_depth():
    gm = gram_matrix(parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4"))
    previous = set()
    for d in range(4):
        roots = {r.root for r in enumerate_reflections(gm, d)}
        keys = {tuple((x.num, x.den) for x in root) for root in roots}
        assert previous <= keys
        previous = keys


def test_reflection_invariants():
    group = get_group(parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4"))
    for r in enumerate_reflections(group.gram, 3):
        assert (r.element * r.element).is_identity()
        assert fixed_space_codim(r.element) == 1
        assert bilinear_value(group.gram, r.root, r.root) == group.field.one
        # the tracked conjugating word realizes the same matrix
        assert group.element(r.word).key == r.element.key


def test_signatures():
    assert gram_signature(gram_matrix(parse_coxeter_matrix("rank 2; m12=3"))) == (2, 0, 0)
    assert gram_signature(gram_matrix(
        parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=3"))) == (2, 0, 1)
    assert gram_signature(gram_matrix(
        parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4"))) == (2, 1, 0)


def test_signature_against_symbolic_eigenvalues():
    import sympy

    for text in ("rank 3; m12=5 m23=4", "rank 4; m12=3 m23=3 m34=inf",
                 "rank 3; m12=6 m13=3 m23=2"):
        cm = parse_coxeter_matrix(text)
        gm = gram_matrix(cm)
        n = cm.rank
        m = sympy.Matrix([
            [sympy.nsimplify(1) if i == j else
             (-1 if cm.entries[i][j] == 0 else -sympy.cos(sympy.pi / cm.entries[i][j]))
             for j in range(n)] for i in range(n)])
        eigs = []
        for val, mult in m.eigenvals().items():
            eigs.extend([sympy.re(sympy.N(val, 40))] * mult)
        want = (sum(1 for e in eigs if e > 1e-25),
                sum(1 for e in eigs if e < -1e-25),
                sum(1 for e in eigs if abs(e) <= 1e-25))
        assert gram_signature(gm) == want, text


def test_fixed_space_codim():
    g = get_group(parse_coxeter_matrix("rank 2; m12=3"))
    assert fixed_space_codim(g.identity) == 0
    assert fixed_space_codim(g.element((0,))) == 1
    assert fixed_space_codim(g.element((0, 1))) == 2


def test_word_recovery_and_length():
    group = get_group(parse_coxeter_matrix("rank 3; m12=3 m23=3"))
    rng = random.Random(3)
    for _ in range(20):
        word = tuple(rng.randrange(3) for _ in range(rng.randint(0, 12)))
        g = group.element(word)
        rw = group.reduced_word(g)
        assert group.element(rw).key == g.key
        assert len(rw) <= len(word)
        assert len(rw) % 2 == len(word) % 2


def test_enumeration_deterministic():
    gm = gram_matrix(parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4"))
    once = [(r.depth, r.word) for r in enumerate_reflections(gm, 4)]
    again = [(r.depth, r.word) for r in enumerate_reflections(gm, 4)]
    assert once == again
