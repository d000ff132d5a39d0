import hashlib
import random

import pytest

from coxeter_oracles import scalar_gram
from coxlen.coxeter import parse_coxeter_matrix, gram_matrix
from coxlen.exactfield import ExactScalar, RealCyclotomicField
from coxlen.reflen import get_group, get_reflections
from coxlen.tits import (_entry_rows, _report_entries, canonical_key,
                         enumerate_reflections, evaluate_word, fixed_space_codim,
                         gram_signature)


def _scalar_rows(elt):
    """The element's matrix as rows of ExactScalar, read from its packed ints."""
    field = elt.gram.field
    return tuple(tuple(ExactScalar(field, c, 1) for c in row)
                 for row in _entry_rows(elt.packed, elt.gram.cm.rank, field.degree))


def _entries(elt):
    return tuple(tuple((e.num, e.den) for e in row) for row in _scalar_rows(elt))


def _scalar_root(gram, root):
    """The packed root as a coordinate vector of ExactScalar."""
    d = gram.field.degree
    return tuple(ExactScalar(gram.field, root[i:i + d]) for i in range(0, len(root), d))


def _form(gram, u, v):
    """B(u, v) for coordinate vectors of ExactScalar, B from the oracle."""
    field, B = scalar_gram(gram.cm)
    n = len(u)
    return sum((u[i] * B[i][j] * v[j] for i in range(n) for j in range(n)), field.zero)


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
    B = scalar_gram(gm.cm)[1]
    rng = random.Random(hash(text) & 0xFFFF)
    n = group.cm.rank
    for _ in range(12):
        word = tuple(rng.randrange(n) for _ in range(rng.randint(0, 20)))
        rows = _scalar_rows(group.element(word))
        # M^T B M = B entrywise: the columns of M are the images of the basis
        images = [tuple(rows[k][i] for k in range(n)) for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert _form(gm, images[i], images[j]) == B[i][j]


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
        assert previous <= roots
        previous = roots


def test_reflection_invariants():
    group = get_group(parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4"))
    for r in enumerate_reflections(group.gram, 3):
        assert (r.element * r.element).is_identity()
        assert fixed_space_codim(r.element) == 1
        root = _scalar_root(group.gram, r.root)
        assert _form(group.gram, root, root) == group.field.one
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


# field degrees: report field / computation field
ENUM_GROUPS = {
    "W3": "rank 3; m12=inf m13=inf m23=inf",      # 1 / 1
    "A2T": "rank 3; m12=3 m13=3 m23=3",           # 1 / 1
    "H3": "rank 3; m12=3 m23=5",                  # 8 / 2
    "T334": "rank 3; m12=3 m13=3 m23=4",          # 4 / 2
    "B4H": "rank 4; m12=4 m23=3 m34=4 m14=3",     # 4 / 2
    "W4": "rank 4; m12=inf m13=inf m14=inf m23=inf m24=inf m34=inf",
    "D16": "rank 3; m12=4 m13=3 m23=5",           # 16 / 8
}

# sha256 of the (depth, root, canonical_key, word) list of
# enumerate_reflections, recorded when roots were still ExactScalar vectors
# over the report field, sign-normalized after every image; roots and keys
# are serialized over the report field
ENUM_DIGESTS = {
    ("W3", 2): "9fb0db64fe6a350e312f2a63296457269cbdd2888cbcbb05d2bd723e6dde293b",
    ("W3", 4): "f9d5d07524ee14bff17a0403110d1c4cd0cab98fc6cd98661ff112d069f0cced",
    ("W3", 6): "e4cab14020a26bf5689625ac5f0cb16ed80527e9ddd40b26441a8534afc5aa90",
    ("A2T", 2): "b1dffcc52117243adef286caa426988791e5bda1555cc6a9935c73d4f956a2ca",
    ("A2T", 4): "e04c540b7b088790bcbe82cb850992cb69ad241654d6abcb3bb89a5d363b9def",
    ("A2T", 6): "c37062dbbaac5548e53e13dc90a75f2cbcd34257de56aa9136554b26ac898e8e",
    ("H3", 2): "ba8e7e53c28e611ff2e7580b90b0c6eb1ea8ef22187fe62192e09e7ef0dfc2e7",
    ("H3", 4): "4cdb837df1ab81fb12e5478877aa8f8b140853e0a58a6b80b850333be11356a0",
    ("H3", 6): "b87285d2188e93e71136b0bb846e2fa7c2707364f978aa1e5bc187802ff34332",
    ("T334", 2): "cae46603f7e4dae1700488330e2a00cda7fb5ea135312cccf6f37bccb438391b",
    ("T334", 4): "b1f5ae80fdcba68bfc7fa708559b79ee1ce7cde954b59845d0a709b95096c4b9",
    ("T334", 6): "3df77ca6be2e56f05ff1b2f065df455dca0ec6e028515f27ab2f3ff16f85b570",
    ("B4H", 2): "fdaf4ccefdddc64a563af12d44db9c47145c04183c8369edd9153b2276a6f4c7",
    ("B4H", 4): "dc9d4a67f04ed703d7d828f75a2b691ac94b6fba2d8ccabe81ca0100750f97ae",
    ("B4H", 6): "42dec58f1d52cacc3f5d299acc05c032285693cc9990d1ec4f55d51c3ef7cde0",
    ("W4", 2): "73e106402421df0a031a783006c4db1a018f53dae205c8ec32494489c696f8fa",
    ("W4", 4): "1f81c6f494cd0e99764f0901794d81d40c13ddbb683dcada6b04e56a48cb511b",
    ("W4", 6): "0402d3c3cfbe7334e95f70c5473df780d6b4254d2edeba5ddac5b0fb53c60a65",
    ("D16", 2): "56f32cebd8f22598b335b53365e07868cd093ad7f1d78aa529c7eea4d08e2040",
    ("D16", 4): "c76de56a8a0babf2bc5b775a48102c13948e75dba735b752fce5983494998732",
    ("D16", 6): "a9f090293bacdcf29a719e7ed1cb5ad71edcfc231ff3f89c0eb75623b953d734",
}


def _report_root(gram, root):
    """The packed root's (num, den) coordinates over the report field,
    through the exact embedding of gram.field into it."""
    return tuple((c, 1) for c in _report_entries(gram, root))


def _enum_rows(gram, reflections):
    return [(r.depth, repr(_report_root(gram, r.root)),
             canonical_key(r.element).decode(), r.word) for r in reflections]


def test_enumeration_lists_are_pinned():
    for (name, D), digest in ENUM_DIGESTS.items():
        gram = gram_matrix(parse_coxeter_matrix(ENUM_GROUPS[name]))
        rows = _enum_rows(gram, enumerate_reflections(gram, D))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest, (name, D)


@pytest.mark.parametrize("name", sorted(ENUM_GROUPS))
def test_enumerated_roots_are_positive_and_carry_their_reflection(name):
    group = get_group(parse_coxeter_matrix(ENUM_GROUPS[name]))
    n = group.cm.rank
    B = scalar_gram(group.cm)[1]
    for r in enumerate_reflections(group.gram, 4):
        root = _scalar_root(group.gram, r.root)
        signs = [x.sign() for x in root]
        assert min(signs) >= 0 and max(signs) > 0, r.word
        # the element is x -> x - 2 B(root, x) root, and its word realizes it
        rows = _scalar_rows(r.element)
        for i in range(n):
            for j in range(n):
                two_b = sum((root[k] * B[k][j] for k in range(n)), group.field.zero) * 2
                delta = group.field.one if i == j else group.field.zero
                assert rows[i][j] == delta - two_b * root[i]
        assert group.element(r.word).key == r.element.key


def test_enumeration_decides_no_sign(monkeypatch):
    grams = [gram_matrix(parse_coxeter_matrix(ENUM_GROUPS[name]))
             for name in ("T334", "H3", "D16")]
    calls = []
    original = RealCyclotomicField.sign_of

    def counting(self, num, den):
        calls.append(num)
        return original(self, num, den)

    monkeypatch.setattr(RealCyclotomicField, "sign_of", counting)
    for gram in grams:
        assert enumerate_reflections(gram, 6)
    assert calls == []


@pytest.mark.parametrize("name", ["W3", "T334", "B4H", "D16"])
def test_depth_prefix_is_the_shallower_enumeration(name):
    # the truncated ladder enumerates once and reads each rung as a prefix
    gram = gram_matrix(parse_coxeter_matrix(ENUM_GROUPS[name]))
    deepest = enumerate_reflections(gram, 6)
    for D in range(7):
        prefix = [r for r in deepest if r.depth <= D]
        assert deepest[:len(prefix)] == prefix
        assert _enum_rows(gram, prefix) == _enum_rows(gram, enumerate_reflections(gram, D))


def test_reflections_are_enumerated_once_per_group_and_depth(monkeypatch):
    import coxlen.reflen
    import coxlen.tits

    real = coxlen.tits.enumerate_reflections
    calls = []

    def counting(gram, depth_cap):
        calls.append(depth_cap)
        return real(gram, depth_cap)

    monkeypatch.setattr(coxlen.tits, "enumerate_reflections", counting)
    monkeypatch.setattr(coxlen.reflen, "_REFLECTION_CACHE", {})
    group = get_group(parse_coxeter_matrix(ENUM_GROUPS["T334"]))
    for D in (4, 2, 6):
        assert _enum_rows(group.gram, get_reflections(group, D)) == \
            _enum_rows(group.gram, real(group.gram, D)), D
    assert calls == [4, 6]
