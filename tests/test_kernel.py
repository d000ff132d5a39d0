"""The packed Z[theta] element kernel against exact scalar arithmetic, the
row kernel against the convolution kernel it generalized, row keys of the
search, descents and reflections against the matrix-product constructions
they replaced, keys, reflection order and ball reports against the Gram form
over the report field, and pins of key bytes and solver witnesses recorded
before the packing."""

import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import coxlen
import coxlen.reflen
import coxlen.tits
from coxlen.cli import main
from coxeter_oracles import scalar_gram
from coxlen.coxeter import gram_matrix, parse_coxeter_matrix
from coxlen.reflen import (exact_reflection_length, get_group, get_reflections,
                           inversion_reflections, min_product_length, standard_ball)
from coxlen.exactfield import ExactScalar, RealCyclotomicField
from coxlen.tits import (_DENSE_DEGREE, GroupElement, TitsGroup, _dense_product,
                         _entry_rows, _make_report_columns, _matrix_product, _report_maker,
                         _root_key, _sparse_product, canonical_key, enumerate_reflections, fixed_space_codim,
                         reflection, row_factor, row_key, tits_generator)
from linalg_oracles import scalar_matrix_rank
from tits_oracles import (convolution_mat_mul, convolution_row_mul,
                          convolution_side, image_root, matrix_is_built,
                          prefix_inversions, reflection_matrix,
                          report_enumeration, report_gram, report_key, report_key_bytes,
                          report_root_bytes)

# field degrees: report field / computation field
GROUPS = {
    "W3": "rank 3; m12=inf m13=inf m23=inf",      # 1 / 1
    "A2T": "rank 3; m12=3 m13=3 m23=3",           # 1 / 1
    "A3": "rank 3; m12=3 m23=3",                  # 2 / 1
    "H3": "rank 3; m12=3 m23=5",                  # 8 / 2
    "T334": "rank 3; m12=3 m13=3 m23=4",          # 4 / 2
    "B4H": "rank 4; m12=4 m23=3 m34=4 m14=3",     # 4 / 2
    "W4": "rank 4; m12=inf m13=inf m14=inf m23=inf m24=inf m34=inf",
    "D16": "rank 3; m12=4 m13=3 m23=5",           # 16 / 8
    "P38": "rank 3; m12=3 m23=8",                 # 8 / 4
    "P57": "rank 3; m12=5 m23=7",                 # 24 / 12
}


def _group(name):
    return get_group(parse_coxeter_matrix(GROUPS[name]))


def _word(text):
    return tuple("abcd".index(c) for c in text)


def _scalar_rows(g):
    """The element's matrix as rows of ExactScalar, read from its packed ints."""
    field = g.gram.field
    return tuple(tuple(ExactScalar(field, c, 1) for c in row)
                 for row in _entry_rows(g.packed, g.gram.cm.rank, field.degree))


def _reference_product(x, y):
    """The product of the ExactScalar matrices, entry by entry."""
    A, B = _scalar_rows(x), _scalar_rows(y)
    n = len(A)
    return tuple(tuple(sum((A[i][k] * B[k][j] for k in range(1, n)), A[i][0] * B[0][j])
                       for j in range(n)) for i in range(n))


@st.composite
def _word_pair(draw):
    name = draw(st.sampled_from(sorted(GROUPS)))
    rank = _group(name).cm.rank
    letters = st.integers(min_value=0, max_value=rank - 1)
    return (name, tuple(draw(st.lists(letters, max_size=12))),
            tuple(draw(st.lists(letters, max_size=12))))


@settings(max_examples=150, deadline=None)
@given(_word_pair())
def test_packed_product_matches_exact_scalar_product(pair):
    name, u, v = pair
    group = _group(name)
    x, y = group.element(u), group.element(v)
    product = x * y
    reference = _reference_product(x, y)
    assert _scalar_rows(product) == reference
    assert all(e.den == 1 for row in reference for e in row)
    assert product.key == group.element(u + v).key


# the groups whose computation field has degree <= _DENSE_DEGREE
RANK_ONE_GROUPS = ("W3", "A2T", "A3", "H3", "T334", "B4H", "W4", "P38")


def _kernel_of(product):
    """Which kernel a `row_factor` runs: the generated rank-one kernel, or
    the dense or sparse kernel of a `_matrix_product`."""
    if isinstance(product, partial):
        return {_dense_product: "dense", _sparse_product: "sparse"}[product.func]
    assert product.__code__.co_filename.startswith("<rank-one kernel ")
    return "rank-one"


def test_degrees_cover_the_kernel_paths():
    degrees = {name: _group(name).field.degree for name in GROUPS}
    assert degrees == {"W3": 1, "A2T": 1, "A3": 1, "H3": 2, "T334": 2, "B4H": 2,
                       "W4": 1, "D16": 8, "P38": 4, "P57": 12}
    report = {name: RealCyclotomicField(_group(name).cm.conductor()).degree
              for name in GROUPS}
    assert report == {"W3": 1, "A2T": 1, "A3": 2, "H3": 8, "T334": 4, "B4H": 4,
                      "W4": 1, "D16": 16, "P38": 8, "P57": 24}
    # the dense kernel up to degree 4, the sparse convolution above it
    assert _DENSE_DEGREE == 4
    assert {name for name, d in degrees.items() if d > _DENSE_DEGREE} == {"D16", "P57"}
    assert set(RANK_ONE_GROUPS) == {name for name, d in degrees.items() if d <= _DENSE_DEGREE}
    # a product by a reflection takes the rank-one kernel up to degree 4 and
    # the sparse convolution above it; a general product the dense kernel up
    # to degree 4
    for name, d in degrees.items():
        group = _group(name)
        small = "rank-one" if d <= _DENSE_DEGREE else "sparse"
        for t in group.generators + tuple(r.element for r in get_reflections(group, 2)):
            assert _kernel_of(row_factor(t)) == small, name
        general = group.element((0, 1))
        assert _kernel_of(row_factor(general)) == ("dense" if d <= _DENSE_DEGREE else "sparse")


def test_identity_and_involutions():
    for name in GROUPS:
        group = _group(name)
        assert group.identity.is_identity()
        for gen in group.generators:
            assert not gen.is_identity()
            assert (gen * gen).is_identity()
            assert (gen * gen).key == group.identity.key


def test_gram_rows_are_twice_the_scalar_gram():
    # the 2B the generators are built from, against twice the ExactScalar B
    # of the oracle, at computation field degrees 1 to 12
    for name, text in GROUPS.items():
        cm = parse_coxeter_matrix(text)
        gram = gram_matrix(cm)
        field, B = scalar_gram(cm)
        assert field is gram.field
        doubled = [[e + e for e in row] for row in B]
        assert all(e.den == 1 for row in doubled for e in row), name
        assert [list(row) for row in gram.rows] == [[e.num for e in row] for row in doubled]


@settings(max_examples=150, deadline=None)
@given(_word_pair())
def test_fixed_space_codim_matches_the_scalar_rank(pair):
    # rank(M - I) on packed rows against the ExactScalar elimination, at
    # computation field degrees 1, 2, 4, 8 and 12
    name, u, v = pair
    g = _group(name).element(u + v)
    field = g.gram.field
    rows = [[e - (field.one if i == j else field.zero) for j, e in enumerate(row)]
            for i, row in enumerate(_scalar_rows(g))]
    assert fixed_space_codim(g) == scalar_matrix_rank(field, rows)


@st.composite
def _row_case(draw):
    """(group, x, t): x from a random word, t a random element, an
    enumerated reflection of root depth <= 2, or an inversion of x."""
    name = draw(st.sampled_from(sorted(GROUPS)))
    group = _group(name)
    letters = st.integers(min_value=0, max_value=group.cm.rank - 1)
    x = group.element(tuple(draw(st.lists(letters, max_size=12))))
    kind = draw(st.sampled_from(("word", "enumerated", "inversion")))
    if kind == "word":
        t = group.element(tuple(draw(st.lists(letters, max_size=12))))
    elif kind == "enumerated":
        t = draw(st.sampled_from(get_reflections(group, 2))).element
    else:
        rw = group.reduced_word(x) or (0,)
        t = draw(st.sampled_from(inversion_reflections(group, rw)))
    return group, x, t


@settings(max_examples=200, deadline=None)
@given(_row_case())
def test_row_product_extends_the_row_key(case):
    # K(x t) = K(x) M(t), with the product function made on first use and then
    # read back from the element
    group, x, t = case
    expected = row_key(x * t)
    t = GroupElement(group.gram, t.packed)
    for _ in range(2):
        assert row_factor(t)(row_key(x)) == expected
    assert len(expected) == group.cm.rank * group.field.degree


# integer coefficients: small ones, and ones above 2^64 in absolute value
_COEFFICIENTS = st.one_of(st.integers(min_value=-9, max_value=9),
                          st.integers(min_value=2 ** 64, max_value=2 ** 96),
                          st.integers(min_value=-2 ** 96, max_value=-2 ** 64))


@st.composite
def _rank_one_case(draw):
    """(group, word, rows): a group of degree <= _DENSE_DEGREE, a random word
    and random packed rows."""
    group = _group(draw(st.sampled_from(RANK_ONE_GROUPS)))
    letters = st.integers(min_value=0, max_value=group.cm.rank - 1)
    width = group.cm.rank * group.field.degree
    row = st.lists(_COEFFICIENTS, min_size=width, max_size=width).map(tuple)
    return (group, tuple(draw(st.lists(letters, max_size=12))),
            draw(st.lists(row, min_size=1, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(_rank_one_case())
def test_rank_one_product_matches_the_matrix_side(case):
    # every reflection of root depth <= 3 and every inversion of the word:
    # the rank-one kernel against `_matrix_product` of the reflection's full
    # matrix
    group, word, rows = case
    n, field = group.cm.rank, group.field
    inversions = inversion_reflections(group, group.reduced_word(group.element(word)))
    for t in [r.element for r in get_reflections(group, 3)] + inversions:
        product = row_factor(t)
        assert _kernel_of(product) == "rank-one"
        general = _matrix_product(t.packed, n, field)
        for row in rows:
            assert product(row) == general(row)


def test_setup_generates_no_kernel():
    # kernels are generated on first use, so importing the package and
    # building a field, the benchmark's set-up, generates none
    script = ("import coxlen, coxlen.cli\n"
              "coxlen.RealCyclotomicField(5)\n"
              "print(coxlen.tits._rank_one_maker.cache_info().currsize)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxlen.__file__)))
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


# the widest kernel the parser admits: rank 64 at degree 4, w = 256
_RANK_64 = "rank 64; m1_2=8 " + " ".join("m%d_%d=3" % (i, i + 1) for i in range(2, 64))


def test_rank_64_degree_4_reflection_product():
    gram = gram_matrix(parse_coxeter_matrix(_RANK_64))
    n, field = gram.cm.rank, gram.field
    d = field.degree
    assert (n, d) == (64, 4)
    form = _matrix_product(tuple(c for row in gram.rows for e in row for c in e), n, field)
    word = (1, 2, 3, 0, 1, 4)
    v = (1,) + (0,) * (n * d - 1)                       # alpha_0
    for s in word:                                      # v <- sigma_s(v)
        rho = form(v)
        i = s * d
        v = v[:i] + tuple(a - b for a, b in zip(v[i:i + d], rho[i:i + d])) + v[i + d:]
    t = reflection(gram, v, word[::-1] + (0,) + word)
    product = row_factor(t)
    assert product.__code__.co_filename == "<rank-one kernel w=256 d=4>"
    rng = random.Random(64)
    row = tuple(rng.randint(-2 ** 70, 2 ** 70) for _ in range(n * d))
    assert product(row) == _matrix_product(t.packed, n, field)(row)
    assert product(product(row)) == row


def _fresh_reflections(group, word, depth):
    """(reflection, root) for new generators, the reflections of root depth
    <= depth, and the inversions of the word's element, none of them read
    before."""
    gram = group.gram
    simple = [image_root(group.identity, s) for s in range(group.cm.rank)]
    out = [(tits_generator(gram, s), root) for s, root in enumerate(simple)]
    out += [(r.element, r.root) for r in enumerate_reflections(gram, depth)]
    rw = group.reduced_word(group.element(word))
    roots = [image_root(group.element(rw[:j]), s) for j, s in enumerate(rw)]
    return out + list(zip(inversion_reflections(group, rw), roots))


@st.composite
def _lazy_case(draw):
    """(group, word, depth): a group of degree <= _DENSE_DEGREE, a random
    word and a root depth <= 3."""
    group = _group(draw(st.sampled_from(RANK_ONE_GROUPS)))
    letters = st.integers(min_value=0, max_value=group.cm.rank - 1)
    return group, tuple(draw(st.lists(letters, max_size=10))), draw(st.integers(0, 3))


@settings(max_examples=100, deadline=None)
@given(_lazy_case())
def test_reflection_matrix_is_built_from_its_product(case):
    # up to degree 4 a reflection starts as its product: the matrix read
    # from it is the eager I - beta rho, it squares to the identity, and its
    # row key is K(1) carried through its product
    group, word, depth = case
    one = row_key(group.identity)
    for t, root in _fresh_reflections(group, word, depth):
        assert not matrix_is_built(t)
        key = row_factor(t)(one)
        assert not matrix_is_built(t)
        assert t.packed == reflection_matrix(group.gram, root)
        assert matrix_is_built(t)
        assert row_key(t) == key
        assert (t * t).is_identity()


def test_reflection_above_degree_4_is_built_with_its_matrix():
    # the sparse kernel is made from the matrix, so it is built eagerly
    group = _group("D16")
    assert group.field.degree == 8 > _DENSE_DEGREE
    for t, root in _fresh_reflections(group, _word("abcbca"), 2):
        assert matrix_is_built(t)
        assert t.packed == reflection_matrix(group.gram, root)
        assert _kernel_of(row_factor(t)) == "sparse"
        assert (t * t).is_identity()


# -- kept kernels: one rank-one kernel per root on the Gram, up to
# `tits._KEPT_CELLS` closure cells.  Each test builds its own group, so no
# other test has filled the Gram's kernels first.


def _kept_kernels(gram):
    """The rank-one kernels the Gram keeps, by packed root."""
    return gram.__dict__.get("_rank_one_kernels", {})


def _inversion_roots(group, rw):
    """The root of each inversion of the reduced word, read off the prefix
    elements."""
    return [image_root(group.element(rw[:j]), s) for j, s in enumerate(rw)]


@pytest.mark.parametrize("name", RANK_ONE_GROUPS)
def test_reflections_of_one_root_share_one_product(name):
    group = TitsGroup(_group(name).cm)
    gram = group.gram
    for r in enumerate_reflections(gram, 2):
        again = reflection(gram, r.root, r.word + r.word)
        assert row_factor(again) is row_factor(r.element)
        assert again.word == r.word + r.word
    # a generator is the reflection of a simple root, made again by the
    # enumeration and as the first inversion of a word
    for s, gen in enumerate(group.generators):
        assert row_factor(tits_generator(gram, s)) is row_factor(gen)
        assert row_factor(inversion_reflections(group, (s,))[0]) is row_factor(gen)
    rw = group.reduced_word(group.element((0, 1, 2, 0, 1)))
    for t, root in zip(inversion_reflections(group, rw), _inversion_roots(group, rw)):
        assert _kept_kernels(gram)[root] is row_factor(t)


@settings(max_examples=60, deadline=None)
@given(_rank_one_case())
def test_kept_product_matches_the_matrix_product(case):
    # a reflection made again from a kept root reuses its kernel, and that
    # product is the general product by its matrix, built from it and
    # entry by entry from the root
    group, word, rows = case
    group = TitsGroup(group.cm)
    gram, n, field = group.gram, group.cm.rank, group.field
    rw = group.reduced_word(group.element(word))
    inversions = inversion_reflections(group, rw)
    made = [(r.element, r.root) for r in enumerate_reflections(gram, 2)]
    for t, root in made + list(zip(inversions, _inversion_roots(group, rw))):
        again = reflection(gram, root, ())
        product = row_factor(again)
        assert product is row_factor(t) is _kept_kernels(gram)[root]
        assert again.packed == reflection_matrix(gram, root)
        general = _matrix_product(again.packed, n, field)
        for row in rows:
            assert product(row) == general(row)


def test_kept_kernels_stop_at_their_bound(monkeypatch):
    # W3 has 3 * (2^(D+1) - 1) roots of depth <= D, 3069 at D = 9, and a
    # kernel there holds 2 n d^2 = 6 closure cells
    cm = _group("W3").cm
    gram = gram_matrix(cm)
    bound = coxlen.tits._KEPT_CELLS // 6
    assert len(enumerate_reflections(gram, 9)) == 3069 > bound
    assert len(_kept_kernels(gram)) == bound
    # past a small bound: the first kernels made are kept, the generators
    # first, and a reflection of a root past the bound gets a kernel of its
    # own, whose products are still right
    monkeypatch.setattr(coxlen.tits, "_KEPT_CELLS", 5 * 6 + 5)
    group = TitsGroup(cm)
    gram = group.gram
    reflections = enumerate_reflections(gram, 3)
    assert len(reflections) == 45
    kept = _kept_kernels(gram)
    assert len(kept) == 5
    simple = [image_root(group.identity, s) for s in range(3)]
    assert list(kept)[:3] == simple
    assert all(r.depth <= 1 for r in reflections if r.root in kept)
    rng = random.Random(5)
    rows = [tuple(rng.randint(-2 ** 70, 2 ** 70) for _ in range(3)) for _ in range(3)]
    for r in reflections:
        again = reflection(gram, r.root, r.word)
        assert (row_factor(again) is row_factor(r.element)) == (r.root in kept)
        general = _matrix_product(reflection_matrix(gram, r.root), 3, gram.field)
        for row in rows:
            assert row_factor(again)(row) == row_factor(r.element)(row) == general(row)
    assert len(_kept_kernels(gram)) == 5
    exact = TitsGroup(cm)
    value, parts = exact_reflection_length(exact, exact.element(_word("abcbcacab")))
    assert tuple("".join("abc"[s] for s in p.word) for p in parts) == \
        WITNESSES[("W3", "abcbcacab")]
    assert len(_kept_kernels(exact.gram)) == 5


def test_rank_64_degree_4_kept_kernels_stay_within_the_cell_bound():
    # 2 n d^2 = 2048 cells per kernel: the Gram keeps as many as the bound
    # holds, ~100 kB each, and the products of the roots past it are right
    gram = gram_matrix(parse_coxeter_matrix(_RANK_64))
    n, field = gram.cm.rank, gram.field
    cells = 2 * n * field.degree ** 2
    coxlen.tits._rank_one_maker(n * field.degree, field.degree)   # compiled untraced
    tracemalloc.start()
    try:
        reflections = enumerate_reflections(gram, 1)
        past = [r.root for r in reflections if r.root not in _kept_kernels(gram)][-4:]
        del reflections
        kept_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    kept = _kept_kernels(gram)
    assert len(kept) * cells <= coxlen.tits._KEPT_CELLS < (len(kept) + 1) * cells
    assert kept_bytes < 2 * 10 ** 6
    rng = random.Random(64)
    row = tuple(rng.randint(-2 ** 70, 2 ** 70) for _ in range(n * field.degree))
    for root in past:
        product = row_factor(reflection(gram, root, ()))
        assert product is not row_factor(reflection(gram, root, ()))
        assert product(row) == _matrix_product(reflection_matrix(gram, root), n, field)(row)
    assert len(_kept_kernels(gram)) == len(kept)


@pytest.mark.parametrize("name", RANK_ONE_GROUPS)
def test_exact_solve_makes_no_matrix_product_but_the_form(name, monkeypatch):
    # up to degree 4 the solver multiplies by generators and inversions
    # through their rank-one kernels, and carries a hit's key through the
    # target's word, so the one general product it makes is by 2B, once
    # per Gram, for the roots' rho
    made = []
    real = coxlen.tits._matrix_product

    def counted(B, n, field):
        made.append(B)
        return real(B, n, field)

    monkeypatch.setattr(coxlen.tits, "_matrix_product", counted)
    group = TitsGroup(_group(name).cm)
    form = tuple(c for row in group.gram.rows for e in row for c in e)
    for word in ((0, 1, 2, 0, 1, 2), (0, 2, 1, 2, 1, 0, 1, 2, 0, 1), (1, 2, 1, 0, 2)):
        g = group.element(word)
        value, _ = exact_reflection_length(group, g)
        assert value >= 2
        exact_reflection_length(group, GroupElement(group.gram, g.packed))
    assert made == [form]


# -- oracles: the column scan and the matrix products the row-key walk and
# `reflection` replaced.  W3, A2T, H3, T334, B4H and D16 cover degenerate and
# indefinite forms and computation field degrees 1, 2 and 8.
ORACLE_GROUPS = ("W3", "A2T", "H3", "T334", "B4H", "D16")


def _column_descent(group, g, s):
    """Whether column s of g's matrix, the root g(alpha_s), is negative: its
    first nonzero entry is."""
    n, d = group.cm.rank, group.field.degree
    for t in range(s * d, n * n * d, n * d):
        sign = group.field.sign_of(g.packed[t:t + d], 1)
        if sign:
            return sign < 0
    raise AssertionError("zero vector is not a root")


def _column_reduced_word(group, g):
    """Smallest descent first, on full matrices."""
    out = []
    while True:
        s = next((s for s in range(group.cm.rank) if _column_descent(group, g, s)),
                 None)
        if s is None:
            assert g.is_identity()
            return tuple(reversed(out))
        g = g * group.generators[s]
        out.append(s)


def _product_inversions(group, rw):
    """The inversions of a reduced word as prefix * back, s_1 ... s_j times
    s_(j-1) ... s_1."""
    out = []
    prefix = back = group.identity
    for s in rw:
        gen = group.generators[s]
        prefix = prefix * gen
        out.append(prefix * back)
        back = gen * back
    return out


def _product_enumeration(group, depth_cap):
    """(depth, root, key, word) of the root orbit expanded level by level,
    each new reflection being gen * t * gen of its parent t."""
    n = group.cm.rank
    simple = [image_root(group.identity, s) for s in range(n)]
    seen = {v: (0, t) for v, t in zip(simple, group.generators)}
    frontier = list(zip(simple, group.generators))
    for depth in range(1, depth_cap + 1):
        new_frontier = []
        for v, t in frontier:
            for s, gen in enumerate(group.generators):
                u = convolution_mat_mul(gen.packed, v, n, group.field)
                if v != simple[s] and u not in seen:
                    seen[u] = depth, gen * t * gen
                    new_frontier.append((u, seen[u][1]))
        frontier = new_frontier
    return sorted((depth, v, t.key, t.word) for v, (depth, t) in seen.items())


@st.composite
def _oracle_word(draw):
    group = _group(draw(st.sampled_from(ORACLE_GROUPS)))
    letters = st.integers(min_value=0, max_value=group.cm.rank - 1)
    return group, tuple(draw(st.lists(letters, max_size=14)))


@settings(max_examples=150, deadline=None)
@given(_oracle_word())
def test_row_key_descents_match_the_column_scan(case):
    group, word = case
    g = group.element(word)
    assert group.right_descents(g) == [s for s in range(group.cm.rank)
                                       if _column_descent(group, g, s)]
    rw = group.reduced_word(g)
    assert rw == _column_reduced_word(group, g)
    assert group.reduced_word(GroupElement(group.gram, g.packed)) == rw


@settings(max_examples=100, deadline=None)
@given(_oracle_word())
def test_reflections_match_the_matrix_products(case):
    # w s w^-1 from its root w(alpha_s), and the inversions of a reduced word
    group, word = case
    g = group.element(word)
    for s, gen in enumerate(group.generators):
        t = reflection(group.gram, image_root(g, s), word + (s,) + word[::-1])
        assert t.key == (g * gen * group.element(word[::-1])).key
    rw = group.reduced_word(g)
    got = inversion_reflections(group, rw)
    want = _product_inversions(group, rw)
    assert [(t.key, t.word) for t in got] == [(t.key, t.word) for t in want]


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_enumeration_matches_the_matrix_products(name):
    group = _group(name)
    got = sorted((r.depth, r.root, r.element.key, r.word)
                 for r in enumerate_reflections(group.gram, 4))
    assert got == _product_enumeration(group, 4)


# (diagram, L, |ball|): the row key is injective on these balls, among them
# a whole finite group (H3), two affine groups with a degenerate form (A2T
# and "m12=4 m23=4") and groups with a hyperbolic form
ROW_KEY_BALLS = (
    (GROUPS["W3"], 9, 1534), (GROUPS["A2T"], 12, 235), (GROUPS["H3"], 15, 120),
    (GROUPS["T334"], 10, 403), (GROUPS["B4H"], 7, 605), (GROUPS["W4"], 6, 1457),
    ("rank 3; m12=4 m23=4", 14, 281),
)


@pytest.mark.parametrize("text,L,size", ROW_KEY_BALLS)
def test_row_key_is_injective_on_balls(text, L, size):
    group = get_group(parse_coxeter_matrix(text))
    ball = standard_ball(group, L)
    assert len(ball) == size
    assert len({row_key(elt) for elt, _ in ball.values()}) == size


# sha256 of canonical_key(element(word)), recorded before elements were packed
KEY_DIGESTS = {
    ("W3", ""): "7478cc7239743177bdbbc7c58f43ca1510c16171290807e8056d55290e92ca72",
    ("W3", "a"): "3a991451b7aa8fbf4254522d0cabd787d93032cc1dd3d9592023d6108971d1e3",
    ("W3", "abc"): "e860444a76ee448943428cc19b9335f6eb1e42e97e40aa3380b658dc8be27043",
    ("W3", "abcacb"): "90c38e5df8c6ce361fa8a6dfdc9c1e12bdc2cc617320a3368f90a7f63b8c861b",
    ("W3", "abcbcacab"): "4405355b1a0a6e1f4d0512d9b5a1c435d7aefda6e304ab75409666b3cf76254c",
    ("A2T", "ab"): "2c569f2209e5eaae1d580e019c8c7857dc278ed1f52d13802bf3613634a9f3a5",
    ("A2T", "abcabc"): "b2ad8d6fb28561abc93c5bc9f367cd633603c7ac1f9ac84b4c84754f31a263f4",
    ("A2T", "abcbacbca"): "d99a2dcd5a342ca0b5178d04343b580c0dcd09b6765ed0efbc79886a7f0a1dd2",
    ("H3", "bc"): "ecdba699cd06e8a622e3b65ee0637c05cd3ebd4888f50aee9569469eab7143e6",
    ("H3", "abcabc"): "9d5153fad27d55019c02ffe7f9816aa79e6a6352a63e2f511c8fe24c17c72274",
    ("H3", "abcbcbabcb"): "3424b8ad49baadea3a09c05b4967b8b371463300a1e63d921e16567230c1511c",
    ("T334", "abc"): "af84f269fbe8f302ad14567bb2da1cb10a382358b8ef5c52c59cbdd50bd547eb",
    ("T334", "abcbca"): "22977e4c53357450a4dde41d63b4a314fb773f1ffdee965b414913c168512e6f",
    ("T334", "acbcbabcab"): "e46c8a8dc2edb85cf394f32930324b41476855a4251736dd1a44667e14727e87",
    ("B4H", "abcd"): "6e8da704eee3a785cfe153da99aae3c4bfdc2b4c335289cf9123224e948c848c",
    ("B4H", "abdcbad"): "2dbbfb34efa3f7bed86b487713e17b377313e6fc241cc86ce1399658b1b88322",
    ("B4H", "abcdabcd"): "8f12948f7c91e556366bd553f36299d8e9be5a936116ea0ead54935dc21bcb1a",
    ("W4", "abcd"): "a595f67c7a25dfd1e6599e5d0f5242d91c011f88a59414c0340e35055a9f901b",
    ("W4", "abcdbd"): "ac96fe5fef13532b7e3511af41a237ec0450fc33fa4266b0e06fea5c3f17fcc6",
    ("W4", "adcbacbd"): "bed77dd7e5af50b91ecda21700688efb039a077ed02cade38b9ae23739c005a9",
    ("D16", "abc"): "56ae446d74167b18aaf31dc410c597ba2899be4f7835db889ad4a8f1cff1d39c",
    ("D16", "acbcbc"): "4b15c898cfd15e7f129efd8ecff54cbdd331ab3c0d7cc8a854f1dd685b87c034",
    ("D16", "abcbcacb"): "e58b194323d9527c6d88be943c715b0a005f7b3126e5929191e9b1645ee73602",
}

# exact_reflection_length witnesses (reflection words), recorded likewise
WITNESSES = {
    ("W3", "a"): ("a",),
    ("W3", "abc"): ("abcba", "aba", "a"),
    ("W3", "abcacb"): ("abcacba", "a"),
    ("W3", "abcbcacab"): ("abcbcacacbcba", "abcbcba", "a"),
    ("A2T", "ab"): ("aba", "a"),
    ("A2T", "abcabc"): ("abcba", "a", "abcacba", "aba"),
    ("A2T", "abcbacbca"): ("abcabacba",),
    ("H3", "bc"): ("bcb", "b"),
    ("H3", "abcabc"): ("abcabacba", "aba"),
    ("H3", "abcbcbabcb"): ("abcbcabcbacbcba", "abcbcba"),
    ("T334", "abc"): ("abcba", "aba", "a"),
    ("T334", "abcbca"): ("aca", "acbcbca"),
    ("T334", "acbcbabcab"): ("acbcabacabacbca", "acbca"),
    ("B4H", "abcd"): ("abcdcba", "abcba", "aba", "a"),
    ("B4H", "abdcbad"): ("adbcbda", "a", "ada"),
    ("B4H", "abcdabcd"): ("abcdabcbadcba", "abcdadcba", "abcba", "a"),
    ("W4", "abcd"): ("abcdcba", "abcba", "aba", "a"),
    ("W4", "abcdbd"): ("abcdbdcba", "abcba", "aba", "a"),
    ("W4", "adcbacbd"): ("adcbacabcda", "adcbabcda", "adcda", "a"),
    ("D16", "abc"): ("abcba", "aba", "a"),
    ("D16", "acbcbc"): ("abcbcba", "a"),
    ("D16", "abcbcacb"): ("abcbabcba", "abcbacabcba", "abcbcba", "a"),
}


def test_canonical_key_bytes_are_pinned():
    for (name, text), digest in KEY_DIGESTS.items():
        g = _group(name).element(_word(text))
        assert hashlib.sha256(canonical_key(g)).hexdigest() == digest, (name, text)


def _report_rows(g):
    """The element's matrix over the report field Q(2cos(pi/N)), each entry
    sum c_i theta'^i evaluated there with theta' = D_(N/N')(theta)."""
    report = RealCyclotomicField(g.gram.cm.conductor())
    small = g.gram.field
    theta = report.scalar(report.dickson(report.N // small.N)) if small.degree > 1 \
        else report.zero
    powers = [report.one]
    for _ in range(small.degree - 1):
        powers.append(powers[-1] * theta)
    return tuple(tuple(sum((p * c for p, c in zip(powers, e.num)), report.zero)
                       for e in row) for row in _scalar_rows(g))


def test_canonical_key_is_the_serialized_matrix():
    # over the report field: degree 4 where the work runs at degree 2
    g = _group("T334").element(_word("abcbca"))
    rows = _report_rows(g)
    assert rows[0][0].field.degree == 4 and g.gram.field.degree == 2
    entries = tuple(tuple((e.num, e.den) for e in row) for row in rows)
    assert canonical_key(g) == repr(entries).encode()


# ranks 1 to 4, report fields of degree 1 to 16 over work fields of degree
# 1 to 8: the same field (W3, A2T, the rank-2 groups), Q into degree 2 (A3)
# and degree 2, 4 or 8 into a larger one
KEY_GROUPS = ("rank 1", "rank 2; m12=3", "rank 2; m12=5", "rank 2; m12=8") + tuple(
    GROUPS[name] for name in ("W3", "A2T", "A3", "H3", "T334", "B4H", "W4", "P38", "D16"))


@st.composite
def _report_bytes_case(draw):
    """(gram, packed matrix, packed root) with zero, negative and large
    coefficients."""
    gram = get_group(parse_coxeter_matrix(draw(st.sampled_from(KEY_GROUPS)))).gram
    n, d = gram.cm.rank, gram.field.degree
    coeff = st.one_of(st.integers(-3, 3), st.integers(-2 ** 100, 2 ** 100))
    return (gram, tuple(draw(st.lists(coeff, min_size=n * n * d, max_size=n * n * d))),
            tuple(draw(st.lists(coeff, min_size=n * d, max_size=n * d))))


@settings(max_examples=200, deadline=None)
@given(_report_bytes_case())
def test_report_bytes_match_the_repr_oracle(case):
    gram, matrix, root = case
    g = GroupElement(gram, matrix)
    assert canonical_key(g) == report_key_bytes(g)
    assert _root_key(gram, root) == report_root_bytes(gram, root)


def test_report_bytes_of_one_tuples():
    # rank 1 and degree-1 report fields write the trailing comma of a 1-tuple
    a1 = get_group(parse_coxeter_matrix("rank 1"))
    assert canonical_key(a1.generators[0]) == b"((((-1,), 1),),)"
    assert _root_key(a1.gram, (1,)) == b"(((1,), 1),)"
    a2 = get_group(parse_coxeter_matrix("rank 2; m12=3"))
    assert _root_key(a2.gram, (1, 1)) == b"(((1,), 1), ((1,), 1))"


def test_report_bytes_at_rank_64():
    # the rank-64 degree-4 path maps into the degree-8 report field
    # Q(2cos(pi/24)) through the same generated map as P38 at rank 3, so the
    # generated code does not grow with the rank
    group = TitsGroup(parse_coxeter_matrix(_RANK_64))
    gram = group.gram
    assert (gram.field.degree, gram.cm.conductor()) == (4, 24)
    g = group.element((1, 2, 3, 0, 1, 4))
    assert canonical_key(g) == report_key_bytes(g)
    for r in enumerate_reflections(gram, 1)[-3:]:
        assert _root_key(gram, r.root) == report_root_bytes(gram, r.root)
    small = _group("P38").gram
    assert _make_report_columns(gram) == _make_report_columns(small)
    assert _report_maker(_make_report_columns(gram)) is \
        _report_maker(_make_report_columns(small))


def test_solver_witnesses_are_pinned():
    for (name, text), witness in WITNESSES.items():
        group = _group(name)
        value, parts = exact_reflection_length(group, group.element(_word(text)))
        assert value == len(witness)
        assert tuple("".join("abcd"[s] for s in p.word) for p in parts) == witness, (
            name, text)


# -- oracles for the smallest field and the dense kernel: the convolution
# kernel at every degree, and the Gram form over the report field.  A3's form
# lies in Q, where its report field Q(2cos(pi/6)) has degree 2.
FIELD_ORACLE_GROUPS = ("W3", "A3", "H3", "T334", "B4H", "D16", "P38", "P57")


@st.composite
def _kernel_case(draw):
    """(group, x, t, word of x): x and t from random words or t an
    enumerated reflection."""
    name = draw(st.sampled_from(FIELD_ORACLE_GROUPS))
    group = _group(name)
    letters = st.integers(min_value=0, max_value=group.cm.rank - 1)
    u = tuple(draw(st.lists(letters, max_size=12)))
    if draw(st.booleans()):
        t = group.element(tuple(draw(st.lists(letters, max_size=12))))
    else:
        t = draw(st.sampled_from(get_reflections(group, 2))).element
    return group, group.element(u), t, u


@settings(max_examples=150, deadline=None)
@given(_kernel_case())
def test_row_mul_matches_the_convolution_kernel(case):
    group, x, t, _ = case
    n, field = group.cm.rank, group.field
    oracle_side = convolution_side(t.packed, n, field)
    t = GroupElement(group.gram, t.packed)
    assert row_factor(t)(row_key(x)) == \
        convolution_row_mul(row_key(x), oracle_side, field)
    assert (x * t).packed == convolution_mat_mul(x.packed, t.packed, n, field)


@settings(max_examples=100, deadline=None)
@given(_kernel_case())
def test_canonical_key_matches_the_report_field_gram(case):
    group, x, _, word = case
    assert canonical_key(x) == report_key(group.cm, word)


@pytest.mark.parametrize("name", FIELD_ORACLE_GROUPS)
def test_enumeration_order_matches_the_report_field_gram(name):
    group = _group(name)
    for D in range(5):
        got = [(r.depth, r.word, _root_key(group.gram, r.root))
               for r in enumerate_reflections(group.gram, D)]
        assert got == report_enumeration(group.cm, D), D


@pytest.mark.parametrize("name", FIELD_ORACLE_GROUPS)
def test_ball_csv_matches_the_report_field_gram(name, tmp_path, monkeypatch):
    # the same run with every Tits group built over the report field, whose
    # keys and root bytes read its own coefficients
    argv = ["reflen", "--inline", GROUPS[name], "-L", "5", "-D", "4", "--output"]
    assert main(argv + [str(tmp_path / "small")]) == 0
    monkeypatch.setattr(coxlen.reflen, "_GROUP_CACHE", {})
    monkeypatch.setattr(coxlen.reflen, "_REFLECTION_CACHE", {})
    monkeypatch.setattr(coxlen.tits, "gram_matrix", report_gram)
    assert main(argv + [str(tmp_path / "report")]) == 0
    assert get_group(parse_coxeter_matrix(GROUPS[name])).field.N == \
        parse_coxeter_matrix(GROUPS[name]).conductor()
    assert (tmp_path / "small").read_bytes() == (tmp_path / "report").read_bytes()


@st.composite
def _reduced_word_case(draw):
    """(group, reduced word): a reduced word of a random word of up to 16
    letters, at every computation field degree of FIELD_ORACLE_GROUPS."""
    group = _group(draw(st.sampled_from(FIELD_ORACLE_GROUPS)))
    letters = st.integers(min_value=0, max_value=group.cm.rank - 1)
    word = tuple(draw(st.lists(letters, max_size=16)))
    return group, group.reduced_word(group.element(word))


@settings(max_examples=100, deadline=None)
@given(_reduced_word_case())
def test_prefix_row_walk_matches_the_prefix_products(case):
    # the inversions read off the walked prefix rows against the prefix
    # elements they replaced: the same row keys, words and order, and the
    # matrix of each against I - beta rho of the prefix's column s_j
    group, rw = case
    one = row_key(group.identity)
    got = inversion_reflections(group, rw)
    want = prefix_inversions(group, rw)
    assert [(row_factor(t)(one), t.word) for t in got] == \
        [(row_factor(t)(one), t.word) for t in want]
    assert [t.packed for t in got] == \
        [reflection_matrix(group.gram, root) for root in _inversion_roots(group, rw)]


@st.composite
def _odd_hit_case(draw):
    """(group, reduced word): a reduced word of a random word of up to 12
    letters in a group of computation degree <= 4."""
    group = _group(draw(st.sampled_from(RANK_ONE_GROUPS)))
    letters = st.integers(min_value=0, max_value=group.cm.rank - 1)
    word = tuple(draw(st.lists(letters, max_size=12)))
    return group, group.reduced_word(group.element(word))


@settings(max_examples=60, deadline=None)
@given(_odd_hit_case())
def test_walked_hit_witness_matches_the_built_layer(case):
    # one target at odd n >= 3 walks the children of layer a; the same
    # target twice builds layer a + 1 instead, and both read the least
    # witness
    group, rw = case
    g = group.element(rw)
    factors = inversion_reflections(group, rw)
    (walked,) = min_product_length(group, [(g, len(rw))], factors)
    built = min_product_length(group, [(g, len(rw))] * 2, factors)
    assert built == [walked, walked]


def test_pinned_walked_witnesses_match_the_built_layer():
    for (name, text), witness in WITNESSES.items():
        group = _group(name)
        g = group.element(_word(text))
        rw = group.reduced_word(g)
        factors = inversion_reflections(group, rw)
        (walked,) = min_product_length(group, [(g, len(rw))], factors)
        built = min_product_length(group, [(g, len(rw))] * 2, factors)
        assert walked[0] == len(witness) and built == [walked, walked], (name, text)
