import itertools
import json
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import coxeter_oracles as oracle
from coxlen.catalog import EUCLIDEAN, SPHERICAL, table_kind, table_name
from coxlen.coxeter import (INF, CoxeterMatrix, Kind, classify_component,
                            classify_group, gram_matrix,
                            irreducible_components, load_matrix_json,
                            minimal_nonaffine_subsets, parse_any,
                            parse_coxeter_matrix, subset_is_affine)
from coxlen.errors import CoxlenError, DomainError, InputError
from coxlen.exactfield import RealCyclotomicField
from coxlen.tits import gram_signature


# -- parsing -------------------------------------------------------------


def test_parse_basic():
    cm = parse_coxeter_matrix("rank 2; m12=3")
    assert cm.entries == ((1, 3), (3, 1))


def test_parse_infinite_bond():
    cm = parse_coxeter_matrix("rank 2; m12=inf")
    assert cm.entries == ((1, INF), (INF, 1))


def test_parse_triangle():
    cm = parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4")
    assert cm.entries == ((1, 3, 3), (3, 1, 4), (3, 4, 1))


def test_parse_defaults_to_order_two():
    cm = parse_coxeter_matrix("rank 3; m12=5")
    assert cm.entries[0][2] == 2 and cm.entries[1][2] == 2


@pytest.mark.parametrize("text", [
    "m12=3",                      # missing rank
    "rank 0",
    "rank 2; m21=3",              # needs i < j
    "rank 2; m12=1",              # below 2
    "rank 2; m13=3",              # out of range
    "rank 2; m12=x",
    "rank \u00b2",                # a digit that int() does not read
])
def test_parse_errors(text):
    with pytest.raises(InputError):
        parse_coxeter_matrix(text)


def test_json_matrix_with_zero_as_infinity():
    cm = load_matrix_json('{"matrix": [[1, 0], [0, 1]]}')
    assert cm.entries == ((1, INF), (INF, 1))
    cm2 = parse_any("[[1, 3], [3, 1]]")
    assert cm2.entries == ((1, 3), (3, 1))


def test_matrix_validation_errors():
    with pytest.raises(InputError):
        CoxeterMatrix.make([[1, 3], [4, 1]])      # asymmetric
    with pytest.raises(InputError):
        CoxeterMatrix.make([[2, 3], [3, 1]])      # diagonal
    with pytest.raises(InputError):
        CoxeterMatrix.make([[1, 1], [1, 1]])      # off-diagonal below 2


@pytest.mark.parametrize("x", [2.5, 3.0, "3", None, True, [3]])
def test_matrix_entries_must_be_integers(x):
    # no truncation: 2.5 is not read as 2
    with pytest.raises(InputError):
        CoxeterMatrix.make([[1, x], [x, 1]])
    with pytest.raises(InputError):
        parse_any(json.dumps({"matrix": [[1, x], [x, 1]]}))
    with pytest.raises(InputError):
        CoxeterMatrix.make([[1, 3], x])


def test_multidigit_indices_use_separator():
    cm = parse_coxeter_matrix("rank 10; m1_10=3")
    assert cm.entries[0][9] == 3


# -- Gram matrices --------------------------------------------------------


def test_gram_entries_exact():
    # 2B: -2cos(pi/3) = -1, -2cos(pi/inf) = -2, and -2cos(pi/4) = -theta in
    # Q(2cos(pi/4)) = Q(sqrt 2)
    a2 = gram_matrix(parse_coxeter_matrix("rank 2; m12=3"))
    assert a2.rows[0][1] == (-1,)
    inf = gram_matrix(parse_coxeter_matrix("rank 2; m12=inf"))
    assert inf.rows[0][1] == (-2,)
    b2 = gram_matrix(parse_coxeter_matrix("rank 2; m12=4"))
    x = b2.rows[0][1]
    assert x == (0, -1) and b2.field.mul(x, x) == (2, 0)


def test_gram_diagonal_is_one():
    # B_ii = 1, held as 2B_ii = 2
    gm = gram_matrix(parse_coxeter_matrix("rank 3; m12=5 m23=4"))
    for i in range(3):
        assert gm.rows[i][i] == (2,) + (0,) * (gm.field.degree - 1)


def _value(field, coeffs):
    """sum(coeffs[i] theta^i), theta = 2cos(pi/N), at the working precision."""
    theta = 2 * mpmath.cos(mpmath.pi / field.N)
    return sum(c * theta ** i for i, c in enumerate(coeffs))


def _assert_twice_b(gm):
    assert len(gm.rows) == gm.cm.rank
    for row, orders in zip(gm.rows, gm.cm.entries):
        assert len(row) == gm.cm.rank
        for e, m in zip(row, orders):
            assert len(e) == gm.field.degree
            want = -2 if m == INF else -2 * mpmath.cos(mpmath.pi / m)
            assert abs(_value(gm.field, e) - want) < mpmath.mpf(10) ** -50, (gm.cm, m)


@pytest.mark.parametrize("m", list(range(2, 61)) + [INF])
def test_gram_rows_are_twice_b_in_every_field(m):
    # 2B_ij = -2cos(pi/m_ij) to 50 digits, in the smallest field of the bond
    # and inside a diagram whose field is larger (bond 7 next to it, and an
    # infinite bond); at degree 174 (m = 59) terms c theta^i of up to ~10^64
    # cancel, so the sums run at 150 digits
    with mpmath.workdps(150):
        alone = gram_matrix(CoxeterMatrix.make([[1, m], [m, 1]]))
        assert alone.field.N == (m if m != INF and m >= 4 else 2)
        _assert_twice_b(alone)
        mixed = gram_matrix(CoxeterMatrix.make([[1, m, 7], [m, 1, INF], [7, INF, 1]]))
        assert mixed.field.N == math.lcm(7, m if m != INF and m >= 4 else 1)
        _assert_twice_b(mixed)


# -- components -----------------------------------------------------------


def test_components():
    assert irreducible_components(parse_coxeter_matrix("rank 2; m12=3")) == [(0, 1)]
    assert irreducible_components(parse_coxeter_matrix("rank 2")) == [(0,), (1,)]
    four = parse_coxeter_matrix("rank 4; m12=inf m34=inf")
    assert irreducible_components(four) == [(0, 1), (2, 3)]


def test_classify_component_rejects_reducible_subset():
    cm = parse_coxeter_matrix("rank 2")
    with pytest.raises(DomainError):
        classify_component(cm, (0, 1))
    with pytest.raises(DomainError):
        classify_component(cm, ())


@pytest.mark.parametrize("subset", [(-1, 0), (0, 5), (0, 0), (1, 0), (0, True), (0.0, 1)])
def test_subset_arguments_are_checked(subset):
    # -1 would wrap around to the last generator, 5 is past the rank, and a
    # repeated, unsorted or non-integer index names no generator subset
    cm = parse_coxeter_matrix("rank 3; m12=3 m23=4")
    for call in (cm.submatrix, lambda s: classify_component(cm, s),
                 lambda s: subset_is_affine(cm, s)):
        with pytest.raises(DomainError):
            call(subset)


def test_empty_subset_is_affine():
    assert subset_is_affine(parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4"), ())


# -- classification with independent oracles -------------------------------


def _sympy_gram(cm):
    import sympy

    n = cm.rank
    return sympy.Matrix([
        [1 if i == j else
         (-1 if cm.entries[i][j] == INF else -sympy.cos(sympy.pi / cm.entries[i][j]))
         for j in range(n)] for i in range(n)])


def test_classify_component_examples_with_symbolic_oracle():
    import sympy

    a2 = parse_coxeter_matrix("rank 2; m12=3")
    assert classify_component(a2, (0, 1)) == Kind.SPHERICAL
    assert _sympy_gram(a2).det() == Fraction(3, 4)

    at1 = parse_coxeter_matrix("rank 2; m12=inf")
    assert classify_component(at1, (0, 1)) == Kind.AFFINE_EUCLIDEAN
    assert _sympy_gram(at1).det() == 0

    t334 = parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4")
    assert classify_component(t334, (0, 1, 2)) == Kind.NON_AFFINE
    assert sympy.simplify(_sympy_gram(t334).det()) < 0


def test_classify_group_examples():
    at2 = parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=3")
    v = classify_group(at2)
    assert v.kind == Kind.AFFINE_EUCLIDEAN and not v.minimal_nonaffine
    import sympy
    m = _sympy_gram(at2)
    assert m.det() == 0 and len(m.nullspace()) == 1

    t334 = parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4")
    v = classify_group(t334)
    assert v.kind == Kind.NON_AFFINE and v.minimal_nonaffine

    r4 = parse_coxeter_matrix("rank 4; m12=3 m13=3 m14=3 m23=3 m24=3 m34=3")
    v = classify_group(r4)
    assert v.kind == Kind.NON_AFFINE and v.minimal_nonaffine
    for s in range(4):
        sub = tuple(x for x in range(4) if x != s)
        assert classify_component(r4, sub) == Kind.AFFINE_EUCLIDEAN


def test_mixed_product_is_nonaffine():
    cm = parse_coxeter_matrix("rank 4; m12=3 m13=3 m23=4")  # (3,3,4) x A1
    assert classify_group(cm).kind == Kind.NON_AFFINE
    assert not classify_group(cm).minimal_nonaffine


# -- minimal non-affine subsets --------------------------------------------


def _brute_minimal_subsets(cm):
    nonaffine = [t for size in range(1, cm.rank + 1)
                 for t in itertools.combinations(range(cm.rank), size)
                 if not subset_is_affine(cm, t)]
    out = []
    for t in nonaffine:
        if not any(set(u) < set(t) for u in nonaffine):
            out.append(t)
    return out


def test_minimal_subsets_triangle():
    t334 = parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=4")
    assert minimal_nonaffine_subsets(t334) == [(0, 1, 2)]


def test_minimal_subsets_with_spectator_generator():
    cm = parse_coxeter_matrix("rank 4; m12=3 m13=3 m23=4")
    assert minimal_nonaffine_subsets(cm) == [(0, 1, 2)]


def test_minimal_subsets_affine_input_is_error():
    with pytest.raises(DomainError):
        minimal_nonaffine_subsets(parse_coxeter_matrix("rank 3; m12=3 m13=3 m23=3"))


@pytest.mark.parametrize("text", [
    "rank 3; m12=3 m13=3 m23=4",
    "rank 4; m12=3 m13=3 m14=3 m23=3 m24=3 m34=3",
    "rank 4; m12=inf m23=5 m34=inf",
    "rank 5; m12=3 m23=4 m34=3 m45=4 m15=3",
    "rank 6; m12=inf m34=7 m35=3 m45=3",
])
def test_minimal_subsets_match_brute_force(text):
    cm = parse_coxeter_matrix(text)
    if classify_group(cm).kind != Kind.NON_AFFINE:
        pytest.skip("needs a non-affine input")
    assert minimal_nonaffine_subsets(cm) == _brute_minimal_subsets(cm)


# -- catalog cross-checks ---------------------------------------------------


def test_catalog_table_vs_minor_classifier():
    for name, cm in {**SPHERICAL, **EUCLIDEAN}.items():
        comps = irreducible_components(cm)
        assert len(comps) == 1, name
        got = classify_component(cm, comps[0])
        assert got == table_kind(cm), name
        assert table_name(cm) == name or name in ("A2", "B2", "H2", "G2")


def test_every_subset_of_affine_groups_is_affine():
    for name, cm in EUCLIDEAN.items():
        for size in range(cm.rank + 1):
            for subset in itertools.combinations(range(cm.rank), size):
                assert subset_is_affine(cm, subset), (name, subset)


def test_verdict_invariant_under_permutation():
    rng = random.Random(5)
    labels = [2, 3, 4, 5, 6, INF]
    for _ in range(40):
        n = rng.randint(2, 5)
        entries = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                entries[i][j] = entries[j][i] = rng.choice(labels)
        cm = CoxeterMatrix.make(entries)
        base = classify_group(cm)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = CoxeterMatrix.make(
            [[entries[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
        other = classify_group(permuted)
        assert base.kind == other.kind
        assert base.minimal_nonaffine == other.minimal_nonaffine


# -- rank-6 verdicts recorded before classification moved to the signature -----

# (diagram, report field degree, computation field degree, kind, components,
# minimal flag, signature): the report field is Q(2cos(pi/N)), N =
# cm.conductor(); the Gram form is computed in Q(2cos(pi/N')), N' the lcm of
# the bond orders >= 4
RANK6 = (
    ('rank 6; m12=3 m23=3 m34=3 m45=3 m56=3', 2, 1, 'Spherical', (((0, 1, 2, 3, 4, 5), 'Spherical'),), False, (6, 0, 0)),
    ('rank 6; m12=4 m23=3 m34=3 m45=3 m56=3', 4, 2, 'Spherical', (((0, 1, 2, 3, 4, 5), 'Spherical'),), False, (6, 0, 0)),
    ('rank 6; m12=3 m23=3 m34=3 m45=3 m36=3', 2, 1, 'Spherical', (((0, 1, 2, 3, 4, 5), 'Spherical'),), False, (6, 0, 0)),
    ('rank 6; m12=3 m23=3 m34=3 m45=3 m56=3 m16=3', 2, 1, 'AffineEuclidean', (((0, 1, 2, 3, 4, 5), 'AffineEuclidean'),), False, (5, 0, 1)),
    ('rank 6; m12=4 m23=3 m34=3 m45=3 m56=4', 4, 2, 'AffineEuclidean', (((0, 1, 2, 3, 4, 5), 'AffineEuclidean'),), False, (5, 0, 1)),
    ('rank 6; m12=5 m23=3 m34=3 m45=3 m56=3', 8, 2, 'NonAffine', (((0, 1, 2, 3, 4, 5), 'NonAffine'),), False, (5, 1, 0)),
    ('rank 6; m12=5 m23=3 m45=5 m56=3', 8, 2, 'Spherical', (((0, 1, 2), 'Spherical'), ((3, 4, 5), 'Spherical')), False, (6, 0, 0)),
    ('rank 6; m12=inf m34=inf m56=inf', 1, 1, 'AffineEuclidean', (((0, 1), 'AffineEuclidean'), ((2, 3), 'AffineEuclidean'), ((4, 5), 'AffineEuclidean')), False, (3, 0, 3)),
    ('rank 6; m12=inf m23=inf m34=inf m45=inf m56=inf m16=inf', 1, 1, 'NonAffine', (((0, 1, 2, 3, 4, 5), 'NonAffine'),), False, (3, 1, 2)),
    ('rank 6; m12=7 m23=3 m34=3 m45=3 m56=3', 12, 3, 'NonAffine', (((0, 1, 2, 3, 4, 5), 'NonAffine'),), False, (5, 1, 0)),
    ('rank 6; m12=8 m34=3 m45=3 m56=4', 8, 4, 'Spherical', (((0, 1), 'Spherical'), ((2, 3, 4, 5), 'Spherical')), False, (6, 0, 0)),
    ('rank 6; m12=9 m23=3 m45=3 m56=inf', 6, 3, 'NonAffine', (((0, 1, 2), 'NonAffine'), ((3, 4, 5), 'NonAffine')), False, (4, 2, 0)),
    ('rank 6; m12=10 m23=3 m34=5 m56=3', 8, 4, 'NonAffine', (((0, 1, 2, 3), 'NonAffine'), ((4, 5), 'Spherical')), False, (5, 1, 0)),
    ('rank 6; m12=11 m34=3 m56=inf', 20, 5, 'AffineEuclidean', (((0, 1), 'Spherical'), ((2, 3), 'Spherical'), ((4, 5), 'AffineEuclidean')), False, (5, 0, 1)),
    ('rank 6; m12=12 m23=3 m34=3 m45=3 m56=3', 4, 4, 'NonAffine', (((0, 1, 2, 3, 4, 5), 'NonAffine'),), False, (5, 1, 0)),
    ('rank 6; m12=13 m23=inf', 12, 6, 'NonAffine', (((0, 1, 2), 'NonAffine'), ((3,), 'Spherical'), ((4,), 'Spherical'), ((5,), 'Spherical')), False, (5, 1, 0)),
    ('rank 6; m12=15 m34=3 m45=3', 8, 4, 'Spherical', (((0, 1), 'Spherical'), ((2, 3, 4), 'Spherical'), ((5,), 'Spherical')), False, (6, 0, 0)),
    ('rank 6; m12=16 m23=3 m34=3 m45=3 m56=3', 16, 8, 'NonAffine', (((0, 1, 2, 3, 4, 5), 'NonAffine'),), False, (5, 1, 0)),
    ('rank 6; m12=17 m23=3', 32, 8, 'NonAffine', (((0, 1, 2), 'NonAffine'), ((3,), 'Spherical'), ((4,), 'Spherical'), ((5,), 'Spherical')), False, (5, 1, 0)),
    ('rank 6; m12=5 m23=4 m34=3 m45=3 m56=3', 16, 8, 'NonAffine', (((0, 1, 2, 3, 4, 5), 'NonAffine'),), False, (5, 1, 0)),
    ('rank 6; m12=3 m23=4 m34=5 m45=3 m56=3', 16, 8, 'NonAffine', (((0, 1, 2, 3, 4, 5), 'NonAffine'),), False, (5, 1, 0)),
    ('rank 6; m12=3 m13=3 m23=4 m45=5 m56=6', 16, 16, 'NonAffine', (((0, 1, 2), 'NonAffine'), ((3, 4, 5), 'NonAffine')), False, (4, 2, 0)),
    ('rank 6; m12=3 m23=3 m34=3 m45=3 m56=3 m16=4', 4, 2, 'NonAffine', (((0, 1, 2, 3, 4, 5), 'NonAffine'),), True, (5, 1, 0)),
    ('rank 6; m12=inf m23=5 m34=inf m45=7 m56=3', 48, 12, 'NonAffine', (((0, 1, 2, 3, 4, 5), 'NonAffine'),), False, (4, 2, 0)),
    ('rank 6; m12=4 m23=4 m34=4 m45=4 m56=4 m16=4', 2, 2, 'NonAffine', (((0, 1, 2, 3, 4, 5), 'NonAffine'),), False, (5, 1, 0)),
    ('rank 6; m12=3 m23=3 m34=3 m25=3 m56=3', 2, 1, 'Spherical', (((0, 1, 2, 3, 4, 5), 'Spherical'),), False, (6, 0, 0)),
    ('rank 6; m12=3 m23=3 m34=3 m35=3 m56=3', 2, 1, 'Spherical', (((0, 1, 2, 3, 4, 5), 'Spherical'),), False, (6, 0, 0)),
    ('rank 6; m12=20 m23=3 m34=inf', 16, 8, 'NonAffine', (((0, 1, 2, 3), 'NonAffine'), ((4,), 'Spherical'), ((5,), 'Spherical')), False, (5, 1, 0)),
    ('rank 6; m12=24 m23=3', 8, 8, 'NonAffine', (((0, 1, 2), 'NonAffine'), ((3,), 'Spherical'), ((4,), 'Spherical'), ((5,), 'Spherical')), False, (5, 1, 0)),
    ('rank 6; m12=32 m34=3', 32, 16, 'Spherical', (((0, 1), 'Spherical'), ((2, 3), 'Spherical'), ((4,), 'Spherical'), ((5,), 'Spherical')), False, (6, 0, 0)),
    ('rank 6; m12=5 m23=6 m34=3 m45=4', 16, 16, 'NonAffine', (((0, 1, 2, 3, 4), 'NonAffine'), ((5,), 'Spherical')), False, (5, 1, 0)),
    ('rank 6; m12=inf m13=inf m14=inf m15=inf m16=inf', 1, 1, 'NonAffine', (((0, 1, 2, 3, 4, 5), 'NonAffine'),), False, (5, 1, 0)),
    ('rank 6; m12=3 m23=3 m34=4 m45=3 m56=3', 4, 2, 'NonAffine', (((0, 1, 2, 3, 4, 5), 'NonAffine'),), True, (5, 1, 0)),
    ('rank 6; m12=3 m23=4 m34=3 m45=3 m56=4', 4, 2, 'NonAffine', (((0, 1, 2, 3, 4, 5), 'NonAffine'),), True, (5, 1, 0)),
    ('rank 6; m12=3 m15=3 m23=3 m34=3 m45=3 m56=3', 2, 1, 'NonAffine', (((0, 1, 2, 3, 4, 5), 'NonAffine'),), True, (5, 1, 0)),
    ('rank 6; m12=3 m23=3 m34=3 m46=4 m56=3', 4, 2, 'NonAffine', (((0, 1, 2, 3, 4, 5), 'NonAffine'),), True, (5, 1, 0)),
    ('rank 6; m12=6 m23=3 m34=3 m45=3 m56=3', 2, 2, 'NonAffine', (((0, 1, 2, 3, 4, 5), 'NonAffine'),), False, (5, 1, 0)),
    ('rank 6; m12=3 m23=3 m34=3 m45=3 m56=inf', 2, 1, 'NonAffine', (((0, 1, 2, 3, 4, 5), 'NonAffine'),), False, (5, 1, 0)),
)


@pytest.mark.parametrize("row", RANK6, ids=[r[0] for r in RANK6])
def test_rank6_verdicts_are_pinned(row):
    text, report_degree, degree, kind, components, minimal, signature = row
    cm = parse_coxeter_matrix(text)
    gm = gram_matrix(cm)
    verdict = classify_group(cm)
    assert RealCyclotomicField(cm.conductor()).degree == report_degree
    assert gm.field.degree == degree
    assert verdict.kind.value == kind
    assert tuple((c, k.value) for c, k in verdict.components) == components
    assert verdict.minimal_nonaffine == minimal
    assert gram_signature(gm) == verdict.signature == signature


# -- minimal subsets against the face-check definition -------------------------


def _face_check_minimal_subsets(cm):
    """A subset is minimal iff it is non-affine and every face S - {t} is affine."""
    return [t for size in range(1, cm.rank + 1)
            for t in itertools.combinations(range(cm.rank), size)
            if not subset_is_affine(cm, t)
            and all(subset_is_affine(cm, tuple(x for x in t if x != s)) for s in t)]


@st.composite
def _diagram(draw, max_rank=6, bonds=(2, 2, 3, 3, 4, 5, 6, INF)):
    n = draw(st.integers(1, max_rank))
    entries = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entries[i][j] = entries[j][i] = draw(st.sampled_from(bonds))
    return CoxeterMatrix.make(entries)


@settings(max_examples=60, deadline=None)
@given(_diagram())
def test_minimal_subsets_match_face_check_definition(cm):
    if classify_group(cm).kind != Kind.NON_AFFINE:
        with pytest.raises(DomainError):
            minimal_nonaffine_subsets(cm)
        return
    assert minimal_nonaffine_subsets(cm) == _face_check_minimal_subsets(cm)


def _value_or_error(f, cm):
    try:
        return f(cm)
    except CoxlenError as e:
        return type(e)


@settings(max_examples=60, deadline=None)
@given(_diagram(max_rank=7, bonds=(2, 2, 3, 3, 4, 5, 6, 8, INF)))
def test_classifier_matches_the_submatrix_oracle(cm):
    assert irreducible_components(cm) == oracle.irreducible_components(cm)
    assert classify_group(cm) == oracle.classify_group(cm)
    for size in range(cm.rank + 1):
        for subset in itertools.combinations(range(cm.rank), size):
            assert subset_is_affine(cm, subset) == oracle.subset_is_affine(cm, subset)
            if subset and len(oracle.irreducible_components(cm.submatrix(subset))) == 1:
                assert classify_component(cm, subset) == \
                    oracle.classify_component(cm, subset)
    assert _value_or_error(minimal_nonaffine_subsets, cm) == \
        _value_or_error(oracle.minimal_nonaffine_subsets, cm)


@settings(max_examples=60, deadline=None)
@given(_diagram())
def test_signature_is_the_sum_over_components(cm):
    # the Gram form is block diagonal over the components (Sylvester)
    assert classify_group(cm).signature == gram_signature(gram_matrix(cm))
