"""Exact inertia by symmetric elimination on packed Z[theta] rows: each
pivot path, property tests against the 2^n principal-minor Descartes count,
the `ExactScalar` elimination it replaced and the 2x2-pivot elimination, and
Sylvester's criterion.
Division-free rank: each pivot path, and M - I of random group elements
against sympy's rank over the same algebraic field.
No `ExactScalar` is built by either elimination or by `fixed_space_codim`."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from coxlen import linalg
from coxeter_oracles import scalar_gram
from coxlen.coxeter import INF, CoxeterMatrix, gram_matrix, parse_coxeter_matrix
from coxlen.exactfield import ExactScalar, RealCyclotomicField
from coxlen.reflen import get_group
from coxlen.tits import _entry_rows, fixed_space_codim, gram_signature
from linalg_oracles import scalar_inertia, scalar_matrix_rank, two_by_two_pivot_inertia

Q = RealCyclotomicField(3)        # 2cos(pi/3) = 1: the rationals
K = RealCyclotomicField(5)        # Q(sqrt 5), degree 2


def _packed(rows):
    """Integer rows as rows of coefficient tuples over Q."""
    return tuple(tuple((x,) for x in row) for row in rows)


def _scalars(field, M):
    """Packed rows as rows of ExactScalar, the oracles' format."""
    return tuple(tuple(ExactScalar(field, tuple(e)) for e in row) for row in M)


def _descartes_inertia(field, M):
    """(pos, neg, zero) from the signs of the characteristic polynomial's
    coefficients, each the sum of all principal k x k minors (Descartes'
    rule is exact here because a symmetric matrix has only real roots)."""
    n = len(M)
    signs = []
    for k in range(1, n + 1):
        acc = [0] * field.degree
        for idx in combinations(range(n), k):
            acc = [x + y for x, y in
                   zip(acc, linalg.det(field, linalg.principal_submatrix(M, idx)))]
        signs.append(field.sign_of(acc, 1))
    zeros = n
    for k in range(n, 0, -1):
        if signs[k - 1] != 0:
            zeros = n - k
            break
    seq = [1] + [signs[k - 1] if k % 2 == 0 else -signs[k - 1] for k in range(1, n + 1)]
    nonzero = [s for s in seq if s != 0]
    pos = sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)
    return pos, n - pos - zeros, zeros


# -- each pivot path ---------------------------------------------------------


@pytest.mark.parametrize("rows,expected", [
    ([[2, 1], [1, 2]], (2, 0, 0)),                    # positive pivots only
    ([[-2, 0], [0, -3]], (0, 2, 0)),                  # negative pivot flips the rest
    ([[-1, 2], [2, 1]], (1, 1, 0)),
    ([[1, 2, 0], [2, 1, 3], [0, 3, -1]], (2, 1, 0)),
    ([[0, 3], [3, 0]], (1, 1, 0)),                    # all-zero diagonal: congruence
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (1, 2, 0)),   # eigenvalues 2, -1, -1
    ([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]], (1, 3, 0)),
    ([[-1, 1, 0], [1, 0, 1], [0, 1, 0]], (1, 2, 0)),  # negative pivot, then congruence
    ([[1, 1], [1, 1]], (1, 0, 1)),                    # all-zero remainder
    ([[-1, 1], [1, -1]], (0, 1, 1)),
    ([[0, 0], [0, 0]], (0, 0, 2)),
    ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], (1, 1, 1)),   # congruence, zero remainder
    ([], (0, 0, 0)),
])
def test_pivot_paths(rows, expected):
    M = _packed(rows)
    assert linalg.inertia(Q, M) == expected
    assert _descartes_inertia(Q, M) == expected
    assert scalar_inertia(Q, _scalars(Q, M)) == expected
    assert two_by_two_pivot_inertia(Q, _scalars(Q, M)) == expected


def test_irrational_pivots():
    # Gram forms of H3 (definite), (3,3,4) (Lorentzian) and A~2 (semidefinite)
    for text, expected in (("rank 3; m12=3 m23=5", (3, 0, 0)),
                           ("rank 3; m12=3 m13=3 m23=4", (2, 1, 0)),
                           ("rank 3; m12=3 m13=3 m23=3", (2, 0, 1))):
        gm = gram_matrix(parse_coxeter_matrix(text))
        assert linalg.inertia(gm.field, gm.rows) == expected, text


# -- against the 2^n-minor oracle ------------------------------------------------


def _entry(field):
    d = field.degree
    return st.tuples(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                     st.integers(1, 3)).map(lambda t: field.scalar(tuple(t[0]), t[1]))


@st.composite
def _symmetric(draw):
    """(field, M, P): a symmetric matrix M of ExactScalar entries with
    denominators up to 3, and P = c M as packed rows, c > 0 the least common
    denominator, which has M's signature."""
    field = draw(st.sampled_from([Q, K, RealCyclotomicField(8)]))
    n = draw(st.integers(1, 5))
    zero_diagonal = draw(st.booleans())
    zero = st.just(field.zero)
    M = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and zero_diagonal:
                x = field.zero
            else:
                x = draw(st.one_of(zero, _entry(field)))
            M[i][j] = M[j][i] = x
    c = math.lcm(*(x.den for row in M for x in row))
    scaled = [[x * c for x in row] for row in M]
    assert all(x.den == 1 for row in scaled for x in row)
    return field, tuple(tuple(r) for r in M), tuple(tuple(x.num for x in r) for r in scaled)


@settings(max_examples=150, deadline=None)
@given(_symmetric())
def test_inertia_matches_descartes_oracle(case):
    field, M, P = case
    got = linalg.inertia(field, P)
    assert got == _descartes_inertia(field, P)
    assert got == scalar_inertia(field, M)
    assert got == two_by_two_pivot_inertia(field, M)


_ORDERS = [2, 3, 4, 5, 6, 8, INF]


@st.composite
def _gram(draw, max_rank=5, orders=tuple(_ORDERS)):
    n = draw(st.integers(1, max_rank))
    entries = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entries[i][j] = entries[j][i] = draw(st.sampled_from(orders))
    return gram_matrix(CoxeterMatrix.make(entries))


@settings(max_examples=60, deadline=None)
@given(_gram())
def test_gram_inertia_and_sylvester_criterion(gm):
    P = gm.rows
    pos, neg, zero = linalg.inertia(gm.field, P)
    assert (pos, neg, zero) == _descartes_inertia(gm.field, P)
    minors = linalg.leading_principal_minors(gm.field, P)
    assert (pos == len(minors)) == all(gm.field.sign_of(m, 1) > 0 for m in minors)


@settings(max_examples=80, deadline=None)
@given(_gram(6, (2, 3, 4, 5, 6, 8, 12, INF)))
def test_inertia_of_2b_matches_the_scalar_oracle_on_b(gm):
    # 2B has B's signature; the oracle eliminates B's rational and
    # irrational entries as ExactScalar, up to degree 32 (bonds 5, 8 and 12)
    expected = scalar_inertia(*scalar_gram(gm.cm))
    assert linalg.inertia(gm.field, gm.rows) == expected
    assert gram_signature(gm) == expected


# -- rank of M - I against sympy ---------------------------------------------------

_RANK_GROUPS = ["rank 3; m12=inf m13=inf m23=inf",   # degree 1
                "rank 4; m12=3 m23=3 m34=3",         # degree 1, finite
                "rank 3; m12=5 m23=2",               # degree 2
                "rank 3; m12=3 m13=3 m23=4",         # degree 4
                "rank 3; m12=3 m23=5",               # degree 4, finite
                "rank 4; m12=4 m23=3 m34=4 m14=3",   # degree 4
                "rank 3; m12=8 m23=3"]               # degree 8
_SYMPY_FIELDS = {}


def _sympy_rank(field, rows):
    """Rank over sympy's algebraic field QQ(2cos(pi/N)), or over QQ."""
    from sympy import QQ, cos, pi
    from sympy.polys.matrices import DomainMatrix

    if field.degree == 1:
        dom = QQ
        entries = [[QQ(x.num[0], x.den) for x in row] for row in rows]
    else:
        if field.N not in _SYMPY_FIELDS:
            dom = QQ.algebraic_field(2 * cos(pi / field.N))
            assert [int(c) for c in dom.mod.to_list()] == list(reversed(field.minpoly))
            _SYMPY_FIELDS[field.N] = dom
        dom = _SYMPY_FIELDS[field.N]
        entries = [[dom(list(reversed(x.num))) * dom.convert(QQ(1, x.den)) for x in row]
                   for row in rows]
    return DomainMatrix(entries, (len(rows), len(rows[0])), dom).rank()


@st.composite
def _minus_identity(draw):
    group = get_group(parse_coxeter_matrix(draw(st.sampled_from(_RANK_GROUPS))))
    n = group.cm.rank
    word = draw(st.lists(st.integers(0, n - 1), max_size=10))
    return group.element(word)


def _minus_identity_rows(g):
    field = g.gram.field
    return [[tuple(c[k] - (i == j and k == 0) for k in range(field.degree))
             for j, c in enumerate(row)]
            for i, row in enumerate(_entry_rows(g.packed, g.gram.cm.rank, field.degree))]


@settings(max_examples=120, deadline=None)
@given(_minus_identity())
def test_matrix_rank_of_m_minus_i_matches_sympy(g):
    field = g.gram.field
    rows = _minus_identity_rows(g)
    rank = _sympy_rank(field, _scalars(field, rows))
    assert linalg.matrix_rank(field, rows) == rank
    assert fixed_space_codim(g) == rank


@pytest.mark.parametrize("rows,expected", [
    ([[0, 0], [0, 0]], 0),
    ([[0, 1], [0, 2]], 1),                      # empty first column
    ([[0, 2, 1], [1, 1, 1], [2, 2, 2]], 2),      # row swap, then a dependent row
    ([[1, 2], [2, 4], [3, 7]], 2),               # more rows than columns
    ([[2, 1, 0, 1]], 1),
    ([], 0),
])
def test_matrix_rank_paths(rows, expected):
    assert linalg.matrix_rank(Q, _packed(rows)) == expected
    assert scalar_matrix_rank(Q, _scalars(Q, _packed(rows))) == expected


def test_eliminations_build_no_exact_scalar(monkeypatch):
    # the signature, rank(M - I) and fixed_space_codim run on packed rows
    # alone, at field degrees 1, 2 and 4
    grams = [gram_matrix(parse_coxeter_matrix(text)) for text in _RANK_GROUPS]
    elements = [get_group(gm.cm).element((0, 1, 2, 1)) for gm in grams]
    signatures = [scalar_inertia(*scalar_gram(gm.cm)) for gm in grams]
    ranks = [scalar_matrix_rank(g.gram.field, _scalars(g.gram.field, _minus_identity_rows(g)))
             for g in elements]
    built = []
    init = ExactScalar.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ExactScalar, "__init__", counting)
    assert [linalg.inertia(gm.field, gm.rows) for gm in grams] == signatures
    assert [linalg.matrix_rank(g.gram.field, _minus_identity_rows(g))
            for g in elements] == ranks
    assert [fixed_space_codim(g) for g in elements] == ranks
    assert built == []
    ExactScalar(Q, (1,))      # the counter sees a construction
    assert len(built) == 1
