"""Exact linear algebra over a RealCyclotomicField.

A matrix is rows of entries over Z[theta], each a tuple of `degree` integer
coefficients (theta^0 first), as in `GramMatrix.rows` (2B) and a packed
`GroupElement`; entries multiply by `RealCyclotomicField.mul` and signs come
from `sign_of`.
Cofactor/bitmask determinants and leading principal minors, the inertia of
a symmetric matrix by one division-free symmetric elimination (Sylvester's
law of inertia), and the rank by division-free Gaussian elimination.
Nothing divides, not even by an earlier pivot, so the coefficients about
double in size at every pivot and the cost grows steeply with rank, far
below the rank cap of 64: on a 2-vCPU VM `classify` of the path A_n (all
bonds 3) takes ~0.02 s at n = 20, ~0.17 s at n = 22 and ~15 s at n = 26.
"""

from __future__ import annotations

from operator import add, sub


def det(field, M):
    """Determinant by expansion along the first row with subset memoization."""
    n = len(M)
    one = (1,) + (0,) * (field.degree - 1)
    if n == 0:
        return one
    cache = {}

    def minor(row, cols):
        if row == n:
            return one
        key = cols
        if key in cache:
            return cache[key]
        acc = (0,) * field.degree
        sign = 1
        rest = list(cols)
        for idx, c in enumerate(rest):
            entry = M[row][c]
            if any(entry):
                term = field.mul(entry, minor(row + 1, tuple(x for x in rest if x != c)))
                acc = tuple(map(add if sign > 0 else sub, acc, term))
            sign = -sign
        cache[key] = acc
        return acc

    return minor(0, tuple(range(n)))


def principal_submatrix(M, idx):
    return tuple(tuple(M[i][j] for j in idx) for i in idx)


def leading_principal_minors(field, M):
    """Determinants of the k x k upper-left blocks, k = 1..n."""
    return [det(field, principal_submatrix(M, tuple(range(k))))
            for k in range(1, len(M) + 1)]


def inertia(field, M):
    """(positives, negatives, zeros) of a symmetric matrix, exactly.

    One division-free symmetric elimination with one pivot kind; Sylvester's
    law of inertia makes the signature the sum of the pivots' contributions.
    The working block is always a positive or negative multiple of the true
    Schur complement, and `flip` records which.  A nonzero diagonal pivot p
    adds sign(p) and leaves p*A' - b b^T, which flips the multiple when
    p < 0.  When the whole diagonal is zero but some entry c = A_ij is not,
    the congruence by I + e_j e_i^T (add row and column j to row and column
    i) keeps the inertia and makes A_ii = 2c, so the same pivot follows.  A
    congruence is not a scaling, so it leaves `flip` alone.  The pivot reads
    row i and the block away from i, so of column i's update only A_ii is
    made.
    """
    mul = field.mul
    rows = [list(r) for r in M]
    pos = neg = 0
    flip = False
    while rows:
        n = len(rows)
        piv = next((i for i in range(n) if any(rows[i][i])), None)
        if piv is None:
            pair = next(((i, j) for i in range(n) for j in range(i + 1, n)
                         if any(rows[i][j])), None)
            if pair is None:
                break
            piv, j = pair
            rows[piv] = [tuple(map(add, a, b)) for a, b in zip(rows[piv], rows[j])]
            rows[piv][piv] = tuple(map(add, rows[piv][piv], rows[piv][j]))
        p = rows[piv][piv]
        s = field.sign_of(p, 1)
        if (s < 0) != flip:
            neg += 1
        else:
            pos += 1
        b = rows[piv]
        rest = [i for i in range(n) if i != piv]
        rows = [[tuple(map(sub, mul(p, rows[i][j]), mul(b[i], b[j]))) for j in rest]
                for i in rest]
        flip ^= s < 0
    return pos, neg, len(M) - pos - neg


def matrix_rank(field, M):
    """Rank by division-free Gaussian elimination.

    Each row below the pivot row becomes p * row - f * pivot_row, where p is
    the pivot and f the row's entry in the pivot column; scaling a row by the
    nonzero p does not change the rank.
    """
    mul = field.mul
    rows = [list(r) for r in M]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if any(rows[r][col])), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if any(f):
                rows[r] = [tuple(map(sub, mul(p, x), mul(f, y))) for x, y in zip(rows[r], top)]
        rank += 1
    return rank
