"""Oracles for the eliminations of `coxlen.linalg`, on matrices of
`ExactScalar` entries, as they ran before `linalg` took packed Z[theta]
rows: `scalar_inertia` and `scalar_matrix_rank` are the eliminations it
replaced, and `two_by_two_pivot_inertia` is `inertia` as it was before the
package used one pivot kind.  When the whole diagonal of the working block
is zero but some entry c is not, a 2x2 pivot [[0, c], [c, 0]] adds one
positive and one negative and leaves c^2 A' - c (u v^T + v u^T), a positive
multiple of the Schur complement.
"""


def scalar_inertia(field, M):
    """(positives, negatives, zeros) by the one-pivot-kind elimination, with
    the congruence by I + e_j e_i^T when the whole diagonal is zero."""
    rows = [list(r) for r in M]
    pos = neg = 0
    flip = False
    while rows:
        n = len(rows)
        piv = next((i for i in range(n) if not rows[i][i].is_zero()), None)
        if piv is None:
            pair = next(((i, j) for i in range(n) for j in range(i + 1, n)
                         if not rows[i][j].is_zero()), None)
            if pair is None:
                break
            piv, j = pair
            rows[piv] = [a + b for a, b in zip(rows[piv], rows[j])]
            rows[piv][piv] = rows[piv][piv] + rows[piv][j]
        p = rows[piv][piv]
        s = p.sign()
        if (s < 0) != flip:
            neg += 1
        else:
            pos += 1
        b = rows[piv]
        rest = [i for i in range(n) if i != piv]
        rows = [[p * rows[i][j] - b[i] * b[j] for j in rest] for i in rest]
        flip ^= s < 0
    return pos, neg, len(M) - pos - neg


def scalar_matrix_rank(field, M):
    """Rank by division-free Gaussian elimination."""
    rows = [list(r) for r in M]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero()),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if not f.is_zero():
                rows[r] = [p * x - f * y for x, y in zip(rows[r], top)]
        rank += 1
    return rank


def two_by_two_pivot_inertia(field, M):
    """(positives, negatives, zeros) of a symmetric matrix, exactly."""
    rows = [list(r) for r in M]
    pos = neg = 0
    flip = False
    while rows:
        n = len(rows)
        piv = next((i for i in range(n) if not rows[i][i].is_zero()), None)
        if piv is not None:
            p = rows[piv][piv]
            s = p.sign()
            if (s < 0) != flip:
                neg += 1
            else:
                pos += 1
            b = rows[piv]
            rest = [i for i in range(n) if i != piv]
            rows = [[p * rows[i][j] - b[i] * b[j] for j in rest] for i in rest]
            flip ^= s < 0
            continue
        pair = next(((i, j) for i in range(n) for j in range(i + 1, n)
                     if not rows[i][j].is_zero()), None)
        if pair is None:
            break
        i0, j0 = pair
        c = rows[i0][j0]
        pos += 1
        neg += 1
        u, v = rows[i0], rows[j0]
        rest = [i for i in range(n) if i != i0 and i != j0]
        c2 = c * c
        rows = [[c2 * rows[i][j] - c * (u[i] * v[j] + v[i] * u[j]) for j in rest]
                for i in rest]
    return pos, neg, len(M) - pos - neg
