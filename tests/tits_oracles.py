"""Oracles for the Tits layer: the row kernel and the Gram construction that
the package used before it computed in the smallest field.

* `convolution_side` and `convolution_row_mul` are the row kernel as it was
  before the dense path: at degree 1 one dot product per column, above it
  each entry's convolution accumulated over the inner index and reduced once
  modulo the minimal polynomial.  `convolution_mat_mul` multiplies packed
  matrices with it.
* `report_gram(cm)` is the `GramMatrix` of 2B over the report field
  Q(2cos(pi/N)), N = cm.conductor(), doubled from B as
  `coxeter_oracles.scalar_gram` builds it there, m = 3 included.
  `report_key`, `report_enumeration` read that B with ExactScalar arithmetic
  alone: the canonical bytes of an element's matrix, and the reflections of
  root depth <= D in (depth, root bytes) order, as the package listed them.
"""

from coxeter_oracles import scalar_gram
from coxlen.coxeter import GramMatrix


def convolution_side(B, n, field):
    """The matrix side of `convolution_row_mul` for a packed matrix B of n
    rows."""
    d = field.degree
    m = len(B) // (n * d)
    if d == 1:
        return [B[j::m] for j in range(m)]
    terms = [[(q, y) for q, y in enumerate(B[t:t + d]) if y]
             for t in range(0, len(B), d)]
    return [[(i, e) for i, e in enumerate(terms[j::m]) if e] for j in range(m)]


def convolution_row_mul(row, factor, field):
    """The packed row vector times the matrix whose side is `factor`."""
    d = field.degree
    if d == 1:
        return tuple(sum(x * y for x, y in zip(row, col)) for col in factor)
    terms = [[(p, c) for p, c in enumerate(row[t:t + d]) if c]
             for t in range(0, len(row), d)]
    out = []
    for col in factor:
        conv = [0] * (2 * d - 1)
        for i, b in col:
            for q, y in b:
                for p, x in terms[i]:
                    conv[p + q] += x * y
        for top, red in zip(conv[d:], field._reduction):
            for i, c in enumerate(red):
                conv[i] += top * c
        out += conv[:d]
    return tuple(out)


def convolution_mat_mul(A, B, n, field):
    """Product of a packed rank-n matrix A and a packed matrix B of n rows."""
    factor = convolution_side(B, n, field)
    step = n * field.degree
    out = ()
    for r in range(0, len(A), step):
        out += convolution_row_mul(A[r:r + step], factor, field)
    return out


def report_gram(cm):
    """2B over the report field, twice each ExactScalar entry of B, every
    one of which lies in Z[theta]."""
    field, B = scalar_gram(cm, cm.conductor())
    doubled = [[e + e for e in row] for row in B]
    if any(e.den != 1 for row in doubled for e in row):
        raise ValueError("2B is not integral over the report field")
    return GramMatrix(cm, field, tuple(tuple(e.num for e in row) for row in doubled))


def _bytes(rows):
    return repr(tuple(tuple((e.num, e.den) for e in row) for row in rows)).encode()


def report_key(cm, word):
    """The canonical bytes of the element's matrix over the report field:
    `repr` of its rows of (num, den) entries, from ExactScalar products of
    the generators sigma_s, column j of which is e_j - 2B_sj e_s."""
    F, B = scalar_gram(cm, cm.conductor())
    n = cm.rank
    gens = [[[(F.one if i == j else F.zero)
              - (B[s][j] * 2 if i == s else F.zero)
              for j in range(n)] for i in range(n)] for s in range(n)]
    M = [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    for s in word:
        G = gens[s]
        M = [[sum((M[i][k] * G[k][j] for k in range(n)), F.zero) for j in range(n)]
             for i in range(n)]
    return _bytes(M)


def report_enumeration(cm, depth_cap):
    """(depth, word, root bytes) of each reflection of root depth <= D, in
    (depth, root bytes) order: the orbit of the simple roots under
    sigma_s(v) = v - 2B(alpha_s, v) alpha_s, skipping sigma_s on alpha_s,
    with word (s,) + parent word + (s,), over the report field."""
    F, B = scalar_gram(cm, cm.conductor())
    n = cm.rank
    simple = [tuple(F.one if i == s else F.zero for i in range(n)) for s in range(n)]
    seen = {v: (0, (s,)) for s, v in enumerate(simple)}
    frontier = list(seen.items())
    for depth in range(1, depth_cap + 1):
        new = []
        for v, (_, word) in frontier:
            for s in range(n):
                if v == simple[s]:
                    continue
                pairing = sum((B[s][j] * v[j] for j in range(n)), F.zero)
                u = tuple(x - pairing * 2 if i == s else x for i, x in enumerate(v))
                if u not in seen:
                    seen[u] = depth, (s,) + word + (s,)
                    new.append((u, seen[u]))
        frontier = new
    rows = [(depth, word, repr(tuple((x.num, x.den) for x in v)).encode())
            for v, (depth, word) in seen.items()]
    return sorted(rows, key=lambda row: (row[0], row[2]))
