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
* `reflection_matrix(gram, root)` is the packed matrix I - beta rho that
  `tits.reflection` built eagerly for every reflection before a reflection
  up to degree 4 started as its product, here entry by entry with the
  field's own multiplication.  `matrix_is_built(g)` tells whether g's
  `packed` slot is set, without building it.
* `report_entries(gram, packed)` is the report-field map as `tits` ran it
  before its generated kernels: each entry's coefficients times the
  embedding columns, one dot product per report coefficient, and
  `report_key_bytes` / `report_root_bytes` the `repr` that
  `tits.canonical_key` and `tits._root_key` reproduce.
* `image_root(g, s)` reads the root g(alpha_s) off g's matrix, and
  `prefix_inversions(group, rw)` is `reflen.inversion_reflections` as it was
  before it walked the prefix rows: one prefix element per letter, each
  inversion the reflection of its column s_j.
"""

from functools import reduce
from operator import add, sub

from coxeter_oracles import scalar_gram
from coxlen.coxeter import GramMatrix
from coxlen.errors import require
from coxlen.tits import (GroupElement, _make_report_columns, reflection, row_factor,
                         row_key)


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


def reflection_matrix(gram, root):
    """The packed matrix I - beta rho of the reflection of the packed root
    beta, rho = beta^T 2B: entry (i, j) is delta_ij - beta_i rho_j with
    rho_j = sum_k beta_k (2B)_kj, each product a `field.mul`."""
    field = gram.field
    n, d = gram.cm.rank, field.degree
    zero = (0,) * d
    one = (1,) + zero[1:]
    beta = [root[i * d:(i + 1) * d] for i in range(n)]
    rho = [reduce(lambda a, b: tuple(map(add, a, b)),
                  (field.mul(beta[k], gram.rows[k][j]) for k in range(n)), zero)
           for j in range(n)]
    return tuple(c for i in range(n) for j in range(n)
                 for c in map(sub, one if i == j else zero, field.mul(beta[i], rho[j])))


def report_entries(gram, packed):
    """The entries of a packed matrix or root as coefficient tuples over the
    report field, through the embedding columns of `_make_report_columns`."""
    d = gram.field.degree
    entries = [packed[t:t + d] for t in range(0, len(packed), d)]
    cols = _make_report_columns(gram)
    if cols is None:
        return entries
    return [tuple(sum(x * y for x, y in zip(e, col)) for col in cols) for e in entries]


def report_key_bytes(g):
    """`repr` of g's rows of (report coefficients, 1) entries."""
    n = g.gram.cm.rank
    entries = report_entries(g.gram, g.packed)
    return repr(tuple(tuple((c, 1) for c in entries[r:r + n])
                      for r in range(0, n * n, n))).encode()


def report_root_bytes(gram, root):
    """`repr` of the root's (report coefficients, 1) coordinates."""
    return repr(tuple((c, 1) for c in report_entries(gram, root))).encode()


# the `packed` slot itself: its __get__ raises AttributeError on an unset
# slot without calling GroupElement.__getattr__, which would build it
_PACKED = GroupElement.__dict__["packed"]


def matrix_is_built(g):
    """Whether g's `packed` slot is set; reading it this way builds nothing."""
    try:
        _PACKED.__get__(g)
    except AttributeError:
        return False
    return True


def image_root(g, s):
    """The packed root g(alpha_s): column s of g's matrix."""
    n, d = g.gram.cm.rank, g.gram.field.degree
    return tuple(c for t in range(s * d, n * n * d, n * d) for c in g.packed[t:t + d])


def prefix_inversions(group, reduced_word):
    """The inversions of a reduced word, the j-th the reflection of
    `image_root` of the prefix s_1 ... s_(j-1) at s_j, each prefix an
    element, distinct on their row keys."""
    out = []
    seen = set()
    one = row_key(group.identity)
    prefix = group.identity
    for s in reduced_word:
        t = reflection(group.gram, image_root(prefix, s),
                       prefix.word + (s,) + prefix.word[::-1])
        key = row_factor(t)(one)
        require(key not in seen, "inversions of a reduced word must be distinct")
        seen.add(key)
        out.append(t)
        prefix = prefix * group.generators[s]
    return out
