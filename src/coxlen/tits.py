"""The geometric (Tits) representation: exact matrices, keys, reflections.

Two fields.  The work runs in the smallest field that holds the Gram form
(`coxeter.gram_matrix`): Q(theta), theta = 2cos(pi/N'), N' the lcm of the
finite bond orders >= 4 (2 when there are none, so theta = 0 and the field
is Q), as cos(pi/2) = 0 and cos(pi/3) = 1/2 are rational.  Reports name
elements and order roots by their coefficients over the report field
Q(2cos(pi/N)), N = `CoxeterMatrix.conductor()` the lcm of every finite bond
order, 2 and 3 included: `canonical_key` and the root bytes map each entry
through the exact embedding theta -> D_k(2cos(pi/N)), k = N/N' (Dickson),
one integer matrix per Gram, so every report reads the same bytes whichever
field the work ran in.  The report field is built only when a key or a root
order needs it.  H3 (bonds 3, 5 and 2) works at degree 2, not 8.

Generator matrices have entries in Z[theta] (the minimal polynomial is
monic), so every product stays integral, and an element is stored packed:
one flat tuple of Python ints, the `degree` coefficients (theta^0 first) of
each entry in row-major order.  The generators are built from 2B, which
`coxeter.gram_matrix` builds over Z[theta] in this format.  Roots are packed
the same way, as one-column matrices, `Reflection.root` included.

Two kernel paths.  Multiplication works on those ints directly, one row at
a time (`row_mul`), against the matrix side of the right factor
(`row_factor`).  Up to degree 4 the side is dense, the regular
representation: one column per output coefficient, holding the
coefficients of theta^q times each entry with the reduction included, so
each output coefficient is one `sum(map(mul, row, column))`.  Above degree
4, where it is faster, each entry's convolution is accumulated over the
inner index over the nonzero coefficients only and reduced once modulo the
minimal polynomial.

* `GroupElement.key` is the packed int tuple itself: equal keys mean equal
  matrices, so key equality is the word problem.
* `canonical_key(g)` is the canonical byte serialization of the entries
  over the report field; it orders frontiers deterministically and names
  elements in reports (the CSV key digest), independently of the packing
  and of the field the work runs in.
* `row_key(g)` is K(g) = 1^T M(g), the column sums of g's matrix: rank *
  degree ints instead of rank^2 * degree.  It is injective on W for every
  Coxeter matrix, degenerate and indefinite forms included: K(g) is the
  functional p o g with p(alpha_s) = 1 for every s, so p lies in the open
  fundamental chamber of the contragredient action, where W acts simply
  transitively on the chambers of the Tits cone (Tits' theorem; Humphreys,
  Reflection Groups and Coxeter Groups, 5.13).  K(g h) = K(g) M(h), one
  row-matrix product (`row_mul`, n^2 entry products where a matrix
  product takes n^3); the matrix side of it (`row_factor`) is built
  once per element and kept on the element.
* No `ExactScalar` is built: every entry is a tuple of ints over Z[theta],
  and the eliminations run on packed rows, `gram_signature` on 2B and
  `fixed_space_codim` on M - I, the packed identity subtracted, handed to
  `linalg.matrix_rank`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul, sub

from . import linalg
from .coxeter import CoxeterMatrix, GramMatrix, gram_matrix
from .errors import DomainError, require
from .exactfield import RealCyclotomicField


# the largest field degree at which `row_mul` runs the dense kernel; above
# it the sparse convolution is faster
_DENSE_DEGREE = 4


def _matrix_side(B, n, field):
    """The matrix side of `row_mul` for a packed matrix B of n rows.

    Dense, up to degree _DENSE_DEGREE: the columns of the regular
    representation, whose row (i, q) is theta^q times row i of B, so that
    column (j, p) holds at (i, q) the theta^p coefficient of theta^q B_ij
    and a row times it is that coefficient of the product, reduction
    included (at degree 1, the columns of B).  Sparse, above it: per
    column, the (row index, nonzero (power, coefficient) terms) of each
    nonzero entry."""
    d = field.degree
    width = len(B) // n
    if d <= _DENSE_DEGREE:
        top_row = field._reduction[0]           # theta^degree
        rows = []
        for r in range(0, len(B), width):
            row = B[r:r + width]
            rows.append(row)
            for _ in range(d - 1):              # row <- theta * row
                nxt = []
                for t in range(0, width, d):
                    top = row[t + d - 1]
                    low = [0, *row[t:t + d - 1]]
                    nxt += [c + top * x for c, x in zip(low, top_row)] if top else low
                row = nxt
                rows.append(row)
        return list(zip(*rows))
    m = width // d
    terms = [[(q, y) for q, y in enumerate(B[t:t + d]) if y]
             for t in range(0, len(B), d)]
    return [[(i, e) for i, e in enumerate(terms[j::m]) if e] for j in range(m)]


def row_mul(row, factor, field):
    """The packed row vector `row` times the matrix whose matrix side
    (`row_factor`) is `factor`: n^2 entry products for a rank-n matrix,
    where a matrix product takes n^3.  The one multiplication kernel: one
    dot product per output coefficient up to degree _DENSE_DEGREE, above it
    each entry's convolution accumulated over the inner index and reduced
    once modulo the minimal polynomial."""
    d = field.degree
    if d <= _DENSE_DEGREE:
        return tuple([sum(map(mul, row, col)) for col in factor])
    terms = [[(p, c) for p, c in enumerate(row[t:t + d]) if c]
             for t in range(0, len(row), d)]
    reduction = field._reduction_terms
    width = 2 * d - 1
    out = []
    for col in factor:
        conv = [0] * width
        for i, b in col:
            a = terms[i]
            for q, y in b:
                for p, x in a:
                    conv[p + q] += x * y
        for top, red in zip(conv[d:], reduction):
            if top:
                for i, c in red:
                    conv[i] += top * c
        out += conv[:d]
    return tuple(out)


def _kept(gram, name, make):
    """make(gram), made on first use and kept on the (frozen) Gram under
    `name`, so it is found without hashing the Gram."""
    try:
        return gram.__dict__[name]
    except KeyError:
        value = gram.__dict__[name] = make(gram)
        return value


@lru_cache(maxsize=None)
def _identity(n, d):
    """The packed identity matrix."""
    one = (1,) + (0,) * (d - 1)
    zero = (0,) * d
    return tuple(c for i in range(n) for j in range(n)
                 for c in (one if i == j else zero))


def _entry_rows(packed, n, d):
    """The packed matrix as rows of per-entry coefficient tuples."""
    return [[packed[t:t + d] for t in range(r, r + n * d, d)]
            for r in range(0, n * n * d, n * d)]


class GroupElement:
    """An element of W as a packed exact matrix, with an optional defining word."""

    __slots__ = ("gram", "packed", "word", "_factor")   # _factor: see row_factor

    def __init__(self, gram, packed, word=None):
        self.gram = gram
        self.packed = packed
        self.word = word

    @property
    def key(self):
        return self.packed

    def __mul__(self, other):
        """`row_mul` of each row of self by other's kept `row_factor`."""
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        gram = self.gram
        field = gram.field
        factor = row_factor(other)
        A = self.packed
        step = gram.cm.rank * field.degree
        out = ()
        for r in range(0, len(A), step):
            out += row_mul(A[r:r + step], factor, field)
        return GroupElement(gram, out, word)

    def is_identity(self):
        return self.packed == _identity(self.gram.cm.rank, self.gram.field.degree)

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "GroupElement(word=%r)" % (self.word,)


def row_key(g: GroupElement) -> tuple:
    """K(g) = 1^T M(g), the column sums of g's matrix: rank * degree ints,
    injective on W (see the module docstring)."""
    step = g.gram.cm.rank * g.gram.field.degree
    return tuple([sum(g.packed[t::step]) for t in range(step)])


def row_factor(g: GroupElement):
    """The matrix side of `row_mul` for g's matrix, built on first use and
    kept on g, so it lives exactly as long as g: a group's generators, the
    enumerated reflections `reflen` holds per group, the inversion set of
    one exact solve, or the right operand of a product."""
    try:
        return g._factor
    except AttributeError:
        g._factor = factor = _matrix_side(g.packed, g.gram.cm.rank, g.gram.field)
        return factor


def _make_form_factor(gram: GramMatrix):
    """The matrix side of `row_mul` for 2B (`GramMatrix.rows`)."""
    packed = tuple(c for row in gram.rows for e in row for c in e)
    return _matrix_side(packed, gram.cm.rank, gram.field)


def reflection(gram: GramMatrix, root: tuple, word) -> GroupElement:
    """x -> x - 2B(beta, x) beta for the packed root beta: the matrix
    I - beta rho with rho = beta^T 2B, one `row_mul` for rho and one for
    each beta_i rho.  Every reflection of the package is built here."""
    field = gram.field
    n, d = gram.cm.rank, field.degree
    rho = row_mul(root, _kept(gram, "_form_factor", _make_form_factor), field)
    rho = _matrix_side(rho, 1, field)
    out = [c for i in range(0, n * d, d) for c in row_mul(root[i:i + d], rho, field)]
    return GroupElement(gram, tuple(map(sub, _identity(n, d), out)), word)


def image_root(g: GroupElement, s: int) -> tuple:
    """The packed root g(alpha_s): column s of g's matrix."""
    n, d = g.gram.cm.rank, g.gram.field.degree
    return tuple(c for t in range(s * d, n * n * d, n * d) for c in g.packed[t:t + d])


def tits_generator(gram: GramMatrix, s: int) -> GroupElement:
    """sigma_s(x) = x - 2 B(e_s, x) e_s as an exact matrix."""
    n, d = gram.cm.rank, gram.field.degree
    return reflection(gram, (0,) * (s * d) + (1,) + (0,) * ((n - s) * d - 1), (s,))


class TitsGroup:
    """Bundle of a Coxeter matrix with its exact representation."""

    def __init__(self, cm: CoxeterMatrix):
        self.cm = cm
        self.gram = gram_matrix(cm)
        self.field = self.gram.field
        self.generators = tuple(tits_generator(self.gram, s) for s in range(cm.rank))
        self.identity = GroupElement(self.gram, _identity(cm.rank, self.field.degree), ())

    def inverse_row_key(self, g: GroupElement) -> tuple:
        """K(g^-1) = 1^T M(s_k) ... M(s_1) for a word s_1 ... s_k of g, one
        row product per letter; an element without a word is given its
        reduced word."""
        word = self.reduced_word(g) if g.word is None else g.word
        row = row_key(self.identity)
        for s in reversed(word):
            row = row_mul(row, row_factor(self.generators[s]), self.field)
        return row

    def element(self, word) -> GroupElement:
        return evaluate_word(self.generators, word, identity=self.identity)

    def _descents(self, key):
        """The right descents, smallest first, of the element g with row key
        K: K_s is the coordinate sum of the root g(alpha_s), and a root is
        positive or negative (Humphreys, 5.4), so K_s has its sign."""
        d = self.field.degree
        return (s for s in range(self.cm.rank)
                if self.field.sign_of(key[s * d:(s + 1) * d], 1) < 0)

    def right_descents(self, g: GroupElement):
        """Generators s with l(gs) < l(g): the root g(alpha_s) is negative."""
        return list(self._descents(row_key(g)))

    def reduced_word(self, g: GroupElement):
        """A reduced word for g (deterministic: smallest descent first),
        walked on row keys, K(gs) = K(g) M(s)."""
        out = []
        key = row_key(g)
        while (s := next(self._descents(key), None)) is not None:
            key = row_mul(key, row_factor(self.generators[s]), self.field)
            out.append(s)
        require(key == row_key(self.identity),
                "descent recursion did not end at the identity")
        return tuple(reversed(out))


def evaluate_word(gens, word, identity=None) -> GroupElement:
    """Exact product of generator matrices; the empty word is the identity."""
    if identity is None:
        gram = gens[0].gram
        identity = GroupElement(gram, _identity(gram.cm.rank, gram.field.degree), ())
    out = identity
    for s in word:
        if not 0 <= s < len(gens):
            raise DomainError("generator index %d out of range" % s)
        out = out * gens[s]
    return out


def _make_report_columns(gram: GramMatrix):
    """The exact embedding of gram.field, Q(theta') with theta' =
    2cos(pi/N'), into the report field Q(theta), theta = 2cos(pi/N) for N =
    cm.conductor(), as dense `row_mul` columns: theta' = D_k(theta) with
    k = N/N' (`dickson`), so column j holds the theta^j coefficients of
    theta'^0, ..., theta'^(d'-1).  None when both fields have the same
    degree, hence the same coefficients: N' = N, or both are Q (N' = 2,
    N = 3).  A3 (N' = 2, N = 6) needs the map: its form lies in Q and its
    report field is Q(2cos(pi/6)), of degree 2."""
    field, N = gram.field, gram.cm.conductor()
    report = RealCyclotomicField(N)
    if report.degree == field.degree:
        return None
    theta = report.dickson(N // field.N)
    rows = [(1,) + (0,) * (report.degree - 1)]
    for _ in range(field.degree - 1):
        rows.append(report.mul(rows[-1], theta))
    return [[row[j] for row in rows] for j in range(report.degree)]


def _report_entries(gram: GramMatrix, packed):
    """The entries of a packed matrix or root as coefficient tuples over the
    report field (see `_make_report_columns`)."""
    d = gram.field.degree
    entries = [packed[t:t + d] for t in range(0, len(packed), d)]
    cols = _kept(gram, "_report_columns", _make_report_columns)
    if cols is None:
        return entries
    return [tuple([sum(map(mul, e, col)) for col in cols]) for e in entries]


def canonical_key(g: GroupElement) -> bytes:
    """Canonical bytes of g's matrix over the report field Q(2cos(pi/N)),
    N = cm.conductor(): `repr` of its rows of (num, den) entries, every
    denominator being 1.  The bytes do not depend on the field the work runs
    in."""
    n = g.gram.cm.rank
    entries = _report_entries(g.gram, g.packed)
    return repr(tuple(tuple((c, 1) for c in entries[r:r + n])
                      for r in range(0, n * n, n))).encode()


@dataclass(frozen=True)
class Reflection:
    """A conjugate w s w^{-1}, realized by its positive unit root."""

    element: GroupElement
    root: tuple  # packed, as a one-column matrix over gram.field
    depth: int
    word: tuple  # a (not necessarily reduced) word w + (s,) + reversed(w)


def _root_key(gram, root):
    """The bytes that order roots: `repr` of (report-field coeffs, 1) per
    coordinate."""
    return repr(tuple((c, 1) for c in _report_entries(gram, root))).encode()


def enumerate_reflections(gram: GramMatrix, depth_cap: int):
    """All reflections whose positive root has breadth-first depth <= depth_cap.

    The orbit of the simple roots is expanded level by level through the
    simple reflections.  sigma_s permutes the positive roots other than
    alpha_s (Humphreys, Reflection Groups and Coxeter Groups, ch. 5), so
    skipping sigma_s on alpha_s keeps every image positive and no sign is
    ever decided.  A new root u = sigma_s(v) = v - 2B(v, alpha_s) alpha_s
    differs from v in coordinate s alone, read off rho = v^T 2B (one
    `row_mul` per parent), and carries its `reflection`, with word (s,) +
    word(t) + (s,) for the parent's reflection t.  Roots are deduplicated by
    their packed ints and the result is sorted by (depth, root bytes over
    the report field), so it is deterministic.
    """
    n = gram.cm.rank
    field = gram.field
    d = field.degree
    form = _kept(gram, "_form_factor", _make_form_factor)
    gens = [tits_generator(gram, s) for s in range(n)]
    simple = [(0,) * (s * d) + (1,) + (0,) * ((n - s) * d - 1) for s in range(n)]
    seen = {v: (0, t) for v, t in zip(simple, gens)}  # packed root -> (depth, reflection)
    frontier = list(zip(simple, gens))
    for depth in range(1, depth_cap + 1):
        new_frontier = []
        for v, t in frontier:
            rho = row_mul(v, form, field)
            for s in range(n):
                if v == simple[s]:
                    continue  # sigma_s(alpha_s) = -alpha_s
                i = s * d
                u = v[:i] + tuple(map(sub, v[i:i + d], rho[i:i + d])) + v[i + d:]
                if u not in seen:
                    r = reflection(gram, u, (s,) + t.word + (s,))
                    seen[u] = (depth, r)
                    new_frontier.append((u, r))
        frontier = new_frontier
        if not frontier:
            break
    order = sorted(seen.items(), key=lambda item: (item[1][0], _root_key(gram, item[0])))
    return [Reflection(t, v, depth, t.word) for v, (depth, t) in order]


def gram_signature(gram: GramMatrix):
    """Exact inertia (positives, negatives, zeros) of the bilinear form."""
    return linalg.inertia(gram.field, gram.rows)


def fixed_space_codim(g: GroupElement) -> int:
    """rank(M - I): a product of k reflections fixes codimension <= k."""
    n, field = g.gram.cm.rank, g.gram.field
    diff = tuple(map(sub, g.packed, _identity(n, field.degree)))
    return linalg.matrix_rank(field, _entry_rows(diff, n, field.degree))
