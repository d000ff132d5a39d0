"""The geometric (Tits) representation: exact matrices, keys, reflections.

Group elements are rank x rank matrices over the real cyclotomic field
Q(theta), theta = 2cos(pi/N).  Generator matrices have entries in Z[theta]
(the minimal polynomial is monic), so every product stays integral, and an
element is stored packed: one flat tuple of Python ints, the `degree`
coefficients (theta^0 first) of each entry in row-major order.
Multiplication works on those ints directly, one row at a time
(`row_mul`), accumulating each entry's convolution over the inner index and
reducing it once modulo the minimal polynomial; a non-integral entry raises
CertificateError instead of being packed.  Roots are packed the same way,
as one-column matrices.

* `GroupElement.key` is the packed int tuple itself: equal keys mean equal
  matrices, so key equality is the word problem.
* `canonical_key(g)` is the canonical byte serialization of the normalized
  entries; it orders frontiers deterministically and names elements in
  reports (the CSV key digest), independently of the packing.
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
* `ExactScalar` appears only where exact field arithmetic is read: the Gram
  form that 2B is packed from, `Reflection.root`, and the rows of M - I
  that `fixed_space_codim` hands to `linalg.matrix_rank`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul, sub

from . import linalg
from .coxeter import CoxeterMatrix, GramMatrix, gram_matrix
from .errors import CertificateError, DomainError
from .exactfield import ExactScalar


def _matrix_side(B, n, d):
    """The matrix side of `row_mul` for a packed matrix B of n rows: for
    degree 1 its columns; otherwise, per column, the (row index, nonzero
    (power, coefficient) terms) of each nonzero entry."""
    m = len(B) // (n * d)
    if d == 1:
        return [B[j::m] for j in range(m)]
    terms = [[(q, y) for q, y in enumerate(B[t:t + d]) if y]
             for t in range(0, len(B), d)]
    return [[(i, e) for i, e in enumerate(terms[j::m]) if e] for j in range(m)]


def row_mul(row, factor, field):
    """The packed row vector `row` times the matrix whose matrix side
    (`row_factor`) is `factor`: n^2 entry products for a rank-n matrix,
    where a matrix product takes n^3.  The one multiplication kernel."""
    d = field.degree
    if d == 1:
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


def _mat_mul(A, B, n, field):
    """Product of a packed rank-n matrix A and a packed matrix B of n rows
    (a rank-n matrix, or a root as one column): `row_mul` of each row of A."""
    factor = _matrix_side(B, n, field.degree)
    step = n * field.degree
    out = ()
    for r in range(0, len(A), step):
        out += row_mul(A[r:r + step], factor, field)
    return out


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


def _pack(matrix):
    """Flat int tuple of a matrix of ExactScalar entries in Z[theta]."""
    out = []
    for row in matrix:
        for e in row:
            if e.den != 1:
                raise CertificateError(
                    "Tits matrix entry %r is not in Z[theta]" % (e,))
            out += e.num
    return tuple(out)


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
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        gram = self.gram
        return GroupElement(gram, _mat_mul(self.packed, other.packed,
                                           gram.cm.rank, gram.field), word)

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
    enumerated reflections `reflen` holds per group, or the inversion set of
    one exact solve."""
    try:
        return g._factor
    except AttributeError:
        g._factor = factor = _matrix_side(g.packed, g.gram.cm.rank, g.gram.field.degree)
        return factor


@lru_cache(maxsize=None)
def _form_factor(gram: GramMatrix):
    """The matrix side of `row_mul` for 2B, whose entries 2, -2cos(pi/m) and
    -2 lie in Z[theta]."""
    return _matrix_side(_pack([[e + e for e in row] for row in gram.entries]),
                        gram.cm.rank, gram.field.degree)


def reflection(gram: GramMatrix, root: tuple, word) -> GroupElement:
    """x -> x - 2B(beta, x) beta for the packed root beta: the matrix
    I - beta rho with rho = beta^T 2B, one `row_mul` for rho and one for
    each beta_i rho.  Every reflection of the package is built here."""
    field = gram.field
    n, d = gram.cm.rank, field.degree
    rho = _matrix_side(row_mul(root, _form_factor(gram), field), 1, d)
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
        if key != row_key(self.identity):
            raise CertificateError("descent recursion did not end at the identity")
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


def canonical_key(g: GroupElement) -> bytes:
    """Canonical bytes of g's matrix: `repr` of its rows of (num, den)
    entries, every denominator being 1."""
    rows = _entry_rows(g.packed, g.gram.cm.rank, g.gram.field.degree)
    return repr(tuple(tuple((c, 1) for c in row) for row in rows)).encode()


@dataclass(frozen=True)
class Reflection:
    """A conjugate w s w^{-1}, realized by its positive unit root."""

    element: GroupElement
    root: tuple
    depth: int
    word: tuple  # a (not necessarily reduced) word w + (s,) + reversed(w)


def _root_key(root, d):
    """The bytes that order roots: `repr` of (coeffs, 1) per coordinate."""
    return repr(tuple((root[t:t + d], 1) for t in range(0, len(root), d))).encode()


def enumerate_reflections(gram: GramMatrix, depth_cap: int):
    """All reflections whose positive root has breadth-first depth <= depth_cap.

    The orbit of the simple roots is expanded level by level through the
    simple reflections.  sigma_s permutes the positive roots other than
    alpha_s (Humphreys, Reflection Groups and Coxeter Groups, ch. 5), so
    skipping sigma_s on alpha_s keeps every image positive and no sign is
    ever decided.  A new root u = sigma_s(v) carries its `reflection`, with
    word (s,) + word(t) + (s,) for the parent's reflection t.  Roots are
    deduplicated by their packed ints and the result is sorted by (depth,
    root bytes), so it is deterministic.
    """
    n = gram.cm.rank
    field = gram.field
    d = field.degree
    gens = [tits_generator(gram, s) for s in range(n)]
    simple = [(0,) * (s * d) + (1,) + (0,) * ((n - s) * d - 1) for s in range(n)]
    seen = {v: (0, t) for v, t in zip(simple, gens)}  # packed root -> (depth, reflection)
    frontier = list(zip(simple, gens))
    for depth in range(1, depth_cap + 1):
        new_frontier = []
        for v, t in frontier:
            for s, gen in enumerate(gens):
                if v == simple[s]:
                    continue  # sigma_s(alpha_s) = -alpha_s
                u = _mat_mul(gen.packed, v, n, field)
                if u not in seen:
                    r = reflection(gram, u, (s,) + t.word + (s,))
                    seen[u] = (depth, r)
                    new_frontier.append((u, r))
        frontier = new_frontier
        if not frontier:
            break
    order = sorted(seen.items(), key=lambda item: (item[1][0], _root_key(item[0], d)))
    return [Reflection(t, tuple(ExactScalar(field, v[i:i + d], 1)
                                for i in range(0, n * d, d)), depth, t.word)
            for v, (depth, t) in order]


def gram_signature(gram: GramMatrix):
    """Exact inertia (positives, negatives, zeros) of the bilinear form."""
    return linalg.inertia(gram.field, gram.entries)


def fixed_space_codim(g: GroupElement) -> int:
    """rank(M - I): a product of k reflections fixes codimension <= k."""
    field = g.gram.field
    rows = _entry_rows(g.packed, g.gram.cm.rank, field.degree)
    diff = [[ExactScalar(field, (c[0] - 1,) + c[1:] if i == j else c, 1)
             for j, c in enumerate(row)] for i, row in enumerate(rows)]
    return linalg.matrix_rank(field, diff)
