"""The geometric (Tits) representation: exact matrices, keys, reflections.

Group elements are rank x rank matrices over the real cyclotomic field
Q(theta), theta = 2cos(pi/N).  Generator matrices and the reflections built
by `reflection_from_root` have entries in Z[theta] (the minimal polynomial is
monic), so every product stays integral, and an element is stored packed:
one flat tuple of Python ints, the `degree` coefficients (theta^0 first) of
each entry in row-major order.  Multiplication works on those ints directly,
accumulating each entry's convolution over the inner index and reducing it
once modulo the minimal polynomial; a non-integral entry raises
CertificateError instead of being packed.

* `GroupElement.key` is the packed int tuple itself: equal keys mean equal
  matrices, so key equality is the word problem.
* `GroupElement.matrix` is a read-only view of the same matrix as rows of
  `ExactScalar`, built lazily for the exact linear algebra
  (`fixed_space_codim`, `enumerate_reflections`).
* `canonical_key(g)` is the canonical byte serialization of the normalized
  entries; it orders frontiers deterministically and names elements in
  reports (the CSV key digest), independently of the packing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from . import linalg
from .coxeter import CoxeterMatrix, GramMatrix, gram_matrix
from .errors import CertificateError, DomainError
from .exactfield import ExactScalar


def _mat_mul(A, B, n, field):
    """Product of two packed rank-n matrices over Z[theta]."""
    d = field.degree
    if d == 1:
        rows = [A[r:r + n] for r in range(0, n * n, n)]
        cols = [B[j::n] for j in range(n)]
        return tuple([sum(map(mul, row, col)) for row in rows for col in cols])
    # nonzero (power, coefficient) terms of every entry
    a_terms = [[(p, c) for p, c in enumerate(A[t:t + d]) if c]
               for t in range(0, n * n * d, d)]
    b_terms = [[(p, c) for p, c in enumerate(B[t:t + d]) if c]
               for t in range(0, n * n * d, d)]
    reduction = field._reduction_terms
    width = 2 * d - 1
    out = []
    for r in range(0, n * n, n):
        a_row = a_terms[r:r + n]
        for j in range(n):
            conv = [0] * width
            for a, b in zip(a_row, b_terms[j::n]):
                if a:
                    for q, y in b:
                        for p, x in a:
                            conv[p + q] += x * y
            for top, terms in zip(conv[d:], reduction):
                if top:
                    for i, c in terms:
                        conv[i] += top * c
            out += conv[:d]
    return tuple(out)


def _mat_vec(A, v):
    n = len(A)
    return tuple(
        sum((A[i][k] * v[k] for k in range(1, n)), A[i][0] * v[0])
        for i in range(n)
    )


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

    __slots__ = ("gram", "packed", "word", "_matrix")

    def __init__(self, gram, packed, word=None):
        self.gram = gram
        self.packed = packed
        self.word = word
        self._matrix = None

    @property
    def key(self):
        return self.packed

    @property
    def matrix(self):
        """The matrix as rows of ExactScalar (a view built on first use)."""
        if self._matrix is None:
            field = self.gram.field
            rows = _entry_rows(self.packed, self.gram.cm.rank, field.degree)
            self._matrix = tuple(tuple(ExactScalar(field, c, 1) for c in row)
                                 for row in rows)
        return self._matrix

    def __mul__(self, other):
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        gram = self.gram
        return GroupElement(gram, _mat_mul(self.packed, other.packed,
                                           gram.cm.rank, gram.field), word)

    def inverse(self):
        if self.word is not None:
            # generators are involutions, so the reversed word inverts
            gens = [tits_generator(self.gram, s) for s in range(self.gram.cm.rank)]
            return evaluate_word(gens, tuple(reversed(self.word)))
        raise ValueError("cannot invert an element without a word")

    def is_identity(self):
        return self.packed == _identity(self.gram.cm.rank, self.gram.field.degree)

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "GroupElement(word=%r)" % (self.word,)


def tits_generator(gram: GramMatrix, s: int) -> GroupElement:
    """sigma_s(x) = x - 2 B(e_s, x) e_s as an exact matrix."""
    field = gram.field
    n = gram.cm.rank
    rows = []
    for i in range(n):
        if i != s:
            rows.append(tuple(field.one if j == i else field.zero for j in range(n)))
        else:
            row = []
            for j in range(n):
                two_b = gram.entries[s][j] + gram.entries[s][j]
                delta = field.one if j == s else field.zero
                row.append(delta - two_b)
            rows.append(tuple(row))
    return GroupElement(gram, _pack(rows), (s,))


class TitsGroup:
    """Bundle of a Coxeter matrix with its exact representation."""

    def __init__(self, cm: CoxeterMatrix):
        self.cm = cm
        self.gram = gram_matrix(cm)
        self.field = self.gram.field
        self.generators = tuple(tits_generator(self.gram, s) for s in range(cm.rank))
        self.identity = GroupElement(self.gram, _identity(cm.rank, self.field.degree), ())

    def element(self, word) -> GroupElement:
        return evaluate_word(self.generators, word, identity=self.identity)

    def simple_root(self, i):
        return tuple(self.field.one if j == i else self.field.zero
                     for j in range(self.cm.rank))

    def _is_descent(self, g: GroupElement, s):
        """Whether column s of g's matrix is a negative root, i.e. its first
        nonzero entry is negative."""
        n, d = self.cm.rank, self.field.degree
        p = g.packed
        for t in range(s * d, n * n * d, n * d):
            sign = self.field.sign_of(p[t:t + d], 1)
            if sign:
                return sign < 0
        raise ValueError("zero vector is not a root")

    def right_descents(self, g: GroupElement):
        """Generators s with l(gs) < l(g): column s of the matrix is a negative root."""
        return [s for s in range(self.cm.rank) if self._is_descent(g, s)]

    def reduced_word(self, g: GroupElement):
        """A reduced word for g (deterministic: smallest descent first)."""
        out = []
        cur = g
        while True:
            s = next((s for s in range(self.cm.rank) if self._is_descent(cur, s)), None)
            if s is None:
                break
            cur = cur * self.generators[s]
            out.append(s)
        if not cur.is_identity():
            raise CertificateError("descent recursion did not end at the identity")
        return tuple(reversed(out))

    def length(self, g: GroupElement) -> int:
        return len(self.reduced_word(g))


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


def _root_key(v):
    return repr(tuple((x.num, x.den) for x in v)).encode()


def _normalize_root_sign(v):
    for x in v:
        s = x.sign()
        if s > 0:
            return v
        if s < 0:
            return tuple(-y for y in v)
    raise ValueError("zero vector is not a root")


def reflection_from_root(gram: GramMatrix, root):
    """Matrix of x -> x - 2 B(root, x) root; requires B(root, root) = 1."""
    field = gram.field
    n = gram.cm.rank
    b_root = _mat_vec(gram.entries, root)  # B(root, e_j) as a covector
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            delta = field.one if i == j else field.zero
            row.append(delta - (b_root[j] + b_root[j]) * root[i])
        rows.append(tuple(row))
    return tuple(rows)


def bilinear_value(gram: GramMatrix, u, v):
    w = _mat_vec(gram.entries, v)
    acc = u[0] * w[0]
    for i in range(1, len(u)):
        acc = acc + u[i] * w[i]
    return acc


def enumerate_reflections(gram: GramMatrix, depth_cap: int):
    """All reflections whose positive root has breadth-first depth <= depth_cap.

    The orbit of the simple roots is expanded level by level; roots are
    sign-normalized (first nonzero coordinate positive) and deduplicated by
    key, so the result is deterministic.
    """
    group = TitsGroup(gram.cm)
    n = gram.cm.rank
    seen = {}
    frontier = []
    for i in range(n):
        v = group.simple_root(i)
        seen[_root_key(v)] = (v, 0, (i,))
        frontier.append((v, (i,)))
    gen_mats = [g.matrix for g in group.generators]
    for depth in range(1, depth_cap + 1):
        new_frontier = []
        for v, w in frontier:
            for s in range(n):
                u = _normalize_root_sign(_mat_vec(gen_mats[s], v))
                k = _root_key(u)
                if k not in seen:
                    word = (s,) + w
                    seen[k] = (u, depth, word)
                    new_frontier.append((u, word))
        frontier = new_frontier
        if not frontier:
            break
    out = []
    for k in sorted(seen):
        v, depth, word = seen[k]
        core = word  # word = u-word ending in the base simple reflection
        u_part, base = core[:-1], core[-1]
        refl_word = u_part + (base,) + tuple(reversed(u_part))
        elt = GroupElement(gram, _pack(reflection_from_root(gram, v)), refl_word)
        out.append(Reflection(elt, v, depth, refl_word))
    out.sort(key=lambda r: (r.depth, _root_key(r.root)))
    return out


def gram_signature(gram: GramMatrix):
    """Exact inertia (positives, negatives, zeros) of the bilinear form."""
    return linalg.inertia(gram.field, gram.entries)


def fixed_space_codim(g: GroupElement) -> int:
    """rank(M - I): a product of k reflections fixes codimension <= k."""
    field = g.gram.field
    n = g.gram.cm.rank
    diff = tuple(
        tuple(g.matrix[i][j] - (field.one if i == j else field.zero)
              for j in range(n))
        for i in range(n)
    )
    return linalg.matrix_rank(field, diff)
