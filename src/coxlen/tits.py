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
the same way, as one-column matrices, `Reflection.root` included.  A
reflection up to degree 4 starts as its product (below) and gets its packed
matrix only when something reads it.

Three product kernels.  Multiplication works on those ints directly, one
row at a time: every product by a matrix B is a function row -> row B, with
its kernel picked once, when it is made (`_matrix_product`, or the rank-one
kernel of a reflection), and kept: on g for `row_factor(g)`, on the Gram
for 2B and, by root, for reflections (below).

* Reflections, up to degree 4 (`_DENSE_DEGREE`): a rank-one update.  A
  reflection is t = I - beta rho with rho = beta^T 2B (Humphreys,
  Reflection Groups and Coxeter Groups, 5.3), so r M(t) = r - <r, beta>
  rho.  The d coefficients c_q of <r, beta> are dot products of r with the
  regular-representation columns of beta, and the update subtracts c_q
  times the reduced row theta^q rho: 2 n d^2 integer products where a
  general product takes (n d)^2.  It is one straight-line function whose
  source is generated once per (width n d, degree d), on first use; the
  root's ints are its closure cells.  It computes in the same canonical
  Z[theta] basis as the other kernels, so every product is the same tuple
  of ints.  The generators are reflections too.  Such a reflection is made
  as this product alone: its matrix, row i being the product of the i-th
  unit row, is built on first read, so the search, which reads its factors
  only through their products, builds none.  The kernel is a function of
  the root alone, so the Gram keeps one per packed root, shared by every
  reflection of that root (a generator, an enumerated reflection, the
  inversion of a word), the first made, which are the shallow roots, up to
  _KEPT_CELLS closure cells in all (2 n d^2 per kernel).  A kept kernel
  takes ~0.7 kB at rank 3 and degree 1 and ~100 kB at rank 64 and degree
  4, so a Gram keeps at most ~1.9 MB and ~0.8 MB of them.
* Any other matrix, up to degree 4: the dense kernel on its regular
  representation (`_regular_columns`): one column per output coefficient,
  holding the coefficients of theta^q times each entry with the reduction
  included, so each output coefficient is one `sum(map(mul, row, column))`.
* Every matrix above degree 4, where it beats the dense kernel: the sparse
  kernel, each entry's convolution accumulated over the inner index over
  the nonzero coefficients only and reduced once modulo the minimal
  polynomial.  It is made from the matrix, so a reflection above degree 4
  is built with its matrix.

* `GroupElement.key` is the packed int tuple itself: equal keys mean equal
  matrices, so key equality is the word problem.
* `canonical_key(g)` is the canonical byte serialization of the entries
  over the report field; it orders frontiers deterministically and names
  elements in reports (the CSV key digest), independently of the packing
  and of the field the work runs in.  It and the root bytes are written by
  one kernel per Gram and shape (`_report_bytes`): a cached %-format
  string that reproduces `repr`, fed each entry's report coefficients by a
  generated straight-line map of its d ints (`_report_maker`), or the
  packed ints themselves when both fields are the same.
* `row_key(g)` is K(g) = 1^T M(g), the column sums of g's matrix: rank *
  degree ints instead of rank^2 * degree.  It is injective on W for every
  Coxeter matrix, degenerate and indefinite forms included: K(g) is the
  functional p o g with p(alpha_s) = 1 for every s, so p lies in the open
  fundamental chamber of the contragredient action, where W acts simply
  transitively on the chambers of the Tits cone (Tits' theorem; Humphreys,
  Reflection Groups and Coxeter Groups, 5.13).  K(g h) = K(g) M(h), one
  row-matrix product (`row_factor(h)`, n^2 entry products where a matrix
  product takes n^3, 2n for a reflection), made once per element and kept
  on the element.
* No `ExactScalar` is built: every entry is a tuple of ints over Z[theta],
  and the eliminations run on packed rows, `gram_signature` on 2B and
  `fixed_space_codim` on M - I, the packed identity subtracted, handed to
  `linalg.matrix_rank`.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain
from operator import mul, sub

from . import linalg
from ._record import Record
from .coxeter import CoxeterMatrix, GramMatrix, gram_matrix
from .errors import DomainError, ResourceCapError, require
from .exactfield import RealCyclotomicField, _combination

# the one cap of every search: elements stored by `reflen.min_product_length`
# and the standard ball, and the reflections one level of
# `enumerate_reflections` is built from, unless the caller gives another
NODE_CAP = 5_000_000

# the largest field degree at which a product by a general element runs the
# dense kernel and a product by a reflection the rank-one kernel; above it
# both run the sparse convolution, which beats the dense kernel there
_DENSE_DEGREE = 4

# the most closure cells of the rank-one kernels one Gram keeps, 2 n d^2 per
# kernel (see `reflection`): 2,730 kernels at rank 3 and degree 1 (~1.9 MB),
# 8 at rank 64 and degree 4 (~0.8 MB)
_KEPT_CELLS = 2 ** 14


def _theta_rows(row, field):
    """row, theta row, ..., theta^(degree-1) row for a packed row over
    Z[theta], each reduced modulo the minimal polynomial."""
    d = field.degree
    top_row = field._reduction[0]           # theta^degree
    rows = [row]
    for _ in range(d - 1):                  # row <- theta * row
        nxt = []
        for t in range(0, len(row), d):
            top = row[t + d - 1]
            low = [0, *row[t:t + d - 1]]
            nxt += [c + top * x for c, x in zip(low, top_row)] if top else low
        row = nxt
        rows.append(row)
    return rows


def _regular_columns(B, n, field):
    """The regular-representation columns of a packed matrix B of n rows:
    row (i, q) is theta^q times row i of B, so column (j, p) holds at (i, q)
    the theta^p coefficient of theta^q B_ij, reduction included, and a row
    times it is that coefficient of row B (at degree 1, B's columns)."""
    width = len(B) // n
    return list(zip(*[row for r in range(0, len(B), width)
                      for row in _theta_rows(B[r:r + width], field)]))


def _dense_product(cols, row):
    """The dense kernel: one dot product per output coefficient."""
    return tuple([sum(map(mul, row, col)) for col in cols])


def _sparse_product(cols, field, row):
    """The sparse kernel: each entry's convolution accumulated over the inner
    index over the nonzero coefficients only, reduced once modulo the
    minimal polynomial."""
    d = field.degree
    terms = [[(p, c) for p, c in enumerate(row[t:t + d]) if c]
             for t in range(0, len(row), d)]
    reduction = field._reduction_terms
    width = 2 * d - 1
    out = []
    for col in cols:
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


def _matrix_product(B, n, field):
    """The product row -> row B for a packed matrix B of n rows: n^2 entry
    products for a rank-n matrix, where a matrix product takes n^3.  The
    dense kernel on B's regular columns up to degree _DENSE_DEGREE; above
    it the sparse kernel on, per column, the (row index, nonzero (power,
    coefficient) terms) of each nonzero entry."""
    d = field.degree
    if d <= _DENSE_DEGREE:
        return partial(_dense_product, _regular_columns(B, n, field))
    m = len(B) // (n * d)
    terms = [[(q, y) for q, y in enumerate(B[t:t + d]) if y]
             for t in range(0, len(B), d)]
    cols = [[(i, e) for i, e in enumerate(terms[j::m]) if e] for j in range(m)]
    return partial(_sparse_product, cols, field)


@lru_cache(maxsize=None)
def _rank_one_maker(w, d):
    """make(*b, *x) for rows of width w = rank * degree at degree d: the
    product by I - beta rho as one straight-line function of the row r,
    bound to the d regular-representation columns b_q of beta and the d
    reduced rows x_q = theta^q rho:

        c_q = r_0 b_q0 + ... + r_(w-1) b_q(w-1)              (q < d)
        out_i = r_i - c_0 x_0i - ... - c_(d-1) x_(d-1)i

    so c = <r, beta> in Z[theta] and out = r - c rho, 2 w d products.  The
    source is generated once per (w, d), on first use; the factor's entries
    are the closure's cells."""
    r = ["r%d" % i for i in range(w)]
    b = ["b%d_%d" % (q, i) for q in range(d) for i in range(w)]
    x = ["x%d_%d" % (q, i) for q in range(d) for i in range(w)]
    lines = ["def make(%s):" % ", ".join(b + x),
             " def product(row):",
             "  %s, = row" % ", ".join(r)]
    lines += ["  c%d = %s" % (q, " + ".join("r%d*b%d_%d" % (i, q, i) for i in range(w)))
              for q in range(d)]
    lines.append("  return (%s,)" % ", ".join(
        "r%d" % i + "".join(" - c%d*x%d_%d" % (q, q, i) for q in range(d))
        for i in range(w)))
    lines.append(" return product")
    namespace = {}
    exec(compile("\n".join(lines), "<rank-one kernel w=%d d=%d>" % (w, d), "exec"),
         namespace)
    return namespace["make"]


def _kept(gram, name, make):
    """make(gram), made on first use and kept on the Gram under `name`, so it
    is found without hashing the Gram."""
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
    """An element of W as a packed exact matrix, with an optional defining
    word.  An element made from its product alone (a reflection up to degree
    _DENSE_DEGREE, see `reflection`) has no `packed` until something reads
    it."""

    __slots__ = ("gram", "packed", "word", "_factor")   # _factor: see row_factor

    def __init__(self, gram, packed, word=None):
        self.gram = gram
        if packed is not None:
            self.packed = packed
        self.word = word
        self._factor = None

    def __getattr__(self, name):
        """Runs only for a slot that is unset, so a read of a set `packed`
        costs nothing extra.  An unset `packed` is built from the product
        and kept: row i of M(g) is e_i M(g), the product of the i-th unit
        row, the same canonical Z[theta] ints."""
        if name != "packed" or self._factor is None:
            raise AttributeError(name)
        d = self.gram.field.degree
        width = self.gram.cm.rank * d
        zero = (0,) * width
        out = ()
        for i in range(0, width, d):
            out += self._factor(zero[:i] + (1,) + zero[i + 1:])
        self.packed = out
        return out

    @property
    def key(self):
        return self.packed

    def __mul__(self, other):
        """Each row of self times other's kept `row_factor`."""
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        gram = self.gram
        product = row_factor(other)
        A = self.packed
        step = gram.cm.rank * gram.field.degree
        out = ()
        for r in range(0, len(A), step):
            out += product(A[r:r + step])
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
    """The product by g's matrix, row -> row M(g), as a function of one
    packed row, kept on g, so it lives at least as long as g: a group's
    generators, the enumerated reflections `reflen` holds per group, the
    inversion set of one exact solve, or the right operand of a product.
    A reflection at degree <= _DENSE_DEGREE is made with its rank-one kernel
    (`reflection`), which the Gram may keep too, and starts as that product
    alone; any other element gets `_matrix_product` of its matrix, made
    here on first use."""
    product = g._factor
    if product is None:
        product = g._factor = _matrix_product(g.packed, g.gram.cm.rank, g.gram.field)
    return product


def _form(gram: GramMatrix):
    """The product row -> row 2B (`GramMatrix.rows`), kept on the Gram."""
    return _kept(gram, "_form", lambda gram: _matrix_product(
        tuple(c for row in gram.rows for e in row for c in e), gram.cm.rank, gram.field))


def reflection(gram: GramMatrix, root: tuple, word) -> GroupElement:
    """x -> x - 2B(beta, x) beta for the packed root beta: the matrix
    I - beta rho with rho = beta^T 2B, the product of beta by 2B, whose
    reduced rows theta^q rho give each row beta_i rho.  Every reflection of
    the package is built here.

    Up to degree _DENSE_DEGREE the reflection is its `row_factor` alone,
    the rank-one update r (I - beta rho) = r - <r, beta> rho in one
    generated straight-line kernel (`_rank_one_maker`), bound to the regular
    columns of beta, read off one `_theta_rows` of beta: 2 n d^2 integer
    products per row where the dense kernel takes (n d)^2, exact in the same
    Z[theta] basis, so every product is the same tuple of ints.  The kernel
    depends on the root alone, so it is kept on the Gram under the packed
    root while the kept kernels' closure cells fit in _KEPT_CELLS, and a
    reflection of a kept root reuses it.  Its matrix is built from that
    product on first read (`GroupElement.__getattr__`).  Above degree
    _DENSE_DEGREE the matrix is built here, as the sparse kernel is made
    from it."""
    field = gram.field
    n, d = gram.cm.rank, field.degree
    kept = _kept(gram, "_rank_one_kernels", lambda gram: {})
    product = kept.get(root)
    if product is None:
        x = _theta_rows(_form(gram)(root), field)
        if d > _DENSE_DEGREE:
            cols = list(zip(*x))
            out = [sum(map(mul, root[i:i + d], col)) for i in range(0, n * d, d)
                   for col in cols]
            return GroupElement(gram, tuple(map(sub, _identity(n, d), out)), word)
        beta = _theta_rows(root, field)     # row q: theta^q beta
        b = (row[i + p] for p in range(d) for i in range(0, n * d, d) for row in beta)
        product = _rank_one_maker(n * d, d)(*b, *chain(*x))
        if len(kept) < _KEPT_CELLS // (2 * n * d * d):
            kept[root] = product
    t = GroupElement(gram, None, word)
    t._factor = product
    return t


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

    def element(self, word) -> GroupElement:
        return evaluate_word(self.generators, word)

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
            key = row_factor(self.generators[s])(key)
            out.append(s)
        require(key == row_key(self.identity),
                "descent recursion did not end at the identity")
        return tuple(reversed(out))


def evaluate_word(gens, word) -> GroupElement:
    """Exact product of generator matrices; the empty word is the identity."""
    gram = gens[0].gram
    out = GroupElement(gram, _identity(gram.cm.rank, gram.field.degree), ())
    for s in word:
        if not 0 <= s < len(gens):
            raise DomainError("generator index %d out of range" % s)
        out = out * gens[s]
    return out


def _make_report_columns(gram: GramMatrix):
    """The exact embedding of gram.field, Q(theta') with theta' =
    2cos(pi/N'), into the report field Q(theta), theta = 2cos(pi/N) for N =
    cm.conductor(), as integer columns: theta' = D_k(theta) with k = N/N'
    (`dickson`), so column j holds the theta^j coefficients of theta'^0,
    ..., theta'^(d'-1).  None when both fields have the same degree, hence
    the same coefficients: N' = N, or both are Q (N' = 2, N = 3).  A3
    (N' = 2, N = 6) needs the map: its form lies in Q and its report field
    is Q(2cos(pi/6)), of degree 2."""
    field, N = gram.field, gram.cm.conductor()
    report = RealCyclotomicField(N)
    if report.degree == field.degree:
        return None
    theta = report.dickson(N // field.N)
    rows = [(1,) + (0,) * (report.degree - 1)]
    for _ in range(field.degree - 1):
        rows.append(report.mul(rows[-1], theta))
    return tuple(tuple(row[j] for row in rows) for j in range(report.degree))


@lru_cache(maxsize=None)
def _report_maker(cols):
    """report(packed): the report-field coefficients of every entry of a
    packed matrix or root, one flat tuple, through the embedding columns
    `cols` (`_make_report_columns`) folded in as integer constants.  The
    generated loop body maps one entry's d ints,

        out += (cols[0][0] c_0 + ... + cols[0][d-1] c_(d-1), ...)

    so the source does not grow with the rank.  Generated once per map."""
    d = len(cols[0])
    c = ["c%d" % i for i in range(d)]
    source = "\n".join([
        "def report(packed):",
        " it = iter(packed)",
        " out = []",
        " for %s, in zip(%s):" % (", ".join(c), ", ".join(["it"] * d)),
        "  out += (%s,)" % ", ".join(_combination(zip(col, c)) for col in cols),
        " return tuple(out)"])
    namespace = {}
    exec(compile(source, "<report map d=%d>" % d, "exec"), namespace)
    return namespace["report"]


def _tuple_format(item, count):
    """The %-format of `repr` of a tuple of `count` items of format `item`,
    the trailing comma of a 1-tuple included."""
    return "(%s,)" % item if count == 1 else "(%s)" % ", ".join([item] * count)


def _report_bytes(gram: GramMatrix, rows):
    """packed -> the canonical bytes of a packed matrix (rows = True) or
    root over the report field: `repr` of its (coefficients, 1) entries, in
    rows of n for a matrix, through one cached %-format string; each entry
    first mapped into the report field by `_report_maker` unless both
    fields are the same.  Made once per Gram and shape."""
    n = gram.cm.rank
    cols = _make_report_columns(gram)
    degree = gram.field.degree if cols is None else len(cols)
    fmt = _tuple_format("(%s, 1)" % _tuple_format("%d", degree), n)
    if rows:
        fmt = _tuple_format(fmt, n)
    if cols is None:
        return lambda packed: (fmt % packed).encode()
    report = _report_maker(cols)
    return lambda packed: (fmt % report(packed)).encode()


def canonical_key(g: GroupElement) -> bytes:
    """Canonical bytes of g's matrix over the report field Q(2cos(pi/N)),
    N = cm.conductor(): `repr` of its rows of (num, den) entries, every
    denominator being 1, written by the Gram's kept kernel
    (`_report_bytes`).  The bytes do not depend on the field the work runs
    in."""
    return _kept(g.gram, "_matrix_bytes", lambda gram: _report_bytes(gram, True))(g.packed)


class Reflection(Record):
    """A conjugate w s w^{-1}, realized by its positive unit root."""

    __slots__ = ("element", "root", "depth", "word")

    def __init__(self, element: GroupElement, root: tuple, depth: int, word: tuple):
        self.element = element
        self.root = root    # packed, as a one-column matrix over gram.field
        self.depth = depth
        self.word = word    # a (not necessarily reduced) word w + (s,) + reversed(w)


def _root_key(gram, root):
    """The bytes that order roots: `repr` of (report-field coeffs, 1) per
    coordinate, written by the Gram's kept kernel (`_report_bytes`)."""
    return _kept(gram, "_root_bytes", lambda gram: _report_bytes(gram, False))(root)


def _check_reflection_cap(held, depth_cap, cap):
    """Raise ResourceCapError when `held`, the reflections of root depth <
    depth_cap, exceed `cap`: a search over them counts them toward its own
    cap, so it could store nothing beyond its first layer."""
    if held > cap:
        raise ResourceCapError("reflections of root depth < %d exceeded the node cap "
                               "of %d stored elements" % (depth_cap, cap))


def enumerate_reflections(gram: GramMatrix, depth_cap: int, cap=NODE_CAP):
    """All reflections whose positive root has breadth-first depth <= depth_cap.

    The orbit of the simple roots is expanded level by level through the
    simple reflections.  sigma_s permutes the positive roots other than
    alpha_s (Humphreys, Reflection Groups and Coxeter Groups, ch. 5), so
    skipping sigma_s on alpha_s keeps every image positive and no sign is
    ever decided.  A new root u = sigma_s(v) = v - 2B(v, alpha_s) alpha_s
    differs from v in coordinate s alone, read off rho = v^T 2B (one
    product by 2B per parent), and carries its `reflection`, with word (s,) +
    word(t) + (s,) for the parent's reflection t.  Roots are deduplicated by
    their packed ints and the result is sorted by (depth, root bytes over
    the report field), so it is deterministic.  A level is built only while
    the reflections found so far are at most `cap` (`_check_reflection_cap`),
    so at most (rank - 1) * cap more are made.
    """
    n = gram.cm.rank
    field = gram.field
    d = field.degree
    form = _form(gram)
    gens = [tits_generator(gram, s) for s in range(n)]
    simple = [(0,) * (s * d) + (1,) + (0,) * ((n - s) * d - 1) for s in range(n)]
    seen = {v: (0, t) for v, t in zip(simple, gens)}  # packed root -> (depth, reflection)
    frontier = list(zip(simple, gens))
    for depth in range(1, depth_cap + 1):
        _check_reflection_cap(len(seen), depth_cap, cap)
        new_frontier = []
        for v, t in frontier:
            rho = form(v)
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
