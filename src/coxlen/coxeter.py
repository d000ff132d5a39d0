"""Coxeter matrices: parsing, Gram forms, and exact type classification.

Bond orders are stored as ints with 0 denoting an infinite order (the same
sentinel used by the structured matrix-file format).  Classification verdicts
are decided purely by the exact signature of the Gram matrix, computed by one
symmetric elimination of 2B over Z[theta] (`linalg.inertia` on
`GramMatrix.rows`, which `gram_matrix` builds as integer coefficients).

The classifier works on sorted tuples of generator indices into the one
validated matrix, and caches each connected subdiagram's verdict by its rows.
The minimal non-affine subsets are connected, and each one, less a generator
that leaves it connected, is a connected affine subset, so
`minimal_nonaffine_subsets` grows connected affine subsets one generator at
a time instead of walking all 2^rank subsets.
"""

from __future__ import annotations

import enum
import json
import math
import re

from . import linalg
from ._record import Record
from .errors import DomainError, InputError, ResourceCapError, require
from .exactfield import RealCyclotomicField, check_degree

INF = 0  # sentinel bond order for m_ij = infinity

# the largest rank accepted, checked before a matrix of that rank is built
MAX_RANK = 64


def _check_rank(rank):
    if rank > MAX_RANK:
        raise ResourceCapError("rank %d is above the cap of %d" % (rank, MAX_RANK))


def order_text(m: int) -> str:
    return "inf" if m == INF else str(m)


class CoxeterMatrix(Record):
    """The combinatorial datum (S, m_ij); entries symmetric, m_ii = 1."""

    __slots__ = ("rank", "entries")

    def __init__(self, rank: int, entries: tuple):
        self.rank = rank
        self.entries = entries  # tuple of tuples of ints, 0 = infinity

    @classmethod
    def make(cls, entries):
        """Validated matrix from rows of int bond orders (0 = infinity)."""
        entries = tuple(entries)
        _check_rank(len(entries))
        for row in entries:
            if not isinstance(row, (list, tuple)):
                raise InputError("a row must be a list of bond orders, got %.40r" % (row,))
            for x in row:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise InputError("bond order %.40r is not an integer" % (x,))
        entries = tuple(tuple(int(x) for x in row) for row in entries)
        rank = len(entries)
        if rank < 1:
            raise InputError("rank must be >= 1")
        for i, row in enumerate(entries):
            if len(row) != rank:
                raise InputError("row %d has %d entries, expected %d" % (i + 1, len(row), rank))
            if row[i] != 1:
                raise InputError("m_%d%d = %s but diagonal entries must be 1"
                                 % (i + 1, i + 1, order_text(row[i])))
            for j in range(rank):
                if entries[i][j] != entries[j][i]:
                    raise InputError("asymmetric entries at (%d,%d): %s vs %s"
                                     % (i + 1, j + 1, order_text(entries[i][j]),
                                        order_text(entries[j][i])))
                if i != j and entries[i][j] != INF and entries[i][j] < 2:
                    raise InputError("m_%d%d = %s but off-diagonal orders must be >= 2 or inf"
                                     % (i + 1, j + 1, order_text(entries[i][j])))
        return cls(rank, entries)

    def submatrix(self, subset):
        subset = _generator_subset(self, subset)
        rows = tuple(tuple(self.entries[i][j] for j in subset) for i in subset)
        return CoxeterMatrix.make(rows)

    def conductor(self):
        """lcm of the finite off-diagonal bond orders (2 when there are none):
        the N of the report field Q(2cos(pi/N))."""
        return _lcm_of_bonds(self, 2)


def _lcm_of_bonds(cm, least):
    """lcm of the finite off-diagonal bond orders >= least (2 when there are
    none)."""
    rank, rows = cm.rank, cm.entries
    return max(math.lcm(*[m for i in range(rank) for m in rows[i][i + 1:] if m >= least]), 2)


_ASSIGN_RE = re.compile(r"^m(\d+)[_,]?(\d+)=(\d+|inf)$")


def parse_coxeter_matrix(text: str) -> CoxeterMatrix:
    """Parse the inline grammar: "rank <k>; m<i><j>=<v> ..." (1-based, i<j).

    Multi-digit indices use a separator, e.g. m1_10=3.  Unassigned pairs
    default to 2, a pair assigned twice is refused, and the value "inf"
    denotes an infinite bond order.
    """
    tokens = text.replace(";", " ").split()
    if not tokens or tokens[0] != "rank":
        raise InputError("input must start with 'rank <k>'")
    if len(tokens) < 2 or not tokens[1].isdecimal():
        raise InputError("missing rank value")
    rank = int(tokens[1])
    if rank < 1:
        raise InputError("rank must be >= 1")
    _check_rank(rank)
    entries = [[2] * rank for _ in range(rank)]
    for i in range(rank):
        entries[i][i] = 1
    assigned = set()
    for tok in tokens[2:]:
        m = _ASSIGN_RE.match(tok)
        if not m:
            raise InputError("cannot parse assignment %r" % tok)
        i, j = int(m.group(1)), int(m.group(2))
        raw = m.group(3)
        v = INF if raw == "inf" else int(raw)
        if not (1 <= i < j <= rank):
            raise InputError("indices out of range in %r (need 1 <= i < j <= %d)" % (tok, rank))
        if v != INF and v < 2:
            raise InputError("m%d%d = %d is below 2" % (i, j, v))
        if (i, j) in assigned:
            raise InputError("m%d_%d is assigned twice" % (i, j))
        assigned.add((i, j))
        entries[i - 1][j - 1] = entries[j - 1][i - 1] = v
    return CoxeterMatrix.make(entries)


def load_matrix_json(text: str) -> CoxeterMatrix:
    """Full symmetric integer matrix as JSON (0 encodes infinity)."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise InputError("not valid JSON: %s" % e) from None
    if isinstance(data, dict):
        data = data.get("matrix")
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise InputError("expected a JSON list of rows (or {'matrix': [...]})")
    return CoxeterMatrix.make(data)


def parse_any(text: str) -> CoxeterMatrix:
    stripped = text.lstrip()
    if stripped.startswith("[") or stripped.startswith("{"):
        return load_matrix_json(text)
    return parse_coxeter_matrix(text)


class GramMatrix(Record):
    """The bilinear form B, B_ii = 1 and B_ij = -cos(pi/m_ij), held as 2B.
    Its `__dict__` keeps the kernels `tits` makes for it."""

    __slots__ = ("cm", "field", "rows", "__dict__")

    def __init__(self, cm: CoxeterMatrix, field: RealCyclotomicField, rows: tuple):
        self.cm = cm
        self.field = field
        self.rows = rows  # rows of 2B over Z[theta]: per entry, `degree` ints (theta^0 first)


def gram_matrix(cm: CoxeterMatrix) -> GramMatrix:
    """2B over the smallest field that holds it, Q(theta) with theta =
    2cos(pi/N'), N' the lcm of the finite bond orders >= 4 (2 when there are
    none).  Every entry 2B_ij = -2cos(pi/m_ij) lies in Z[theta]: 2 on the
    diagonal (m_ii = 1), 0, -1 and -2 for m = 2, 3 and infinity, and
    -D_(N'/m)(theta) (Dickson) for m >= 4.  The degree cap reads the report
    field Q(2cos(pi/N)), N = cm.conductor(), which holds this one."""
    check_degree(cm.conductor())
    field = RealCyclotomicField(_lcm_of_bonds(cm, 4))
    rational = {1: 2, 2: 0, 3: -1, INF: -2}
    entries = {m: (rational[m],) + (0,) * (field.degree - 1) if m in rational
               else tuple(-c for c in field.dickson(field.N // m))
               for row in cm.entries for m in row}
    return GramMatrix(cm, field, tuple(tuple(entries[m] for m in row) for row in cm.entries))


class Kind(enum.Enum):
    SPHERICAL = "Spherical"
    AFFINE_EUCLIDEAN = "AffineEuclidean"
    NON_AFFINE = "NonAffine"


class TypeVerdict(Record):
    __slots__ = ("kind", "components", "minimal_nonaffine", "signature")

    def __init__(self, kind: Kind, components: tuple, minimal_nonaffine: bool,
                 signature: tuple):
        self.kind = kind
        self.components = components  # ((subset tuple, Kind), ...)
        self.minimal_nonaffine = minimal_nonaffine
        self.signature = signature  # (positives, negatives, zeros) of the whole Gram form


def _generator_subset(cm: CoxeterMatrix, subset):
    """`subset` as a tuple of generator indices of cm.

    Raises DomainError unless the indices are ints, sorted and distinct, with
    0 <= i < rank: a negative index would wrap around to the end of a row.
    """
    subset = tuple(subset)
    if (any(isinstance(i, bool) or not isinstance(i, int) for i in subset)
            or any(a >= b for a, b in zip(subset, subset[1:]))
            or (subset and not 0 <= subset[0] <= subset[-1] < cm.rank)):
        raise DomainError("subset %.60r is not a sorted set of distinct generator "
                          "indices in 0..%d" % (subset, cm.rank - 1))
    return subset


def _components(cm: CoxeterMatrix, subset):
    """Connected components of the subdiagram on the sorted generator indices
    `subset` (edges where m_ij != 2), each a sorted tuple, in sorted order."""
    left, out = set(subset), []
    for start in subset:
        if start in left:
            comp, new = set(), {start}
            while new:
                comp |= new
                left -= new
                new = {w for v in new for w in left if cm.entries[v][w] != 2}
            out.append(tuple(sorted(comp)))
    return out


def irreducible_components(cm: CoxeterMatrix):
    """Connected components of the diagram (edges where m_ij != 2)."""
    return _components(cm, range(cm.rank))


_KIND_CACHE = {}  # rows of a connected subdiagram -> (Kind, Gram signature)


def _component_verdict(cm: CoxeterMatrix, comp):
    """(Kind, Gram signature) of the connected subdiagram on the sorted
    generator indices `comp`, cached by its rows.

    Positive definite is spherical; positive semidefinite with a
    one-dimensional radical is Euclidean; anything else is non-affine
    (Humphreys, Reflection Groups and Coxeter Groups, ch. 2 and 6).
    """
    rows = tuple(tuple(cm.entries[i][j] for j in comp) for i in comp)
    verdict = _KIND_CACHE.get(rows)
    if verdict is None:
        gm = gram_matrix(CoxeterMatrix(len(comp), rows))
        signature = linalg.inertia(gm.field, gm.rows)
        pos, neg, zero = signature
        kind = (Kind.SPHERICAL if pos == len(comp) else
                Kind.AFFINE_EUCLIDEAN if neg == 0 and zero == 1 else Kind.NON_AFFINE)
        verdict = _KIND_CACHE[rows] = (kind, signature)
    return verdict


def _group_kind(kinds):
    """Non-affine if a component is, spherical if all are, else Euclidean."""
    kinds = set(kinds)
    if Kind.NON_AFFINE in kinds:
        return Kind.NON_AFFINE
    return Kind.SPHERICAL if kinds <= {Kind.SPHERICAL} else Kind.AFFINE_EUCLIDEAN


def classify_component(cm: CoxeterMatrix, subset) -> Kind:
    """Exact verdict for one irreducible component of the diagram."""
    subset = _generator_subset(cm, subset)
    if len(_components(cm, subset)) != 1:
        raise DomainError("subset %s is not a single irreducible component" % (subset,))
    return _component_verdict(cm, subset)[0]


def subset_is_affine(cm: CoxeterMatrix, subset) -> bool:
    """Affine = every irreducible component spherical or Euclidean.

    The empty subset (trivial group) counts as spherical, hence affine.
    """
    return all(_component_verdict(cm, c)[0] != Kind.NON_AFFINE
               for c in _components(cm, _generator_subset(cm, subset)))


def classify_group(cm: CoxeterMatrix) -> TypeVerdict:
    """Whole-group verdict with per-component kinds.

    minimal_nonaffine is decided on the maximal proper special subgroups
    S \\ {s} alone; that is sufficient because special subgroups of affine
    groups are affine.  The Gram form is block diagonal over the components
    (up to a permutation), so by Sylvester's law of inertia its signature is
    the sum of theirs.
    """
    comps = irreducible_components(cm)
    verdicts = [_component_verdict(cm, c) for c in comps]
    kinds = tuple((c, k) for c, (k, _) in zip(comps, verdicts))
    signature = tuple(map(sum, zip(*(sig for _, sig in verdicts))))
    kind = _group_kind(k for k, _ in verdicts)
    minimal = kind == Kind.NON_AFFINE and all(
        subset_is_affine(cm, tuple(x for x in range(cm.rank) if x != s))
        for s in range(cm.rank))
    return TypeVerdict(kind, kinds, minimal, signature)


def minimal_nonaffine_subsets(cm: CoxeterMatrix):
    """All inclusion-minimal generator subsets spanning a non-affine group,
    by increasing size, each size in lexicographic order.

    A minimal subset is connected: a subset is affine when its components
    are, so a disconnected non-affine subset has a smaller non-affine
    component.  A connected minimal subset of size k > 1, minus a generator
    that does not disconnect it (a leaf of a spanning tree), is a connected
    affine subset of size k - 1.  So the walk classifies, at each size, only
    the connected affine subsets of the size before grown by one neighbouring
    generator.  A candidate containing a minimal subset already found is
    skipped; every other one has only affine proper subsets, so it is
    minimal exactly when it is non-affine.
    """
    kind = _group_kind(_component_verdict(cm, c)[0] for c in irreducible_components(cm))
    if kind != Kind.NON_AFFINE:
        raise DomainError("group is %s; only non-affine groups have minimal "
                          "non-affine special subgroups" % kind.value)
    near = [[w for w in range(cm.rank) if w != v and cm.entries[v][w] != 2]
            for v in range(cm.rank)]
    out = []
    masks = []
    layer = [(v,) for v in range(cm.rank)]
    while layer:
        grown = set()
        for subset in layer:
            mask = sum(1 << v for v in subset)
            if any(m & mask == m for m in masks):
                continue
            if _component_verdict(cm, subset)[0] == Kind.NON_AFFINE:
                out.append(subset)
                masks.append(mask)
                continue
            for v in subset:
                grown.update(tuple(sorted(subset + (w,))) for w in near[v]
                             if not mask >> w & 1)
        layer = sorted(grown)
    require(out, "non-affine group without a minimal non-affine subset")
    return out
