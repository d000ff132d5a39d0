"""Coxeter matrices: parsing, Gram forms, and exact type classification.

Bond orders are stored as ints with 0 denoting an infinite order (the same
sentinel used by the structured matrix-file format).  Classification verdicts
are decided purely by the exact signature of the Gram matrix, computed by one
symmetric elimination over the field (`linalg.inertia`).
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import CertificateError, DomainError, InputError, ResourceCapError
from .exactfield import RealCyclotomicField, check_degree

INF = 0  # sentinel bond order for m_ij = infinity

# the largest rank accepted, checked before a matrix of that rank is built
MAX_RANK = 64


def _check_rank(rank):
    if rank > MAX_RANK:
        raise ResourceCapError("rank %d is above the cap of %d" % (rank, MAX_RANK))


def order_text(m: int) -> str:
    return "inf" if m == INF else str(m)


@dataclass(frozen=True)
class CoxeterMatrix:
    """The combinatorial datum (S, m_ij); entries symmetric, m_ii = 1."""

    rank: int
    entries: tuple  # tuple of tuples of ints, 0 = infinity

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
        subset = tuple(subset)
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
    default to 2; the value "inf" denotes an infinite bond order.
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


@dataclass(frozen=True)
class GramMatrix:
    """The bilinear form B with B_ii = 1 and B_ij = -cos(pi/m_ij)."""

    cm: CoxeterMatrix
    field: RealCyclotomicField
    entries: tuple  # tuple of tuples of ExactScalar


def gram_matrix(cm: CoxeterMatrix) -> GramMatrix:
    """B over the smallest field that holds it, Q(2cos(pi/N')), N' the lcm of
    the finite bond orders >= 4 (2 when there are none): cos(pi/2) = 0 and
    cos(pi/3) = 1/2 are rational.  The degree cap reads the report field
    Q(2cos(pi/N)), N = cm.conductor(), which holds this one."""
    check_degree(cm.conductor())
    field = RealCyclotomicField(_lcm_of_bonds(cm, 4))
    one = field.one
    minus_one = field.from_rational(-1)
    rows = []
    for i in range(cm.rank):
        row = []
        for j in range(cm.rank):
            if i == j:
                row.append(one)
            else:
                m = cm.entries[i][j]
                row.append(minus_one if m == INF else -field.cos_pi_over(m))
        rows.append(tuple(row))
    return GramMatrix(cm, field, tuple(rows))


class Kind(enum.Enum):
    SPHERICAL = "Spherical"
    AFFINE_EUCLIDEAN = "AffineEuclidean"
    NON_AFFINE = "NonAffine"


@dataclass(frozen=True)
class TypeVerdict:
    kind: Kind
    components: tuple  # ((subset tuple, Kind), ...)
    minimal_nonaffine: bool
    signature: tuple  # (positives, negatives, zeros) of the whole Gram form


def irreducible_components(cm: CoxeterMatrix):
    """Connected components of the diagram (edges where m_ij != 2)."""
    seen = [False] * cm.rank
    out = []
    for start in range(cm.rank):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in range(cm.rank):
                if w != v and not seen[w] and cm.entries[v][w] != 2:
                    seen[w] = True
                    stack.append(w)
        out.append(tuple(sorted(comp)))
    return sorted(out)


def canonical_diagram(cm: CoxeterMatrix, subset=None):
    """Entry matrix of the subdiagram, minimized over generator permutations.

    Only used as a cache/lookup key; verdicts are permutation invariant
    because permuting generators conjugates the Gram form by a permutation.
    """
    idx = tuple(range(cm.rank)) if subset is None else tuple(subset)
    k = len(idx)
    best = None
    for perm in itertools.permutations(range(k)):
        flat = tuple(cm.entries[idx[perm[i]]][idx[perm[j]]]
                     for i in range(k) for j in range(i + 1, k))
        if best is None or flat < best:
            best = flat
    return (k, best)


_KIND_CACHE = {}  # canonical diagram of rank <= 5 -> (Kind, signature)


def _classify_entries(entries):
    """Verdict and Gram signature of a connected diagram.

    Positive definite is spherical; positive semidefinite with a
    one-dimensional radical is Euclidean; anything else is non-affine
    (Humphreys, Reflection Groups and Coxeter Groups, ch. 2 and 6).
    """
    cm = CoxeterMatrix.make(entries)
    gm = gram_matrix(cm)
    signature = linalg.inertia(gm.field, gm.entries)
    pos, neg, zero = signature
    if pos == cm.rank:
        return Kind.SPHERICAL, signature
    if neg == 0 and zero == 1:
        return Kind.AFFINE_EUCLIDEAN, signature
    return Kind.NON_AFFINE, signature


def _component_verdict(cm: CoxeterMatrix, subset):
    """(Kind, Gram signature) of one irreducible component of the diagram."""
    subset = tuple(sorted(subset))
    comps = irreducible_components(cm.submatrix(subset))
    if len(comps) != 1:
        raise DomainError("subset %s is not a single irreducible component" % (subset,))
    if len(subset) <= 5:
        key = canonical_diagram(cm, subset)
        if key not in _KIND_CACHE:
            _KIND_CACHE[key] = _classify_entries(cm.submatrix(subset).entries)
        return _KIND_CACHE[key]
    return _classify_entries(cm.submatrix(subset).entries)


def classify_component(cm: CoxeterMatrix, subset) -> Kind:
    """Exact verdict for one irreducible component of the diagram."""
    return _component_verdict(cm, subset)[0]


def subset_is_affine(cm: CoxeterMatrix, subset) -> bool:
    """Affine = every irreducible component spherical or Euclidean.

    The empty subset (trivial group) counts as spherical, hence affine.
    """
    subset = tuple(sorted(subset))
    if not subset:
        return True
    sub = cm.submatrix(subset)
    for comp in irreducible_components(sub):
        global_comp = tuple(subset[i] for i in comp)
        if classify_component(cm, global_comp) == Kind.NON_AFFINE:
            return False
    return True


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
    if any(k == Kind.NON_AFFINE for _, k in kinds):
        kind = Kind.NON_AFFINE
    elif all(k == Kind.SPHERICAL for _, k in kinds):
        kind = Kind.SPHERICAL
    else:
        kind = Kind.AFFINE_EUCLIDEAN
    minimal = False
    if kind == Kind.NON_AFFINE:
        full = range(cm.rank)
        minimal = all(subset_is_affine(cm, tuple(x for x in full if x != s))
                      for s in range(cm.rank))
    return TypeVerdict(kind, kinds, minimal, signature)


def minimal_nonaffine_subsets(cm: CoxeterMatrix):
    """All inclusion-minimal generator subsets spanning a non-affine group.

    Subsets are walked by increasing size, and a subset containing a minimal
    one already found is skipped.  Every other subset is minimal exactly when
    it is non-affine: a non-affine proper subset would contain a smaller
    minimal one, because supersets of non-affine subsets are non-affine.
    """
    verdict = classify_group(cm)
    if verdict.kind != Kind.NON_AFFINE:
        raise DomainError("group is %s; only non-affine groups have minimal "
                          "non-affine special subgroups" % verdict.kind.value)
    out = []
    masks = []
    for size in range(1, cm.rank + 1):
        for subset in itertools.combinations(range(cm.rank), size):
            mask = sum(1 << i for i in subset)
            if any(m & mask == m for m in masks):
                continue
            if not subset_is_affine(cm, subset):
                out.append(subset)
                masks.append(mask)
    if not out:
        raise CertificateError("non-affine group without a minimal non-affine subset")
    return out
