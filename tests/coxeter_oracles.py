"""Oracle for the classifier: the path the package took before it worked on
generator index sets.

* `irreducible_components(cm)` is a depth-first search over the whole matrix;
  subsets are classified on `cm.submatrix(subset)`, a validated matrix built
  per subset.
* `component_verdict` caches (Kind, signature) by `canonical_diagram` for
  components of rank <= 5 and classifies larger ones uncached.
* `minimal_nonaffine_subsets` walks every subset by size in
  `itertools.combinations` order, skipping supersets of those found.
* Signatures are those of B by the `ExactScalar` elimination
  (`linalg_oracles.scalar_inertia`), on B as `scalar_gram` builds it: the
  Gram construction of the package before it built 2B over Z[theta].
"""

import itertools
from fractions import Fraction

from coxlen.catalog import canonical_diagram
from coxlen.coxeter import INF, CoxeterMatrix, Kind, TypeVerdict, gram_matrix
from coxlen.errors import CertificateError, DomainError
from coxlen.exactfield import RealCyclotomicField
from linalg_oracles import scalar_inertia


def scalar_gram(cm, N=None):
    """(field, B): B_ii = 1 and B_ij = -cos(pi/m_ij) as rows of ExactScalar
    over Q(2cos(pi/N)), by default the field `gram_matrix` picks.  cos(pi/2)
    = 0, cos(pi/3) = 1/2, cos(pi/inf) = 1, and otherwise cos(pi/m) =
    D_(N/m)(theta)/2 by the Dickson recurrence D_(j+1) = theta D_j - D_(j-1)
    in ExactScalar arithmetic."""
    field = gram_matrix(cm).field if N is None else RealCyclotomicField(N)
    half = field.from_rational(Fraction(1, 2))

    def cos_pi_over(m):
        if m in (2, 3, INF):
            return field.from_rational({2: 0, 3: Fraction(1, 2), INF: 1}[m])
        prev, cur = field.from_rational(2), field.theta
        for _ in range(field.N // m - 1):
            prev, cur = cur, field.theta * cur - prev
        return cur * half

    return field, tuple(tuple(field.one if i == j else -cos_pi_over(m)
                              for j, m in enumerate(row))
                        for i, row in enumerate(cm.entries))

_CACHE = {}  # canonical diagram of rank <= 5 -> (Kind, signature)


def irreducible_components(cm):
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


def _classify_entries(entries):
    cm = CoxeterMatrix.make(entries)
    signature = scalar_inertia(*scalar_gram(cm))
    pos, neg, zero = signature
    if pos == cm.rank:
        return Kind.SPHERICAL, signature
    if neg == 0 and zero == 1:
        return Kind.AFFINE_EUCLIDEAN, signature
    return Kind.NON_AFFINE, signature


def component_verdict(cm, subset):
    subset = tuple(sorted(subset))
    if len(irreducible_components(cm.submatrix(subset))) != 1:
        raise DomainError("subset %s is not a single irreducible component" % (subset,))
    if len(subset) <= 5:
        key = canonical_diagram(cm, subset)
        if key not in _CACHE:
            _CACHE[key] = _classify_entries(cm.submatrix(subset).entries)
        return _CACHE[key]
    return _classify_entries(cm.submatrix(subset).entries)


def classify_component(cm, subset):
    return component_verdict(cm, subset)[0]


def subset_is_affine(cm, subset):
    subset = tuple(sorted(subset))
    if not subset:
        return True
    for comp in irreducible_components(cm.submatrix(subset)):
        global_comp = tuple(subset[i] for i in comp)
        if classify_component(cm, global_comp) == Kind.NON_AFFINE:
            return False
    return True


def classify_group(cm):
    comps = irreducible_components(cm)
    verdicts = [component_verdict(cm, c) for c in comps]
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
        minimal = all(subset_is_affine(cm, tuple(x for x in range(cm.rank) if x != s))
                      for s in range(cm.rank))
    return TypeVerdict(kind, kinds, minimal, signature)


def minimal_nonaffine_subsets(cm):
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
