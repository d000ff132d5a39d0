"""Reflection length: certified bounds, exact values, and experiments.

Three mechanisms cooperate:

* breadth-first search over the Cayley graph generated by the reflections of
  root depth <= D gives upper bounds l_R^(D) (non-increasing in D);
* parity (l_R = l_S mod 2) and the fixed-space codimension rank(M - I) give
  unconditional lower bounds, optionally joined by registered quasimorphism
  certificates;
* factorizations over the inversion set N(w) = {t : l(tw) < l(w)} give exact
  values: by Dyer's minimal-length theorem a shortest reflection
  factorization can always be drawn from N(w), which is finite (|N(w)| =
  l_S(w)).  Every witness is re-multiplied and checked, so upper bounds never
  depend on the theorem; only the Exact status does, and the test suite
  cross-checks it against Carter's equality on finite groups, closed forms on
  the infinite dihedral group, and plain BFS everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import CoxeterMatrix, Kind, classify_group
from .errors import CertificateError, DomainError, ResourceCapError
from .tits import (GroupElement, TitsGroup, canonical_key,
                   enumerate_reflections, fixed_space_codim)

_GROUP_CACHE = {}


def get_group(cm: CoxeterMatrix) -> TitsGroup:
    if cm not in _GROUP_CACHE:
        _GROUP_CACHE[cm] = TitsGroup(cm)
    return _GROUP_CACHE[cm]


@dataclass
class ReflenProtocol:
    """Stopping rules and caps for reflection-length computations."""

    d_start: int = 2
    d_step: int = 2
    d_cap: int = 6
    stable_increments: int = 2
    node_cap: int = 5_000_000
    use_exact_solver: bool = True
    solver_cap: int = 2_000_000
    threads: int = 1


@dataclass
class ReflLenResult:
    element: GroupElement
    upper: int | None
    lower: int
    status: str               # "Exact" | "Bracketed"
    witness: tuple | None     # reflection words whose product is the element
    depth_used: int | None
    len_s: int
    lower_sources: tuple = ()
    capped: bool = False

    def __post_init__(self):
        if self.upper is not None:
            _require(self.lower <= self.upper, "lower bound exceeds upper bound")
            _require(self.upper % 2 == self.len_s % 2, "parity violation")
            _require((self.status == "Exact") == (self.lower == self.upper),
                     "status %s with bounds %d..%d" % (self.status, self.lower,
                                                       self.upper))
            if self.witness is not None:
                _require(len(self.witness) == self.upper,
                         "witness length differs from the upper bound")
        else:
            _require(self.status == "Bracketed",
                     "no upper bound but status %s" % self.status)


def _require(ok, message):
    if not ok:
        raise CertificateError(message)


@dataclass
class GrowthRecord:
    base_word: tuple
    metric_name: str
    powers: list  # [(k, ReflLenResult), ...]


def parity_lower(len_s: int) -> int:
    if len_s == 0:
        return 0
    return 1 if len_s % 2 else 2


def combine_lower(len_s: int, *bounds):
    """Largest candidate bound, rounded up to the parity of l_S."""
    lo = max(b for b in bounds if b is not None)
    if lo % 2 != len_s % 2:
        lo += 1
    return lo


# -- exact solver over the inversion set -------------------------------------


def inversion_reflections(group: TitsGroup, reduced_word):
    """The l(w) reflections inverting w, from prefixes of a reduced word."""
    out = []
    seen = set()
    prefix = back = group.identity
    for s in reduced_word:
        gen = group.generators[s]
        prefix = prefix * gen           # s_0 ... s_j
        t = prefix * back               # s_0 ... s_j s_(j-1) ... s_0
        _require(t.key not in seen, "inversions of a reduced word must be distinct")
        seen.add(t.key)
        out.append(t)
        back = gen * back               # s_j ... s_0
    return out


class _CapExceeded(Exception):
    pass


def min_product_length(group: TitsGroup, g: GroupElement, factors, n_max: int,
                       cap=2_000_000):
    """Least n <= n_max with g a product of n of the given involutions.

    Meet-in-the-middle over layers of half products, stepping by two from the
    parity minimum (every factor is a reflection, so products of n factors
    have word parity n).  Returns (n, factor index tuple), or None when no
    factorization of length <= n_max exists; raises _CapExceeded when the
    stored-element cap is hit first.
    """
    if g.is_identity():
        return 0, ()
    # the products' words are never read, so the layers carry none
    factors = [GroupElement(t.gram, t.packed) for t in factors]
    # layer k: key -> (factor index tuple, element, key of its prefix in k-1)
    layers = {1: {t.key: ((i,), t, None) for i, t in enumerate(factors)}}
    # inverses of layer elements, built on first probe: every factor is an
    # involution, so (x t)^-1 = t x^-1
    inverses = {1: {t.key: t for t in factors}}
    stored = len(factors)

    def extend(k):
        nonlocal stored
        if k in layers:
            return
        extend(k - 1)
        new = {}
        for key, (wit, x, _) in layers[k - 1].items():
            for i, t in enumerate(factors):
                y = x * t
                y_key = y.key
                if y_key not in new:
                    new[y_key] = (wit + (i,), y, key)
                    stored += 1
                    if stored > cap:
                        raise _CapExceeded
        layers[k] = new
        inverses[k] = {}

    def inverse(k, key):
        inv = inverses[k].get(key)
        if inv is None:
            wit, _, parent = layers[k][key]
            inv = factors[wit[-1]] * inverse(k - 1, parent)
            inverses[k][key] = inv
        return inv

    n = 1 if n_max % 2 else 2
    while n <= n_max:
        a = n // 2
        b = n - a
        extend(max(a, 1))
        extend(b)
        if a == 0:
            hit = layers[b].get(g.key)
            if hit is not None:
                return n, hit[0]
        else:
            for key, (wit_a, _, _) in layers[a].items():
                hit = layers[b].get((inverse(a, key) * g).key)
                if hit is not None:
                    return n, wit_a + hit[0]
        n += 2
    return None


def exact_reflection_length(group: TitsGroup, g: GroupElement, cap=2_000_000,
                            reduced_word=None):
    """(value, witness reflection elements) or None if the cap is hit.

    Searches products of inversions of g, read off `reduced_word` (a reduced
    word for g, computed when not given).  Termination within l_S(g) factors
    is guaranteed by Dyer's theorem; exceeding l_S(g) would falsify it and
    raises instead of returning a wrong value.
    """
    if g.is_identity():
        return 0, ()
    rw = group.reduced_word(g) if reduced_word is None else tuple(reduced_word)
    invs = inversion_reflections(group, rw)
    try:
        hit = min_product_length(group, g, invs, len(rw), cap)
    except _CapExceeded:
        return None
    if hit is None:
        raise CertificateError(
            "no inversion factorization within l_S; this contradicts the "
            "minimal-length theorem and indicates a bug")
    value, indices = hit
    return _witness(group, invs, indices, g)


def _product(group, elements):
    out = group.identity
    for e in elements:
        out = out * e
    return out


def _witness(group, invs, indices, g):
    parts = [invs[i] for i in indices]
    check = _product(group, parts)
    _require(check.key == g.key, "witness product must equal the element")
    return len(indices), tuple(parts)


# -- BFS over truncated reflection sets ---------------------------------------


def reflection_distances(group: TitsGroup, reflections, targets, level_cap,
                         node_cap=5_000_000):
    """BFS distances from the identity in Cayley(W, R_D), restricted to targets.

    Returns (dist: key -> (distance, witness index tuple), capped).  Frontier
    elements are expanded in sorted key order, so the result is deterministic.
    """
    dist = {group.identity.key: (0, ())}
    frontier = {group.identity.key: group.identity}
    remaining = set(targets) - {group.identity.key}
    capped = False
    level = 0
    while frontier and remaining and level < level_cap:
        level += 1
        new_frontier = {}
        for x in sorted(frontier.values(), key=canonical_key):
            base_wit = dist[x.key][1]
            for i, r in enumerate(reflections):
                y = x * r.element
                if y.key in dist or y.key in new_frontier:
                    continue
                new_frontier[y.key] = y
                dist[y.key] = (level, base_wit + (i,))
                remaining.discard(y.key)
                if len(dist) > node_cap:
                    capped = True
                    return dist, capped
        frontier = new_frontier
    return dist, capped


def standard_ball(group: TitsGroup, L: int, node_cap=5_000_000):
    """Elements of standard length <= L as an insertion-ordered dict."""
    out = {group.identity.key: (group.identity, 0)}
    frontier = {group.identity.key: group.identity}
    for level in range(1, L + 1):
        new_frontier = {}
        for x in sorted(frontier.values(), key=canonical_key):
            for s, gen in enumerate(group.generators):
                y = x * gen
                if y.key in out or y.key in new_frontier:
                    continue
                new_frontier[y.key] = y
                out[y.key] = (y, level)
                if len(out) > node_cap:
                    raise ResourceCapError("standard ball exceeded %d nodes" % node_cap,
                                           partial=out)
        frontier = new_frontier
    return out


@dataclass
class BallResult:
    cm: CoxeterMatrix
    L: int
    D: int
    results: dict  # key -> ReflLenResult
    capped: bool = False


def reflen_ball(cm: CoxeterMatrix, L: int, D: int, node_cap=5_000_000,
                threads: int = 1) -> BallResult:
    """l_R^(D) over the ball of standard length <= L.

    Upper bounds are BFS distances over reflections of root depth <= D;
    lower bounds are parity and fixed-space codimension.  Elements the BFS
    could not settle under the node cap are reported with upper = None.
    """
    group = get_group(cm)
    ball = standard_ball(group, L, node_cap)
    reflections = enumerate_reflections(group.gram, D, threads=threads)
    dist, capped = reflection_distances(group, reflections, ball.keys(), L, node_cap)
    results = {}
    for key, (elt, len_s) in ball.items():
        hit = dist.get(key)
        codim = fixed_space_codim(elt)
        lower = combine_lower(len_s, parity_lower(len_s), codim)
        sources = ("parity", "fixed-space")
        if hit is None:
            results[key] = ReflLenResult(elt, None, lower, "Bracketed", None, D,
                                         len_s, sources, capped=True)
        else:
            upper, wit_idx = hit
            witness = tuple(reflections[i].word for i in wit_idx)
            status = "Exact" if lower == upper else "Bracketed"
            results[key] = ReflLenResult(elt, upper, lower, status,
                                         witness, D, len_s, sources)
    return BallResult(cm, L, D, results, capped)


# -- per-element protocol ------------------------------------------------------


def reflen_element(cm: CoxeterMatrix, word, protocol: ReflenProtocol = None,
                   certificates=()) -> ReflLenResult:
    """Certified reflection length of the element given by a generator word.

    With the exact solver enabled (default) the result is Exact whenever the
    solver finishes under its cap; otherwise upper bounds l_R^(D) are
    computed for increasing truncation depths D under the protocol's
    stopping rule, and the result is Bracketed unless the unconditional
    lower bounds happen to meet the upper bound.
    """
    protocol = protocol or ReflenProtocol()
    group = get_group(cm)
    g = group.element(tuple(word))
    reduced = group.reduced_word(g)
    len_s = len(reduced)
    codim = fixed_space_codim(g)
    cert_bounds = []
    sources = ["parity", "fixed-space"]
    for cert in certificates:
        b = cert.lower_bound_for_word(cm, tuple(word))
        if b is not None:
            cert_bounds.append(b)
            sources.append("quasimorphism:%s" % cert.pattern_text())
    lower = combine_lower(len_s, parity_lower(len_s), codim, *cert_bounds)

    if protocol.use_exact_solver:
        solved = exact_reflection_length(group, g, cap=protocol.solver_cap,
                                         reduced_word=reduced)
        if solved is not None:
            value, parts = solved
            _require(value >= lower, "exact value below a certified lower bound")
            witness = tuple(p.word for p in parts)
            return ReflLenResult(g, value, value, "Exact", witness, None, len_s,
                                 tuple(sources) + ("inversion-complete",))

    # truncated-reflection ladder with the two-stable-increments stopping rule
    upper = None
    witness = None
    stable = 0
    D = protocol.d_start
    depth_used = D
    capped = False
    while D <= protocol.d_cap:
        reflections = enumerate_reflections(group.gram, D, threads=protocol.threads)
        factors = [r.element for r in reflections]
        try:
            hit = min_product_length(group, g, factors, len_s, protocol.node_cap)
        except _CapExceeded:
            capped = True
            hit = None
        if hit is not None:
            new_upper = hit[0]
            if upper is not None:
                _require(new_upper <= upper, "l_R^(D) must be non-increasing in D")
            if upper is not None and new_upper == upper:
                stable += 1
            else:
                stable = 0
            upper = new_upper
            witness = tuple(reflections[i].word for i in hit[1])
            depth_used = D
            if stable >= protocol.stable_increments:
                break
        D += protocol.d_step
    status = "Exact" if upper is not None and lower == upper else "Bracketed"
    return ReflLenResult(g, upper, lower, status, witness, depth_used, len_s,
                         tuple(sources), capped=capped)


def carter_length_finite(cm: CoxeterMatrix, word) -> int:
    """Reflection length in a finite group: the fixed-space codimension.

    Classical equality for finite reflection groups, used as an independent
    oracle against the BFS/solver path.
    """
    if classify_group(cm).kind != Kind.SPHERICAL:
        raise DomainError("Carter's equality applies to spherical groups only")
    group = get_group(cm)
    return fixed_space_codim(group.element(tuple(word)))


@dataclass
class AffineBoundRecord:
    cm: CoxeterMatrix
    L: int
    euclidean_dim: int       # n: rank minus number of components
    bound: int               # 2n
    max_value: int
    attained: bool
    value_counts: dict       # value -> number of ball elements
    ball_size: int


def affine_bound_experiment(cm: CoxeterMatrix, L: int,
                            protocol: ReflenProtocol = None) -> AffineBoundRecord:
    """Maximum exact reflection length over the ball of radius L.

    Requires every component Euclidean; checks the 2n ceiling on every
    element (a violation would falsify the experiment, not flag it) and
    raises CertificateError when it fails.
    """
    protocol = protocol or ReflenProtocol()
    verdict = classify_group(cm)
    if any(k != Kind.AFFINE_EUCLIDEAN for _, k in verdict.components):
        raise DomainError("affine bound experiment needs every component Euclidean")
    n = cm.rank - len(verdict.components)
    group = get_group(cm)
    ball = standard_ball(group, L, protocol.node_cap)
    counts = {}
    exact_seen = 0
    for key, (elt, len_s) in ball.items():
        solved = exact_reflection_length(group, elt, cap=protocol.solver_cap)
        if solved is None:
            continue
        value, _ = solved
        exact_seen += 1
        _require(value <= 2 * n,
                 "element of reflection length %d exceeds the affine maximum %d"
                 % (value, 2 * n))
        counts[value] = counts.get(value, 0) + 1
    if not exact_seen:
        raise DomainError("no exact values obtained at L=%d" % L)
    max_value = max(counts)
    return AffineBoundRecord(cm, L, n, 2 * n, max_value, max_value == 2 * n,
                             dict(sorted(counts.items())), len(ball))


def growth_profile(cm: CoxeterMatrix, base_word, K: int,
                   protocol: ReflenProtocol = None,
                   certificates=()) -> GrowthRecord:
    """Reflection length of g, g^2, ..., g^K."""
    if K < 1:
        raise DomainError("K must be >= 1")
    base_word = tuple(base_word)
    powers = []
    for k in range(1, K + 1):
        res = reflen_element(cm, base_word * k, protocol, certificates)
        powers.append((k, res))
    return GrowthRecord(base_word, "reflection", powers)
