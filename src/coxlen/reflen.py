"""Reflection length: certified bounds, exact values, and experiments.

Three mechanisms cooperate:

* shortest products of reflections of root depth <= D give upper bounds
  l_R^(D) (non-increasing in D);
* parity (l_R = l_S mod 2) and the fixed-space codimension rank(M - I) give
  unconditional lower bounds, optionally joined by registered quasimorphism
  certificates;
* a search over any reflection set containing the inversion set N(w) =
  {t : l(tw) < l(w)} gives the exact value: by Dyer's minimal-length theorem
  a shortest reflection factorization can always be drawn from N(w), and
  |N(w)| = l_S(w).  The exact solver searches N(w); the affine experiment
  searches the reflections of root depth <= L - 1 once for the ball of
  radius L, as the j-th inversion of a reduced word s_1 ... s_l reflects
  the root s_1 ... s_(j-1)(alpha_(s_j)), which j - 1 simple reflections
  reach from a simple root keeping it positive.  Every witness is
  re-multiplied and checked, so upper bounds never depend on the theorem;
  only the Exact status does, and the test suite cross-checks it against
  Carter's equality on finite groups, closed forms on the infinite dihedral
  group, and plain BFS.

Both the upper bounds and the exact values come from one search primitive,
`min_product_length`: a meet-in-the-middle search over layers of half
products, shared by every target of a call.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tits
from .coxeter import CoxeterMatrix, Kind, classify_group
from .errors import DomainError, ResourceCapError, require
from .tits import GroupElement, TitsGroup, canonical_key, fixed_space_codim

# the one cap of every search: elements stored by `min_product_length` and
# the standard ball, unless the caller gives another
NODE_CAP = 5_000_000

_GROUP_CACHE = {}
# group -> (depth cap, enumerate_reflections list): the deepest made so far
_REFLECTION_CACHE = {}


def get_group(cm: CoxeterMatrix) -> TitsGroup:
    if cm not in _GROUP_CACHE:
        _GROUP_CACHE[cm] = TitsGroup(cm)
    return _GROUP_CACHE[cm]


def get_reflections(group: TitsGroup, D: int):
    """The reflections of root depth <= D, as `enumerate_reflections` lists
    them: the depth <= D prefix of the deepest enumeration made so far for
    the group, enumerating again only for a deeper D."""
    cached = _REFLECTION_CACHE.get(group.cm)
    if cached is None or cached[0] < D:
        cached = D, tits.enumerate_reflections(group.gram, D)
        _REFLECTION_CACHE[group.cm] = cached
    return [r for r in cached[1] if r.depth <= D]


# the truncated ladder's schedule: D = 2, 4, ... up to ReflenProtocol.d_cap,
# stopping once the upper bound has held for two further rungs
_D_START = 2
_D_STEP = 2
_STABLE_INCREMENTS = 2


@dataclass
class ReflenProtocol:
    """Caps for reflection-length computations: `d_cap` is the deepest rung
    of the truncated ladder, and `node_cap` bounds every search (the exact
    solver, each ladder rung, and the ball and its shared search)."""

    d_cap: int = 6
    node_cap: int = NODE_CAP
    use_exact_solver: bool = True


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
            require(self.lower <= self.upper, "lower bound exceeds upper bound")
            require(self.upper % 2 == self.len_s % 2, "parity violation")
            require((self.status == "Exact") == (self.lower == self.upper),
                    "status %s with bounds %d..%d", self.status, self.lower,
                    self.upper)
            if self.witness is not None:
                require(len(self.witness) == self.upper,
                        "witness length differs from the upper bound")
        else:
            require(self.status == "Bracketed",
                    "no upper bound but status %s", self.status)


def _check_caps(D, node_cap):
    if D < 0:
        raise DomainError("reflection depth cap must be >= 0, got %d" % D)
    if node_cap < 0:
        raise DomainError("node cap must be >= 0, got %d" % node_cap)


@dataclass
class GrowthRecord:
    base_word: tuple
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
    """The l(w) reflections inverting w, from the prefixes of a reduced word
    s_1 ... s_l: the j-th is the `tits.reflection` of the root
    s_1 ... s_(j-1)(alpha_(s_j)), column s_j of the prefix matrix, with
    word s_1 ... s_j s_(j-1) ... s_1."""
    out = []
    seen = set()
    prefix = group.identity
    for s in reduced_word:
        t = tits.reflection(group.gram, tits.image_root(prefix, s),
                            prefix.word + (s,) + prefix.word[::-1])
        require(t.key not in seen, "inversions of a reduced word must be distinct")
        seen.add(t.key)
        out.append(t)
        prefix = prefix * group.generators[s]
    return out


def min_product_length(group: TitsGroup, targets, factors, cap=NODE_CAP):
    """Shortest factorizations of several targets over the given involutions.

    `targets` lists (element, n_max) pairs.  One meet-in-the-middle search
    serves them all: the layers of half products are built once and shared,
    and each target is probed at n = its parity minimum, +2, ..., n_max
    (every factor is a reflection, so products of n factors have word
    parity n).  Returns (hits, capped): hits[i] is (n, factor index tuple)
    for the least such n, or None when target i has no factorization of
    length <= its n_max.  Once the stored-element cap is hit, every target
    not yet settled gets None and capped is True.

    Row keys.  A layer element x is stored as its row key K(x) = 1^T M(x)
    (`tits.row_key`), which is injective on W by Tits' theorem (see the
    `tits` module docstring), with its least factor index tuple and its
    prefix's key; it is never a matrix.  K(x t) = K(x) M(t),
    so a layer is extended by one row product per element and factor.

    Witness contract: the index tuple is the lexicographically least one of
    length n.  Layer k holds every product of k factors, inserted in the
    order of its least k-tuple, which is the tuple it stores (induction on
    k); a probe at n = a + b walks layer a in that order and takes the first
    x with x^-1 g in layer b, so the hit is the least n-tuple whatever the
    split, and a target's hit does not depend on the other targets.  Every
    factor is an involution, so every layer is closed under inversion and
    the probe tests g^-1 x instead, whose key K(g^-1) M(x) is carried down
    the prefixes of layer a (a layer lists the children of each prefix
    together, so each prefix costs one row product per walk).  Only on a
    hit is x^-1 g formed as a matrix, to read its stored tuple in layer b.

    When a single target probes an odd n = 2a + 1 >= 3 and layer a + 1 is
    not built yet, it is not built at all: g^-1 x lies in layer a + 1
    exactly when g^-1 x t_j lies in layer a for some j, and the stored
    witness of x^-1 g there would be the least j with t_j x^-1 g in layer a
    followed by that element's witness in layer a.  The children of each
    prefix are tested in turn, which stores nothing beyond layer a and
    costs at most the |layer a| * |factors| row products that building
    layer a + 1 costs.
    """
    hits = []
    pending = []        # (target index, element, n_max) still to settle
    for i, (g, n_max) in enumerate(targets):
        if g.is_identity():
            hits.append((0, ()))
        else:
            hits.append(None)
            pending.append((i, g, n_max))
    n_top = max((n_max for _, _, n_max in pending), default=0)
    field = group.field
    row_mul = tits.row_mul
    row_factors = [tits.row_factor(t) for t in factors]
    factor_keys = [tits.row_key(t) for t in factors]
    # layer k: row key -> (least factor index tuple, row key of its prefix)
    layers = {1: {key: ((i,), None) for i, key in enumerate(factor_keys)}}
    stored = len(factors)
    inverse_keys = {}   # target index -> K(g^-1), made on its first walk of a layer

    def extend(k):
        """Build the layers up to k; False when the cap is hit first."""
        nonlocal stored
        for j in range(len(layers) + 1, k + 1):
            new = {}
            for key, (wit, _) in layers[j - 1].items():
                for i, factor in enumerate(row_factors):
                    y = row_mul(key, factor, field)
                    if y not in new:
                        new[y] = (wit + (i,), key)
                        stored += 1
                        if stored > cap:
                            return False
            layers[j] = new
        return True

    def first_hit(start, a, b, walk):
        """The stored tuple of the first x in layer a with g^-1 x in layer b
        (with g^-1 x t_j in layer a for some j when walking), where start =
        K(g^-1); or None."""
        last = [None] * a   # level k: (key, K(g^-1 y)) of the last prefix y

        def shifted(k, key):
            if k == 0:
                return start
            memo = last[k]
            if memo is not None and memo[0] is key:
                return memo[1]
            wit, parent = layers[k][key]
            value = row_mul(shifted(k - 1, parent), row_factors[wit[-1]], field)
            last[k] = key, value
            return value

        inner = layers[a if walk else b]
        for wit, parent in layers[a].values():
            y = row_mul(shifted(a - 1, parent), row_factors[wit[-1]], field)
            if walk:
                for factor in row_factors:
                    if row_mul(y, factor, field) in inner:
                        return wit
            elif y in inner:
                return wit
        return None

    def witness_in(k, g, wit_a, walk):
        """The stored tuple of x^-1 g in layer k (k + 1 when walking), where
        x is the product of the factors at wit_a."""
        y = GroupElement(group.gram, g.packed)
        for i in wit_a:
            y = factors[i] * y
        if walk:
            factor = tits.row_factor(y)
            for j, key in enumerate(factor_keys):
                hit = layers[k].get(row_mul(key, factor, field))
                if hit is not None:
                    return (j,) + hit[0]
        else:
            hit = layers[k].get(tits.row_key(y))
            if hit is not None:
                return hit[0]
        require(False, "a row-key hit has no stored witness")

    for n in range(1, n_top + 1):
        probing = [p for p in pending if p[2] >= n and (p[2] - n) % 2 == 0]
        if not probing:
            continue
        a = n // 2
        b = n - a
        walk = len(probing) == 1 and 0 < a < b and b not in layers
        if not extend(a if walk else b):
            return hits, True
        for i, g, _ in probing:
            if a == 0:
                hit = layers[b].get(tits.row_key(g))
                if hit is not None:
                    hits[i] = n, hit[0]
                continue
            start = inverse_keys.get(i)
            if start is None:
                start = inverse_keys[i] = group.inverse_row_key(g)
            wit_a = first_hit(start, a, b, walk)
            if wit_a is not None:
                hits[i] = n, wit_a + witness_in(a if walk else b, g, wit_a, walk)
        pending = [p for p in pending if hits[p[0]] is None]
    return hits, False


def exact_reflection_length(group: TitsGroup, g: GroupElement, cap=NODE_CAP,
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
    (hit,), capped = min_product_length(group, [(g, len(rw))], invs, cap)
    if capped:
        return None
    require(hit is not None, "no inversion factorization within l_S; this "
            "contradicts the minimal-length theorem and indicates a bug")
    value, indices = hit
    return _witness(group, invs, indices, g)


def _witness(group, factors, indices, g):
    """(length, factors at `indices`), once their product is checked to be g."""
    parts = [factors[i] for i in indices]
    check = group.identity
    for part in parts:
        check = check * part
    require(check.key == g.key, "witness product must equal the element")
    return len(indices), tuple(parts)


# -- truncated reflection sets -----------------------------------------------


def reflection_distances(group: TitsGroup, reflections, targets, level_cap,
                         node_cap=NODE_CAP):
    """Distances in Cayley(W, reflections) of the target keys, where at most
    level_cap.

    Returns (dist: key -> (distance, witness index tuple), capped).  The
    program calls `min_product_length` directly; this name stays because the
    benchmark (`perfbench/`) still refers to it.
    """
    elements = [GroupElement(group.gram, key) for key in targets]
    # a target's distance has the parity of its length: probe both parities
    hits, capped = min_product_length(
        group, [(e, n) for e in elements for n in (level_cap, level_cap - 1)],
        [r.element for r in reflections], node_cap)
    dist = {}
    for e, hit, other in zip(elements, hits[::2], hits[1::2]):
        hit = hit or other
        if hit is not None:
            dist[e.key] = hit
    return dist, capped


def standard_ball(group: TitsGroup, L: int, node_cap=NODE_CAP):
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
                    raise ResourceCapError("standard ball exceeded %d nodes" % node_cap)
        frontier = new_frontier
    return out


@dataclass
class BallResult:
    cm: CoxeterMatrix
    L: int
    D: int
    results: dict  # key -> ReflLenResult
    capped: bool = False


def _ball_search(cm: CoxeterMatrix, L: int, D: int, node_cap=NODE_CAP):
    """l_R^(D) upper bounds over the ball of standard length <= L.

    One `min_product_length` search over the reflections of root depth <= D,
    shared by every ball element and bounded by its l_S (every simple
    reflection has depth 0, so l_R^(D) <= l_S); witnesses are its
    meet-in-the-middle factorizations, each re-multiplied and checked against
    its element.  `node_cap` bounds the ball and the elements the search
    stores.  Returns ([(key, element, l_S, upper, witness factors)], capped),
    in ball order; upper and the factors are None where the search could not
    settle the element under the cap.
    """
    _check_caps(D, node_cap)
    if L < 0:
        raise DomainError("ball radius must be >= 0, got %d" % L)
    group = get_group(cm)
    ball = standard_ball(group, L, node_cap)
    factors = [r.element for r in get_reflections(group, D)]
    hits, capped = min_product_length(group, list(ball.values()), factors, node_cap)
    rows = []
    for (key, (elt, len_s)), hit in zip(ball.items(), hits):
        if hit is None:
            rows.append((key, elt, len_s, None, None))
        else:
            rows.append((key, elt, len_s) + _witness(group, factors, hit[1], elt))
    return rows, capped


def reflen_ball(cm: CoxeterMatrix, L: int, D: int,
                node_cap=NODE_CAP) -> BallResult:
    """l_R^(D) over the ball of standard length <= L.

    Upper bounds and witnesses come from the shared `_ball_search`; lower
    bounds are parity and fixed-space codimension.  Elements the search
    could not settle under `node_cap` are reported with upper = None.
    """
    rows, capped = _ball_search(cm, L, D, node_cap)
    results = {}
    sources = ("parity", "fixed-space")
    for key, elt, len_s, upper, parts in rows:
        lower = combine_lower(len_s, parity_lower(len_s), fixed_space_codim(elt))
        if upper is None:
            results[key] = ReflLenResult(elt, None, lower, "Bracketed", None, D,
                                         len_s, sources, capped=True)
        else:
            witness = tuple(p.word for p in parts)
            status = "Exact" if lower == upper else "Bracketed"
            results[key] = ReflLenResult(elt, upper, lower, status,
                                         witness, D, len_s, sources)
    return BallResult(cm, L, D, results, capped)


# -- per-element protocol ------------------------------------------------------


def reflen_element(cm: CoxeterMatrix, word, protocol: ReflenProtocol = None,
                   certificates=()) -> ReflLenResult:
    """Certified reflection length of the element given by a generator word.

    With the exact solver enabled (default) the result is Exact whenever the
    solver finishes under protocol.node_cap; otherwise upper bounds l_R^(D)
    are computed for D = 2, 4, ... <= protocol.d_cap, stopping once a bound
    has held for two further rungs, every witness re-multiplied and checked;
    the result is Bracketed unless the unconditional lower bounds happen to
    meet the upper bound.  depth_used is the rung that gave the upper bound,
    None when none did.  Every search runs under protocol.node_cap.
    """
    protocol = protocol or ReflenProtocol()
    _check_caps(protocol.d_cap, protocol.node_cap)
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
        solved = exact_reflection_length(group, g, cap=protocol.node_cap,
                                         reduced_word=reduced)
        if solved is not None:
            value, parts = solved
            require(value >= lower, "exact value below a certified lower bound")
            witness = tuple(p.word for p in parts)
            return ReflLenResult(g, value, value, "Exact", witness, None, len_s,
                                 tuple(sources) + ("inversion-complete",))

    # truncated-reflection ladder with the two-stable-increments stopping
    # rule; the group's reflections at the top rung serve every rung, because
    # the depth <= D prefix of them is the enumeration at D
    upper = None
    witness = None
    stable = 0
    depth_used = None
    capped = False
    rungs = range(_D_START, protocol.d_cap + 1, _D_STEP)
    deepest = get_reflections(group, rungs[-1]) if rungs else []
    for D in rungs:
        factors = [r.element for r in deepest if r.depth <= D]
        (hit,), rung_capped = min_product_length(group, [(g, len_s)], factors,
                                                 protocol.node_cap)
        capped = capped or rung_capped
        if hit is not None:
            new_upper, parts = _witness(group, factors, hit[1], g)
            if upper is not None:
                require(new_upper <= upper, "l_R^(D) must be non-increasing in D")
            if upper is not None and new_upper == upper:
                stable += 1
            else:
                stable = 0
            upper = new_upper
            witness = tuple(p.word for p in parts)
            depth_used = D
            if stable >= _STABLE_INCREMENTS:
                break
    status = "Exact" if upper is not None and lower == upper else "Bracketed"
    return ReflLenResult(g, upper, lower, status, witness, depth_used, len_s,
                         tuple(sources), capped=capped)


def carter_length_finite(cm: CoxeterMatrix, word) -> int:
    """Reflection length in a finite group: the fixed-space codimension.

    Classical equality for finite reflection groups, used as an independent
    oracle against the solver and the l_R^(D) search.
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

    One `_ball_search` at D = L - 1 gives each exact value as its upper
    bound, and no lower bound is computed: the reflections of root depth
    <= L - 1 hold the inversion set of every ball element (see the module
    docstring).  Requires every component Euclidean; checks the 2n ceiling
    on every element (a violation would falsify the experiment, not flag it)
    and raises CertificateError when it fails.  protocol.node_cap bounds the
    ball and the search, whose unsettled rows are skipped.
    """
    protocol = protocol or ReflenProtocol()
    verdict = classify_group(cm)
    if any(k != Kind.AFFINE_EUCLIDEAN for _, k in verdict.components):
        raise DomainError("affine bound experiment needs every component Euclidean")
    n = cm.rank - len(verdict.components)
    rows, _ = _ball_search(cm, L, max(L - 1, 0), protocol.node_cap)
    counts = {}
    for _, _, _, upper, _ in rows:
        if upper is None:
            continue
        require(upper <= 2 * n,
                "element of reflection length %d exceeds the affine maximum %d",
                upper, 2 * n)
        counts[upper] = counts.get(upper, 0) + 1
    if not counts:
        raise DomainError("no exact values obtained at L=%d" % L)
    max_value = max(counts)
    return AffineBoundRecord(cm, L, n, 2 * n, max_value, max_value == 2 * n,
                             dict(sorted(counts.items())), len(rows))


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
    return GrowthRecord(base_word, powers)
