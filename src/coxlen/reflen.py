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

from itertools import islice

from . import tits
from ._record import Record
from .coxeter import CoxeterMatrix, Kind, classify_group
from .errors import DomainError, ResourceCapError, require
from .tits import NODE_CAP, GroupElement, TitsGroup, canonical_key, fixed_space_codim

_GROUP_CACHE = {}
# group -> (depth cap, enumerate_reflections list): the deepest made so far
_REFLECTION_CACHE = {}


def get_group(cm: CoxeterMatrix) -> TitsGroup:
    if cm not in _GROUP_CACHE:
        _GROUP_CACHE[cm] = TitsGroup(cm)
    return _GROUP_CACHE[cm]


def get_reflections(group: TitsGroup, D: int, cap=NODE_CAP):
    """The reflections of root depth <= D, as `enumerate_reflections` lists
    them under `cap`: the depth <= D prefix of the deepest enumeration made
    so far for the group, enumerating again only for a deeper D.  The prefix
    answers to `cap` as a new enumeration would."""
    cached = _REFLECTION_CACHE.get(group.cm)
    if cached is None or cached[0] < D:
        cached = D, tits.enumerate_reflections(group.gram, D, cap)
        _REFLECTION_CACHE[group.cm] = cached
    out = [r for r in cached[1] if r.depth <= D]
    tits._check_reflection_cap(sum(r.depth < D for r in out), D, cap)
    return out


# the truncated ladder's schedule: D = 2, 4, ... up to ReflenProtocol.d_cap,
# stopping once the upper bound has held for two further rungs
_D_START = 2
_D_STEP = 2
_STABLE_INCREMENTS = 2


class ReflenProtocol(Record):
    """Caps for reflection-length computations: `d_cap` is the deepest rung
    of the truncated ladder, and `node_cap` bounds every search (the exact
    solver, each ladder rung, and the ball and its shared search) and the
    reflection enumeration they draw on."""

    __slots__ = ("d_cap", "node_cap", "use_exact_solver")

    def __init__(self, d_cap: int = 6, node_cap: int = NODE_CAP,
                 use_exact_solver: bool = True):
        self.d_cap = d_cap
        self.node_cap = node_cap
        self.use_exact_solver = use_exact_solver


class ReflLenResult(Record):
    __slots__ = ("element", "upper", "lower", "status", "witness", "depth_used", "len_s",
                 "lower_sources")

    def __init__(self, element: GroupElement, upper: int | None, lower: int, status: str,
                 witness: tuple | None, depth_used: int | None, len_s: int,
                 lower_sources: tuple = ()):
        self.element = element
        self.upper = upper
        self.lower = lower
        self.status = status      # "Exact" | "Bracketed"
        self.witness = witness    # reflection words whose product is the element
        self.depth_used = depth_used
        self.len_s = len_s
        self.lower_sources = lower_sources
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


class GrowthRecord(Record):
    __slots__ = ("base_word", "powers")

    def __init__(self, base_word: tuple, powers: list):
        self.base_word = base_word
        self.powers = powers  # [(k, ReflLenResult), ...]


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
    word s_1 ... s_j s_(j-1) ... s_1.  The n rows of the prefix matrix are
    walked from the identity's, each letter carrying each row through the
    product by its generator, and the root is read off them as column s_j,
    so no prefix is made an element.

    The inversions must be distinct, which fails for a word that is not
    reduced.  They are compared on their row keys K(t) = K(1) M(t), read
    through their products, so no inversion's matrix is built: K is
    injective on W (see the `tits` module docstring), and t_beta = t_-beta
    has one key where its two roots differ."""
    out = []
    seen = set()
    one = tits.row_key(group.identity)
    d = group.field.degree
    width = group.cm.rank * d
    identity = group.identity.packed
    rows = [identity[r:r + width] for r in range(0, len(identity), width)]
    prefix = ()
    for s in reduced_word:
        i = s * d
        t = tits.reflection(group.gram, tuple(c for row in rows for c in row[i:i + d]),
                            prefix + (s,) + prefix[::-1])
        key = tits.row_factor(t)(one)
        require(key not in seen, "inversions of a reduced word must be distinct")
        seen.add(key)
        out.append(t)
        product = tits.row_factor(group.generators[s])
        rows = [product(row) for row in rows]
        prefix += (s,)
    return out


def min_product_length(group: TitsGroup, targets, factors, cap=NODE_CAP):
    """Shortest factorizations of several targets over the given involutions.

    `targets` lists (element, n_max) pairs.  One meet-in-the-middle search
    serves them all: the layers of half products are built once and shared,
    and each target is probed at n = its parity minimum, +2, ..., n_max
    (every factor is a reflection, so products of n factors have word
    parity n).  Returns hits: hits[i] is (n, factor index tuple) for the
    least such n, or None when target i has no factorization of length <=
    its n_max.  Raises ResourceCapError when building a layer would store
    more than `cap` elements, the factors included.

    Row keys.  A layer element x is stored as its row key K(x) = 1^T M(x)
    (`tits.row_key`), which is injective on W by Tits' theorem (see the
    `tits` module docstring), with its least factor index tuple and its
    prefix's key; it is never a matrix.  K(x t) = K(x) M(t),
    so a layer is extended by one row product per element and factor.
    Factors are read only through their products (`tits.row_factor`), a
    factor's key included: K(t) = K(1) M(t).

    Witness contract: the index tuple is the lexicographically least one of
    length n.  Layer k holds every product of k factors, inserted in the
    order of its least k-tuple, which is the tuple it stores (induction on
    k); a probe at n = a + b walks layer a in that order and takes the first
    x with x^-1 g in layer b, so the hit is the least n-tuple whatever the
    split, and a target's hit does not depend on the other targets.  Every
    factor is an involution, so every layer is closed under inversion and
    the probe tests g^-1 x instead, whose key K(g^-1) M(x) is carried down
    the prefixes of layer a (a layer lists the children of each prefix
    together, so each prefix costs one row product per walk).  K(g^-1) is
    K(1) carried through a word of g, last letter first: g's own, or its
    reduced word when it has none.
    Only on a hit is K(x^-1 g) formed, to read its stored tuple in layer
    b: the key of x's last factor carried through its other factors, last
    first, and then through the same word of g, first letter first, one
    product by a generator per letter, so no product by g's matrix is made.

    A single target whose layer b is not built tests g^-1 x t_j against
    layer b - 1 instead, storing nothing beyond it: layer b is layer b - 1
    times the factors, so g^-1 x lies in layer b exactly when g^-1 x t_j
    lies in layer b - 1 for some j, and the stored tuple of x^-1 g there is
    the least such j followed by that of t_j x^-1 g in layer b - 1, read as
    above with x t_j for x.  This happens at every odd n >= 3, costing at
    most the |layer a| |factors| products that building layer b costs, and
    at the target's last even n >= 4, where layer a (= b) is made from the
    children of layer a - 1, first occurrences only, which is its order and
    stored tuples.  A child costs up to |factors| products and lookups, and
    building layer a |layer a - 1| |factors| products and inserts, an insert
    about two lookups; so after 2 |layer a - 1| children without a hit layer
    a is built and walked.  The even case is taken only when
    stored + |layer a - 1| |factors| <= cap, under which building layer a
    stays within the cap too, so no cap outcome changes.
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
    products = [tits.row_factor(t) for t in factors]
    generators = [tits.row_factor(s) for s in group.generators]
    one = tits.row_key(group.identity)
    factor_keys = [product(one) for product in products]
    # layer k: row key -> (least factor index tuple, row key of its prefix)
    layers = {1: {key: ((i,), None) for i, key in enumerate(factor_keys)}}
    stored = len(factors)
    walks = {}   # target index -> (g's word, K(g^-1)), made on its first walk of a layer

    def extend(k):
        """Build the layers up to k, raising once `cap` is exceeded."""
        nonlocal stored
        for j in range(len(layers) + 1, k + 1):
            new = {}
            for key, (wit, _) in layers[j - 1].items():
                for i, product in enumerate(products):
                    y = product(key)
                    if y not in new:
                        new[y] = (wit + (i,), key)
                        stored += 1
                        if stored > cap:
                            raise ResourceCapError("search exceeded the node cap "
                                                   "of %d stored elements" % cap)
            layers[j] = new

    def walk(start, a):
        """(stored tuple, K(g^-1 x)) for x in layer a, in its order, where
        start = K(g^-1): read off layer a when it is built, else made from
        the children of layer a - 1, each first occurrence told by K(g^-1 x).
        K(g^-1 y) is carried down the prefixes y, the last one kept per level."""
        last = [None] * a   # level k: (key, K(g^-1 y)) of the last prefix y

        def shifted(k, key):
            if k == 0:
                return start
            memo = last[k]
            if memo is not None and memo[0] is key:
                return memo[1]
            wit, parent = layers[k][key]
            value = products[wit[-1]](shifted(k - 1, parent))
            last[k] = key, value
            return value

        if a in layers:
            for wit, parent in layers[a].values():
                yield wit, products[wit[-1]](shifted(a - 1, parent))
            return
        seen = set()
        for key, (wit, _) in layers[a - 1].items():
            y = shifted(a - 1, key)
            for i, product in enumerate(products):
                z = product(y)
                if z not in seen:
                    seen.add(z)
                    yield wit + (i,), z

    def first_hit(candidates, inner, shift):
        """The stored tuple of the first candidate x, given as (stored tuple,
        K(g^-1 x)), with g^-1 x in the layer `inner`, or, when shifting, with
        g^-1 x t_j in it for some j, followed by the least such j.  None when
        there is no such x."""
        for wit, y in candidates:
            if shift:
                for j, product in enumerate(products):
                    if product(y) in inner:
                        return wit + (j,)
            elif y in inner:
                return wit
        return None

    def through(row, word):
        """row M(s_1) ... M(s_k) for the word s_1 ... s_k."""
        for s in word:
            row = generators[s](row)
        return row

    for n in range(1, n_top + 1):
        probing = [p for p in pending if p[2] >= n and (p[2] - n) % 2 == 0]
        if not probing:
            continue
        a = n // 2
        b = n - a
        extend(b - 1)
        # a single target tests g^-1 x t_j against layer b - 1 (see above)
        shift = (len(probing) == 1 and b not in layers
                 and (a < b or n == probing[0][2]
                      and stored + len(layers[a - 1]) * len(factors) <= cap))
        if not shift:
            extend(b)
        k = b - 1 if shift else b
        for i, g, _ in probing:
            if a == 0:
                hit = layers[b].get(tits.row_key(g))
                if hit is not None:
                    hits[i] = n, hit[0]
                continue
            if i not in walks:
                word = group.reduced_word(g) if g.word is None else g.word
                walks[i] = word, through(one, reversed(word))
            word, start = walks[i]
            made = walk(start, a)
            budget = None if a in layers else 2 * len(layers[a - 1])
            found = first_hit(islice(made, budget), layers[k], shift)
            if found is None and next(made, None) is not None:
                extend(a)   # past the budget: build layer a and walk it
                k = b
                found = first_hit(walk(start, a), layers[k], False)
            if found is not None:
                # the rest: the stored tuple of P^-1 g, P the product at `found`
                row = factor_keys[found[-1]]
                for j in reversed(found[:-1]):
                    row = products[j](row)
                hit = layers[k].get(through(row, word))
                require(hit is not None, "a row-key hit has no stored witness")
                hits[i] = n, found + hit[0]
        pending = [p for p in pending if hits[p[0]] is None]
    return hits


def exact_reflection_length(group: TitsGroup, g: GroupElement, cap=NODE_CAP,
                            reduced_word=None):
    """(value, witness reflection elements).

    Searches products of inversions of g, read off `reduced_word` (a reduced
    word for g, computed when not given), and raises ResourceCapError when
    the search would store more than `cap` elements.  Termination within
    l_S(g) factors is guaranteed by Dyer's theorem; exceeding l_S(g) would
    falsify it and raises instead of returning a wrong value.
    """
    rw = group.reduced_word(g) if reduced_word is None else tuple(reduced_word)
    invs = inversion_reflections(group, rw)
    (hit,) = min_product_length(group, [(g, len(rw))], invs, cap)
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

    Returns (dist: key -> (distance, witness index tuple), capped), and
    ({}, True) when the search exceeds node_cap.  The program calls
    `min_product_length` directly; this name stays because the benchmark
    (`perfbench/`) still refers to it.
    """
    elements = [GroupElement(group.gram, key) for key in targets]
    # a target's distance has the parity of its length: probe both parities
    try:
        hits = min_product_length(
            group, [(e, n) for e in elements for n in (level_cap, level_cap - 1)],
            [r.element for r in reflections], node_cap)
    except ResourceCapError:
        return {}, True
    dist = {}
    for e, hit, other in zip(elements, hits[::2], hits[1::2]):
        hit = hit or other
        if hit is not None:
            dist[e.key] = hit
    return dist, False


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


class BallResult(Record):
    __slots__ = ("cm", "L", "D", "results")

    def __init__(self, cm: CoxeterMatrix, L: int, D: int, results: dict):
        self.cm = cm
        self.L = L
        self.D = D
        self.results = results  # key -> ReflLenResult


def _ball_search(cm: CoxeterMatrix, L: int, D: int, node_cap=NODE_CAP):
    """l_R^(D) upper bounds over the ball of standard length <= L.

    One `min_product_length` search over the reflections of root depth <= D,
    shared by every ball element and bounded by its l_S (every simple
    reflection has depth 0, so l_R^(D) <= l_S); witnesses are its
    meet-in-the-middle factorizations, each re-multiplied and checked against
    its element.  `node_cap` bounds the ball, the reflection enumeration and
    the elements the search stores, and each raises ResourceCapError when
    exceeded.  Returns [(key, element, l_S, upper, witness factors)] in ball
    order.
    """
    _check_caps(D, node_cap)
    if L < 0:
        raise DomainError("ball radius must be >= 0, got %d" % L)
    group = get_group(cm)
    ball = standard_ball(group, L, node_cap)
    factors = [r.element for r in get_reflections(group, D, node_cap)]
    hits = min_product_length(group, list(ball.values()), factors, node_cap)
    rows = []
    for (key, (elt, len_s)), hit in zip(ball.items(), hits):
        require(hit is not None, "a ball element has no factorization within l_S, "
                "though every simple reflection has depth 0")
        rows.append((key, elt, len_s) + _witness(group, factors, hit[1], elt))
    return rows


def reflen_ball(cm: CoxeterMatrix, L: int, D: int,
                node_cap=NODE_CAP) -> BallResult:
    """l_R^(D) over the ball of standard length <= L.

    Upper bounds and witnesses come from the shared `_ball_search`; lower
    bounds are parity and fixed-space codimension.  A ball or search larger
    than `node_cap` raises ResourceCapError.
    """
    results = {}
    sources = ("parity", "fixed-space")
    for key, elt, len_s, upper, parts in _ball_search(cm, L, D, node_cap):
        lower = combine_lower(len_s, parity_lower(len_s), fixed_space_codim(elt))
        status = "Exact" if lower == upper else "Bracketed"
        results[key] = ReflLenResult(elt, upper, lower, status,
                                     tuple(p.word for p in parts), D, len_s, sources)
    return BallResult(cm, L, D, results)


# -- per-element protocol ------------------------------------------------------


def reflen_element(cm: CoxeterMatrix, word, protocol: ReflenProtocol = None,
                   certificates=()) -> ReflLenResult:
    """Certified reflection length of the element given by a generator word.

    With the exact solver enabled (default) the result is Exact whenever the
    solver finishes under protocol.node_cap; otherwise upper bounds l_R^(D)
    are computed for D = 2, 4, ... <= protocol.d_cap, stopping once a bound
    has held for two further rungs, every witness re-multiplied and checked;
    the result is Bracketed unless the unconditional lower bounds happen to
    meet the upper bound.  The rung-D reflections are a prefix of the
    rung-(D+2) ones, so each later rung searches only up to the previous
    settled rung's bound, and the first up to l_S.  depth_used is the rung
    that gave the upper bound, None when none did.  Every search, and the
    enumeration of the top rung's reflections, runs under protocol.node_cap:
    a search that exceeds it gives way to the next rung, an enumeration to
    the rung below, and when no rung settles after that, the last
    ResourceCapError is raised.
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

    cap_error = None
    if protocol.use_exact_solver:
        try:
            value, parts = exact_reflection_length(group, g, cap=protocol.node_cap,
                                                   reduced_word=reduced)
        except ResourceCapError as e:
            # dropping the traceback frees the search's layers before the ladder
            cap_error = e.with_traceback(None)
        else:
            require(value >= lower, "exact value below a certified lower bound")
            witness = tuple(p.word for p in parts)
            return ReflLenResult(g, value, value, "Exact", witness, None, len_s,
                                 tuple(sources) + ("inversion-complete",))

    # truncated-reflection ladder with the two-stable-increments stopping
    # rule; the group's reflections at the top rung serve every rung, because
    # the depth <= D prefix of them is the enumeration at D.  A top rung whose
    # enumeration exceeds the cap gives way to the rung below it.
    upper = None
    witness = None
    stable = 0
    depth_used = None
    rungs = range(_D_START, protocol.d_cap + 1, _D_STEP)
    while rungs:
        try:
            deepest = get_reflections(group, rungs[-1], protocol.node_cap)
            break
        except ResourceCapError as e:
            cap_error = e.with_traceback(None)
            rungs = rungs[:-1]
    for D in rungs:
        factors = [r.element for r in deepest if r.depth <= D]
        bound = len_s if upper is None else upper
        try:
            (hit,) = min_product_length(group, [(g, bound)], factors,
                                        protocol.node_cap)
        except ResourceCapError as e:
            cap_error = e.with_traceback(None)
            continue
        require(hit is not None, "no rung factorization within %d factors, the %s",
                bound, "l_S, though every simple reflection has depth 0"
                if upper is None else "bound of a rung over fewer reflections")
        new_upper, parts = _witness(group, factors, hit[1], g)
        if upper is not None and new_upper == upper:
            stable += 1
        else:
            stable = 0
        upper = new_upper
        witness = tuple(p.word for p in parts)
        depth_used = D
        if stable >= _STABLE_INCREMENTS:
            break
    if upper is None and cap_error is not None:
        raise cap_error
    status = "Exact" if upper is not None and lower == upper else "Bracketed"
    return ReflLenResult(g, upper, lower, status, witness, depth_used, len_s,
                         tuple(sources))


def carter_length_finite(cm: CoxeterMatrix, word) -> int:
    """Reflection length in a finite group: the fixed-space codimension.

    Classical equality for finite reflection groups, used as an independent
    oracle against the solver and the l_R^(D) search.
    """
    if classify_group(cm).kind != Kind.SPHERICAL:
        raise DomainError("Carter's equality applies to spherical groups only")
    group = get_group(cm)
    return fixed_space_codim(group.element(tuple(word)))


class AffineBoundRecord(Record):
    __slots__ = ("cm", "L", "euclidean_dim", "bound", "max_value", "attained",
                 "value_counts", "ball_size")

    def __init__(self, cm: CoxeterMatrix, L: int, euclidean_dim: int, bound: int,
                 max_value: int, attained: bool, value_counts: dict, ball_size: int):
        self.cm = cm
        self.L = L
        self.euclidean_dim = euclidean_dim  # n: rank minus number of components
        self.bound = bound                  # 2n
        self.max_value = max_value
        self.attained = attained
        self.value_counts = value_counts    # value -> number of ball elements
        self.ball_size = ball_size


def affine_bound_experiment(cm: CoxeterMatrix, L: int,
                            protocol: ReflenProtocol = None) -> AffineBoundRecord:
    """Maximum exact reflection length over the ball of radius L.

    One `_ball_search` at D = L - 1 gives each exact value as its upper
    bound, and no lower bound is computed: the reflections of root depth
    <= L - 1 hold the inversion set of every ball element (see the module
    docstring).  Requires every component Euclidean; checks the 2n ceiling
    on every element (a violation would falsify the experiment, not flag it)
    and raises CertificateError when it fails.  protocol.node_cap bounds the
    ball and the search, and either raises ResourceCapError when exceeded.
    """
    protocol = protocol or ReflenProtocol()
    verdict = classify_group(cm)
    if any(k != Kind.AFFINE_EUCLIDEAN for _, k in verdict.components):
        raise DomainError("affine bound experiment needs every component Euclidean")
    n = cm.rank - len(verdict.components)
    rows = _ball_search(cm, L, max(L - 1, 0), protocol.node_cap)
    counts = {}
    for _, _, _, upper, _ in rows:
        require(upper <= 2 * n,
                "element of reflection length %d exceeds the affine maximum %d",
                upper, 2 * n)
        counts[upper] = counts.get(upper, 0) + 1
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
