"""Counting quasimorphisms on free products of order-2 generators.

Words live in W_k = Z/2 * ... * Z/2: strings over the first k letters with no
two equal adjacent letters; each letter is its own inverse, so inversion is
string reversal.  H_w(g) counts occurrences of the pattern w minus
occurrences of its reversal.

The defect sup |H(gh) - H(g) - H(h)| is computed exactly: writing g = g'c^-1,
h = ch' with maximal cancellation c, the deviation equals
cross(g',h') - cross(g',c^-1) - cross(c,h') where cross counts pattern
occurrences straddling a junction.  Each cross term sees at most |w|-1
letters on either side, so the supremum over all pairs of length <= B equals
a finite maximum over short triples (a, c, b); in particular the window
B = 3|w| already attains the global defect.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

from ._record import Record
from .coxeter import INF, CoxeterMatrix
from .errors import DomainError, InputError, ResourceCapError

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"

# the most (a, c, b) combinations one defect window may visit
MAX_COMBINATIONS = 5_000_000
# the most powers g^1 .. g^K one lower-bound certificate lists (see the README)
MAX_POWERS = 100_000


def every_bond_infinite(cm: CoxeterMatrix) -> bool:
    """Whether cm presents a free Coxeter group: every bond inf."""
    return all(m == INF for i, row in enumerate(cm.entries) for m in row[i + 1:])


class FreeCoxeterWord(Record):
    """Reduced word in Z/2 * ... * Z/2 (k factors)."""

    __slots__ = ("letters", "k")

    def __init__(self, letters: str, k: int):
        self.letters = letters
        self.k = k
        for x, y in zip(self.letters, self.letters[1:]):
            if x == y:
                raise InputError("word %r is not reduced" % self.letters)

    def __len__(self):
        return len(self.letters)

    def inverse(self):
        return FreeCoxeterWord(self.letters[::-1], self.k)

    def __str__(self):
        return self.letters or "1"


def _to_string(letters, k):
    if isinstance(letters, FreeCoxeterWord):
        return letters.letters
    if isinstance(letters, str):
        s = letters
    else:
        s = "".join(_ALPHABET[i - 1] if isinstance(i, int) else str(i) for i in letters)
    for ch in s:
        idx = _ALPHABET.find(ch)
        if idx < 0 or idx >= k:
            raise InputError("letter %r outside alphabet of size %d" % (ch, k))
    return s


def reduce_word(letters, k) -> FreeCoxeterWord:
    """Cancel equal adjacent letters until reduced (confluent)."""
    s = _to_string(letters, k)
    out = []
    for ch in s:
        if out and out[-1] == ch:
            out.pop()
        else:
            out.append(ch)
    return FreeCoxeterWord("".join(out), k)


def _count(pat, s):
    n = 0
    start = 0
    while True:
        i = s.find(pat, start)
        if i < 0:
            return n
        n += 1
        start = i + 1


def counting_qm(w: FreeCoxeterWord, g) -> int:
    """H_w(g): occurrences of w minus occurrences of w^-1 in reduced g."""
    if len(w) == 0:
        raise DomainError("counting quasimorphism needs a nonempty pattern")
    s = reduce_word(g, w.k).letters
    return _count(w.letters, s) - _count(w.letters[::-1], s)


def _cross(pat, left, right):
    """Signed pattern occurrences straddling the junction of left + right."""
    m = len(pat)
    joined = left + right
    total = 0
    for p in (pat, pat[::-1]):
        sign = 1 if p is pat else -1
        lo = max(0, len(left) - m + 1)
        hi = min(len(left), len(joined) - m + 1)
        for start in range(lo, hi):
            if joined[start:start + m] == p:
                total += sign
    return total


def _reduced_words_upto(k, maxlen):
    out = [""]
    frontier = [""]
    for _ in range(maxlen):
        nxt = []
        for wd in frontier:
            for ch in _ALPHABET[:k]:
                if not wd or wd[-1] != ch:
                    nxt.append(wd + ch)
        out.extend(nxt)
        frontier = nxt
    return out


class DefectResult(Record):
    __slots__ = ("pattern", "window", "value", "pair", "stabilized")

    def __init__(self, pattern: FreeCoxeterWord, window: int, value: int, pair: tuple,
                 stabilized: bool):
        self.pattern = pattern
        self.window = window
        self.value = value
        self.pair = pair  # (g, h) strings attaining the value
        self.stabilized = stabilized


def _defect_over_window(w: FreeCoxeterWord, B: int):
    """Exact max of |H(gh)-H(g)-H(h)| over reduced g,h of length <= B.

    The maximum runs over junction triples (a, c, b) in the order middle c,
    left a, right b, and the first strict maximum gives the pair.  Sides
    and middles come from one list, the words of length <= min(B, |w| - 1):
    cross(a, c^-1) and cross(c, b) read only the last |w| - 1 letters of c,
    and that suffix of a longer c meets looser length and adjacency
    constraints and is listed earlier, so a longer c never gives a strict
    maximum.  Cross terms are read from tables: cross(a, b) is built once
    for all middles, cross(c, b) once per middle and cross(a, c^-1) once
    per (a, c).
    """
    pat = w.letters
    side = _reduced_words_upto(w.k, min(B, len(pat) - 1))
    cross_ab = [[_cross(pat, a, b) for b in side] for a in side]
    best = 0
    best_pair = ("", "")

    def eval_mid(c):
        local_best = 0
        local_pair = ("", "")
        rc = c[::-1]
        # (index, first letter, cross(c, b)) of every b that may follow c
        right = [(j, b[:1], _cross(pat, c, b)) for j, b in enumerate(side)
                 if len(c) + len(b) <= B and not (c and b and c[-1] == b[0])]
        for i, a in enumerate(side):
            if len(a) + len(c) > B:
                continue
            if a and rc and a[-1] == rc[0]:
                continue
            cross_ac = _cross(pat, a, rc)
            row = cross_ab[i]
            last = a[-1:]
            for j, first, cross_cb in right:
                if last and last == first:
                    continue
                d = abs(row[j] - cross_ac - cross_cb)
                if d > local_best:
                    local_best = d
                    local_pair = (a + rc, c + side[j])
        return local_best, local_pair

    for c in side:
        val, pair = eval_mid(c)
        if val > best:
            best = val
            best_pair = pair
    return best, best_pair


def defect_window(w: FreeCoxeterWord, B: int) -> DefectResult:
    """Exact defect of H_w over the window of reduced words of length <= B.

    The enumeration is junction-based and exhaustive; MAX_COMBINATIONS
    bounds the (a, c, b) combinations it may visit.  The result is flagged stabilized
    when B >= 3|w|.  The value there equals the value at window B - 1, so
    that window is not computed: for B >= |w| the sides and middles of
    `_defect_over_window` are the words of length <= |w| - 1 at both B and
    B - 1, and its only B-dependent tests, len(a) + len(c) <= B and
    len(c) + len(b) <= B, never bind at B - 1 once B >= 2|w| - 1: both
    windows enumerate the same triples in the same order.
    """
    if len(w) == 0:
        raise DomainError("empty pattern")
    if B < len(w):
        raise DomainError("window must be at least the pattern length")
    m = len(w)
    side_count = sum((w.k - 1) ** max(0, i - 1) * (w.k if i else 1)
                     for i in range(min(B, m - 1) + 1))
    mid_count = sum((w.k - 1) ** max(0, i - 1) * (w.k if i else 1)
                    for i in range(min(B, 2 * m - 1 if w.k >= 3 else B) + 1))
    count = side_count * side_count * mid_count
    if count > MAX_COMBINATIONS:
        raise ResourceCapError(
            "the defect window for k = %d and a pattern of length %d counts %d "
            "(a, c, b) combinations, above the cap of %d"
            % (w.k, m, count, MAX_COMBINATIONS))
    value, pair = _defect_over_window(w, B)
    return DefectResult(w, B, value, pair, stabilized=B >= 3 * m)


def homogenize(w: FreeCoxeterWord, g) -> Fraction:
    """phi_w(g): the exact slope of n -> H_w(g^n).

    Write the reduced g as s c s^-1 with c cyclically reduced; then g^n =
    s c^n s^-1, and each further power of c adds one period of the periodic
    word c c c ...  So phi_w(g) is the number of occurrences of w starting in
    one period of that word minus those of w^-1, and 0 when |c| <= 1 (g has
    finite order).
    """
    c = reduce_word(g, w.k).letters
    while len(c) >= 2 and c[0] == c[-1]:
        c = c[1:-1]
    if len(c) <= 1:
        return Fraction(0)
    # every window of |w| letters starting in the first period
    periodic = c * (len(w) // len(c) + 2)

    def cyclic(pat):
        return sum(1 for i in range(len(c)) if periodic.startswith(pat, i))

    return Fraction(cyclic(w.letters) - cyclic(w.letters[::-1]))


class QuasimorphismCert(Record):
    """A counting quasimorphism with its exact defect and derived constant.

    For any product of n conjugates of generators, homogeneity and
    conjugation invariance give |phi(g)| <= n (M + D_phi); hence every g has
    ||g|| >= |phi(g)| / (M + D_phi) in the conjugation-closed word metric,
    which for the standard generating set is reflection length.
    """

    __slots__ = ("k", "pattern", "raw_defect", "window", "homogeneous_defect",
                 "generator_max", "constant", "stabilized", "defect_pair")

    def __init__(self, k: int, pattern: FreeCoxeterWord, raw_defect: int, window: int,
                 homogeneous_defect: Fraction, generator_max: Fraction,
                 constant: Fraction, stabilized: bool, defect_pair: tuple):
        self.k = k
        self.pattern = pattern
        self.raw_defect = raw_defect
        self.window = window
        self.homogeneous_defect = homogeneous_defect  # bound: 2 * raw defect
        self.generator_max = generator_max
        self.constant = constant
        self.stabilized = stabilized
        self.defect_pair = defect_pair

    def pattern_text(self):
        return self.pattern.letters

    def phi(self, g) -> Fraction:
        return homogenize(self.pattern, g)

    def bound_for(self, g, power=1) -> int:
        """Certified lower bound for ||g^power|| in the bi-invariant metric."""
        val = abs(self.phi(g)) * power * self.constant
        return ceil(val) if val > 0 else 0

    def lower_bound_for_word(self, cm: CoxeterMatrix, word):
        """Adapter for the reflection-length engine (free Coxeter groups only)."""
        if cm.rank != self.k or not every_bond_infinite(cm):
            return None
        letters = "".join(_ALPHABET[s] for s in word)
        g = reduce_word(letters, self.k)
        return self.bound_for(g)


def build_certificate(k: int, pattern, window=None) -> QuasimorphismCert:
    """Compute defect and constant for a counting quasimorphism on W_k.

    Requires k >= 3 (W_2 is affine and carries no useful homogeneous
    quasimorphism) and a cyclically reduced pattern, so that pattern powers
    keep growing and the homogenization has nonzero slope on the pattern.
    """
    if k < 3:
        raise DomainError("certificates are built for free Coxeter groups W_k, k >= 3")
    w = reduce_word(pattern, k)
    if len(w) == 0:
        raise DomainError("empty pattern")
    if _to_string(pattern, k) != w.letters:
        raise DomainError("pattern must be reduced")
    if len(w) >= 2 and w.letters[0] == w.letters[-1]:
        raise DomainError("pattern must be cyclically reduced "
                          "(first and last letters differ)")
    window = 3 * len(w) if window is None else window
    defect = defect_window(w, window)
    if not defect.stabilized:
        raise DomainError(
            "defect value not stabilized at window %d; refusing to certify" % window)
    d_phi = Fraction(2 * defect.value)
    gen_max = max((abs(homogenize(w, ch)) for ch in _ALPHABET[:k]), default=Fraction(0))
    denom = gen_max + d_phi
    if denom == 0:
        raise DomainError("quasimorphism is a homomorphism with zero "
                                "generator values; no positive constant exists")
    return QuasimorphismCert(k, w, defect.value, window, d_phi, gen_max,
                             Fraction(1) / denom, defect.stabilized, defect.pair)


def certify_lower_bound(cert: QuasimorphismCert, g, K: int):
    """(C, [bound for g^1 .. g^K]) with bound_k = ceil(k |phi(g)| C), for
    1 <= K <= MAX_POWERS: `bound_for(g, k)` for each k, with phi(g)
    computed once."""
    if not cert.stabilized:
        raise DomainError("certificate defect is not stabilized")
    if K < 1:
        raise DomainError("K must be >= 1")
    if K > MAX_POWERS:
        raise ResourceCapError("K = %d is above the cap of %d" % (K, MAX_POWERS))
    slope = abs(cert.phi(reduce_word(g, cert.k))) * cert.constant
    return cert.constant, [ceil(k * slope) for k in range(1, K + 1)]

