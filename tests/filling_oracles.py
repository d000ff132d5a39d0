"""Oracle for the cusp short sets: `compute_short_elements` as it was
before one walk per direction.  Each candidate word is evaluated from
scratch, once for its horocycle action and once for its matrix, over two
scans: the translations t^j for j = 1, 2, ... and j = -1, -2, ..., then the
mirror reflections t^j g_i1 for j = 0, 1, ... and j = -1, -2, ...
"""

from fractions import Fraction

from coxlen.errors import CertificateError, DomainError
from coxlen.filling import (ShortElement, _segment_distance,
                            check_horoball_disjointness)
from coxlen.intervals import le_two_pi


def _affine_action(model, cusp, word):
    v = model.element(word)
    conj = cusp.conjugator * v * cusp.conjugator.inverse()
    a, b, c, d = conj.m
    if c != 0:
        raise DomainError("element does not stabilize the cusp")
    eps = Fraction(a, d)
    if eps not in (1, -1):
        raise CertificateError("horocycle action must be x -> +-x + beta")
    return int(eps), Fraction(b, d)


def word_short_elements(model, s, h):
    """The v in V_s - {1} with dist(tau_s, v tau_s) <= 2*pi, sorted by
    (displacement, kind, parameter)."""
    if s not in model.cusps:
        raise DomainError("generator %d has no ideal vertex" % s)
    h = Fraction(h)
    check_horoball_disjointness(model, h)
    cusp = model.cusps[s]
    i1, i2 = cusp.gen_indices
    out = []
    t_word = (i2, i1)

    def try_word(word, kind, j):
        eps, beta = _affine_action(model, cusp, word)
        d = _segment_distance(cusp.tau, eps, beta, h)
        if le_two_pi(d):
            out.append(ShortElement(word, kind, j, d, model.element(word)))
            return True
        return False

    for direction in (1, -1):
        j = direction
        while try_word(t_word * j if j > 0 else (i1, i2) * -j, "translation", j):
            j += direction
    for direction in (1, -1):
        j = 0 if direction == 1 else -1
        while try_word((t_word * j if j >= 0 else (i1, i2) * -j) + (i1,),
                       "reflection", j):
            j += direction
    out.sort(key=lambda e: (e.displacement, e.kind, e.parameter))
    if any(e.matrix.is_identity() for e in out):
        raise CertificateError("identity must be excluded")
    return out
