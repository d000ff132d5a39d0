"""Oracles for the counting quasimorphisms.

The certificates themselves use only the exact defect window; the samplers
check it from outside, on fresh random reduced words.
`two_window_defect` is `defect_window` as it was before it computed one
window: the value at B, flagged stabilized when it equals the value at
B - 1 and B >= 3|w| (the window cap is left out).
"""

import random

from coxlen.quasimorphism import (_ALPHABET, DefectResult, FreeCoxeterWord,
                                  _defect_over_window, counting_qm)


def two_window_defect(w: FreeCoxeterWord, B: int) -> DefectResult:
    value, pair = _defect_over_window(w, B)
    prev, _ = _defect_over_window(w, B - 1)
    return DefectResult(w, B, value, pair,
                        stabilized=(value == prev and B >= 3 * len(w)))


def random_reduced_word(k, length, rng):
    out = []
    for _ in range(length):
        choices = [c for c in _ALPHABET[:k] if not out or c != out[-1]]
        out.append(rng.choice(choices))
    return "".join(out)


def defect_stress_sample(w: FreeCoxeterWord, claimed_defect: int, pairs: int,
                         max_len: int, seed: int = 0):
    """Count violations of |H(gh)-H(g)-H(h)| <= claimed defect on random pairs."""
    rng = random.Random(seed)
    violations = 0
    worst = 0
    for _ in range(pairs):
        g = random_reduced_word(w.k, rng.randrange(max_len + 1), rng)
        h = random_reduced_word(w.k, rng.randrange(max_len + 1), rng)
        d = abs(counting_qm(w, g + h) - counting_qm(w, g) -
                counting_qm(w, h))
        worst = max(worst, d)
        if d > claimed_defect:
            violations += 1
    return violations, worst
