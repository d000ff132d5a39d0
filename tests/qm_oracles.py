"""Random-pair oracles for the counting quasimorphisms.

The certificates themselves use only the exact defect window; these
samplers check it from outside, on fresh random reduced words.
"""

import random

from coxlen.quasimorphism import _ALPHABET, FreeCoxeterWord, counting_qm


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
