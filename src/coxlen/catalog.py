"""Built-in table of the finite and Euclidean connected diagrams, rank <= 5.

This is a direct transcription of the classical classification tables and is
deliberately independent of the Gram-signature classifier, so the two can be
cross-checked against each other.  Diagrams are stored by their canonical
form, `canonical_diagram`: the entry matrix minimized over generator
permutations.
"""

from __future__ import annotations

import itertools

from .coxeter import INF, CoxeterMatrix, Kind


def canonical_diagram(cm: CoxeterMatrix, subset=None):
    """Entry matrix of the subdiagram, minimized over generator permutations.

    Only used as a lookup key; kinds are permutation invariant because
    permuting generators conjugates the Gram form by a permutation.
    """
    idx = tuple(range(cm.rank)) if subset is None else tuple(subset)
    k = len(idx)
    return (k, min(tuple(cm.entries[idx[perm[i]]][idx[perm[j]]]
                         for i in range(k) for j in range(i + 1, k))
                   for perm in itertools.permutations(range(k))))


def path(*labels):
    """Path diagram with the given consecutive bond orders."""
    n = len(labels) + 1
    e = [[2] * n for _ in range(n)]
    for i in range(n):
        e[i][i] = 1
    for i, m in enumerate(labels):
        e[i][i + 1] = e[i + 1][i] = m
    return CoxeterMatrix.make(e)


def cycle(n, label=3):
    e = [[2] * n for _ in range(n)]
    for i in range(n):
        e[i][i] = 1
        j = (i + 1) % n
        e[i][j] = e[j][i] = label
    return CoxeterMatrix.make(e)


def star(legs, label=3):
    """One central node joined to `legs` outer nodes."""
    n = legs + 1
    e = [[2] * n for _ in range(n)]
    for i in range(n):
        e[i][i] = 1
    for i in range(1, n):
        e[0][i] = e[i][0] = label
    return CoxeterMatrix.make(e)


def fork_path(fork_label, *tail):
    """Two nodes joined to a common node, continuing along a labeled path.

    fork_path(3, 3, 4) is the 5-node diagram a-c, b-c (both 3), c-d (3), d-e (4).
    """
    n = 3 + len(tail)
    e = [[2] * n for _ in range(n)]
    for i in range(n):
        e[i][i] = 1
    e[0][2] = e[2][0] = fork_label
    e[1][2] = e[2][1] = fork_label
    prev = 2
    for m in tail:
        e[prev][prev + 1] = e[prev + 1][prev] = m
        prev += 1
    return CoxeterMatrix.make(e)


SPHERICAL = {
    "A1": path(),
    "A2": path(3),
    "B2": path(4),
    "H2": path(5),
    "G2": path(6),
    "A3": path(3, 3),
    "B3": path(4, 3),
    "H3": path(5, 3),
    "A4": path(3, 3, 3),
    "B4": path(4, 3, 3),
    "D4": star(3),
    "F4": path(3, 4, 3),
    "H4": path(5, 3, 3),
    "A5": path(3, 3, 3, 3),
    "B5": path(4, 3, 3, 3),
    "D5": fork_path(3, 3, 3),
}

EUCLIDEAN = {
    "A~1": path(INF),
    "A~2": cycle(3),
    "C~2": path(4, 4),
    "G~2": path(6, 3),
    "A~3": cycle(4),
    "B~3": fork_path(3, 4),
    "C~3": path(4, 3, 4),
    "A~4": cycle(5),
    "B~4": fork_path(3, 3, 4),
    "C~4": path(4, 3, 3, 4),
    "D~4": star(4),
    "F~4": path(3, 3, 4, 3),
}

_BY_CANONICAL = {canonical_diagram(cm): name
                 for name, cm in {**SPHERICAL, **EUCLIDEAN}.items()}


def table_kind(cm: CoxeterMatrix, subset=None) -> Kind:
    """Expected kind of a connected diagram, straight from the tables.

    Rank-2 diagrams are handled parametrically: I2(m) is finite for every
    finite m and the infinite-bond diagram is the Euclidean A~1.
    """
    name = table_name(cm, subset)
    if name is None:
        return Kind.NON_AFFINE
    return Kind.AFFINE_EUCLIDEAN if name in EUCLIDEAN else Kind.SPHERICAL


def table_name(cm: CoxeterMatrix, subset=None):
    idx = tuple(range(cm.rank)) if subset is None else tuple(subset)
    if len(idx) == 2:
        m = cm.entries[idx[0]][idx[1]]
        if m == INF:
            return "A~1"
        return {3: "A2", 4: "B2", 5: "H2", 6: "G2"}.get(m, "I2(%d)" % m)
    return _BY_CANONICAL.get(canonical_diagram(cm, idx))
