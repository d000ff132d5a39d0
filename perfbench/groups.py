"""The Coxeter groups the benchmark's workloads run on, as inline matrix text.

Pure Python with no import of coxlen, so the parent process can build op
lists without paying the library's set-up cost.
"""

import itertools

W3 = "rank 3; m12=inf m13=inf m23=inf"
A2T = "rank 3; m12=3 m13=3 m23=3"            # affine A~2, Euclidean
H3 = "rank 3; m12=3 m23=5"                    # spherical, field degree 8
T334 = "rank 3; m12=3 m13=3 m23=4"            # (3,3,4) triangle group, degree 4
B4H = "rank 4; m12=4 m23=3 m34=4 m14=3"       # rank-4 B-type cycle, degree 4
W4 = "rank 4; m12=inf m13=inf m14=inf m23=inf m24=inf m34=inf"
R4 = "rank 4; m12=3 m13=3 m14=3 m23=4"        # rank-4 ladder group

# name -> (matrix text, standard-length range of pool words)
ELEMENT_GROUPS = {
    "W3": (W3, (6, 16)),
    "A2T": (A2T, (6, 16)),
    "H3": (H3, (6, 15)),          # the longest element of H3 has length 15
    "T334": (T334, (6, 16)),
    "B4H": (B4H, (6, 16)),
    # l_R reaches 7 at l_S = 15 in W4 and then costs about 10 s per element;
    # the range stops at 14, where l_R <= 6 and the heavy tail is 1-3 s
    "W4": (W4, (6, 14)),
}

LADDER_GROUPS = {
    "W3": (W3, (3, 8)),
    "T334": (T334, (3, 8)),
    "R4": (R4, (3, 8)),
}


def parse_orders(text):
    """(rank, {(i, j): order}) from the inline grammar; 0 stands for inf."""
    tokens = text.replace(";", " ").split()
    rank = int(tokens[1])
    orders = {(i, j): 2 for i in range(rank) for j in range(i + 1, rank)}
    for tok in tokens[2:]:
        lhs, rhs = tok.split("=")
        orders[(int(lhs[1]) - 1, int(lhs[2]) - 1)] = 0 if rhs == "inf" else int(rhs)
    return rank, orders


def diagram_automorphisms(text):
    """Generator permutations that preserve every bond order."""
    rank, orders = parse_orders(text)

    def order(i, j):
        return orders[(min(i, j), max(i, j))]

    return [p for p in itertools.permutations(range(rank))
            if all(order(p[i], p[j]) == order(i, j) for (i, j) in orders)]
