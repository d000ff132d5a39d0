"""Output checks, run after a round's timed loop so they perturb no timing.

Every check is an explicit raise of CheckFailed, so it still runs under
`python -O`.  Checks hold for any seed:

* every witness is re-multiplied with `evaluate_word` and compared with the
  element;
* fixed-space codim <= l_R <= l_S and l_R = l_S (mod 2);
* `carter_length_finite` equality on H3 and the 2n ceiling on A~2;
* classifier verdicts agree with `catalog.table_kind` at rank <= 5;
* pool words keep the reflection length recorded for them.

At the default seed the worker also compares every report and result digest
with the digests recorded at the reference commit (the byte-identity
contract).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import coxlen

LETTERS = "abcdefghijklmnopqrstuvwxyz"
A2T = "rank 3; m12=3 m13=3 m23=3"
H3 = "rank 3; m12=3 m23=5"


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def word_of(text):
    return tuple(LETTERS.index(ch) for ch in text)


def word_text(word):
    return "".join(LETTERS[s] for s in word)


def digest(data):
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


# -- reflection-length results --------------------------------------------------


_GROUPS = {}


def _group(text):
    if text not in _GROUPS:
        _GROUPS[text] = coxlen.TitsGroup(coxlen.parse_coxeter_matrix(text))
    return _GROUPS[text]


def _check_witness(group, element, witness):
    product = group.identity
    for w in witness:
        product = product * coxlen.evaluate_word(group.generators, tuple(w))
    require(product == element, "witness product differs from the element")


def check_bounds(text, word, len_s, upper, lower, status, witness):
    """The invariants every reflection-length result satisfies."""
    group = _group(text)
    element = group.element(word)
    codim = coxlen.fixed_space_codim(element)
    require(len(group.reduced_word(element)) == len_s, "l_S differs from a reduced word")
    require(codim <= lower, "lower bound %d below fixed-space codim %d" % (lower, codim))
    require(lower % 2 == len_s % 2, "lower bound has the wrong parity")
    if upper is None:
        require(status == "Bracketed", "no upper bound but status %s" % status)
        return
    require(lower <= upper <= len_s, "not lower <= upper <= l_S: %d %d %d"
            % (lower, upper, len_s))
    require(upper % 2 == len_s % 2, "upper bound has the wrong parity")
    require((status == "Exact") == (lower == upper), "status %s with bounds %d..%d"
            % (status, lower, upper))
    if witness is not None:
        require(len(witness) == upper, "witness length differs from the upper bound")
        _check_witness(group, element, witness)
    if text == A2T:
        require(lower <= 4, "A~2 lower bound above the 2n ceiling")
        if status == "Exact":
            require(upper <= 4, "A~2 reflection length above the 2n ceiling")
    if text == H3 and status == "Exact":
        require(coxlen.carter_length_finite(group.cm, word) == upper,
                "H3 value differs from Carter's codimension")


def result_record(res):
    """What `coxlen reflen --word` reports of a result."""
    return {"len_s": res.len_s, "upper": res.upper, "lower": res.lower,
            "status": res.status, "lower_sources": list(res.lower_sources),
            "witness": [word_text(w) for w in res.witness] if res.witness else None,
            "depth_used": res.depth_used}


def check_element(op, res):
    exp = op["expect"]
    check_bounds(op["matrix"], word_of(op["word"]), res.len_s, res.upper, res.lower,
                 res.status, res.witness)
    require(res.len_s == exp["len_s"], "l_S %d, recorded %d" % (res.len_s, exp["len_s"]))
    if op["kind"] == "element":
        require(res.status == "Exact", "default protocol gave %s" % res.status)
        require(res.upper == exp["len_r"], "l_R %s, recorded %d" % (res.upper, exp["len_r"]))
    else:
        require((res.upper, res.status) == (exp["upper"], exp["status"]),
                "l_R^(D) %s %s, recorded %s %s"
                % (res.upper, res.status, exp["upper"], exp["status"]))


def ball_rows(ball):
    return sorted([word_text(r.element.word), r.len_s, r.upper, r.lower, r.status]
                  for r in ball.results.values())


def check_ball(op, ball):
    for r in ball.results.values():
        check_bounds(op["matrix"], tuple(r.element.word), r.len_s, r.upper, r.lower,
                     r.status, r.witness)


# -- CLI reports --------------------------------------------------------------


def _csv(data):
    lines = data.decode().splitlines()
    require(lines[0].startswith("# coxlen "), "CSV report lacks its version line")
    require(lines[1].startswith("# config: "), "CSV report lacks its config line")
    header = lines[2].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[3:]]


def _int_or_none(text):
    return None if text == "inf" else int(text)


def cli_statuses(argv, data):
    """Statuses of the reflection-length results a report carries."""
    if argv[0] == "growth" or (argv[0] == "reflen" and "--word" not in argv):
        return [row["status"] for row in _csv(data)]
    if argv[0] == "reflen":
        return [json.loads(data)["report"]["status"]]
    return []


def check_cli(argv, data):
    command = argv[0]
    if command in ("warp", "growth") or (command == "reflen" and "--word" not in argv):
        rows = _csv(data)
    else:
        doc = json.loads(data)
        require(doc["tool"] == "coxlen", "report lacks the tool name")
        report = doc["report"]
    if command == "classify":
        cm = coxlen.parse_coxeter_matrix(argv[2])
        require(sum(report["signature"]) == cm.rank, "signature does not sum to the rank")
        if cm.rank <= 5 and len(report["components"]) == 1:
            from coxlen.catalog import table_kind

            require(report["kind"] == table_kind(cm).value,
                    "verdict %s, tables say %s" % (report["kind"], table_kind(cm).value))
    elif command == "subgroups":
        require(report["count"] == len(report["minimal_nonaffine_subsets"]) >= 1,
                "minimal non-affine subsets miscounted")
    elif command == "affine-bound":
        require(report["max_value"] <= report["bound"], "affine 2n ceiling exceeded")
        require(sum(report["value_counts"].values()) <= report["ball_size"],
                "more values than ball elements")
    elif command == "growth":
        for row in rows:
            upper, lower = _int_or_none(row["upper"]), int(row["lower"])
            require(upper is None or lower <= upper, "growth row with lower > upper")
    elif command == "reflen" and "--word" in argv:
        text = argv[argv.index("--inline") + 1]
        witness = report["witness"]
        check_bounds(text, word_of(report["word"]), report["len_s"], report["upper"],
                     report["lower"], report["status"],
                     None if witness is None else [word_of(w) for w in witness])
    elif command == "reflen":
        for row in rows:
            upper, lower = _int_or_none(row["upper"]), int(row["lower"])
            len_s = int(row["len_S"])
            require(upper is None or lower <= upper <= len_s, "ball row out of order")
            require(lower % 2 == len_s % 2, "ball row with the wrong parity")
    elif command == "qm-certify":
        bounds = [report["bounds"][str(k)] for k in range(1, len(report["bounds"]) + 1)]
        require(all(a <= b for a, b in zip(bounds, bounds[1:])), "bounds not monotone")
        require(Fraction(report["constant"]) > 0, "non-positive certificate constant")
    elif command == "filling":
        lo = Fraction(report["margin_over_two_pi"]["exact"][0])
        require(lo > 0, "filling margin over 2*pi is not positive")
    elif command == "warp":
        f = [float(row["f"]) for row in rows]
        require(all(x > 0 for x in f), "warp profile not positive")
        require(all(a < b for a, b in zip(f, f[1:])), "warp profile not increasing")
