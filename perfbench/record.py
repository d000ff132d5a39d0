"""Rebuild the benchmark's recorded data.

    PYTHONPATH=src python3 perfbench/record.py pool      # perfbench/pool.json
    PYTHONPATH=src python3 perfbench/record.py digests   # perfbench/digests.json

`pool` draws reduced words for the element and ladder workloads and records
each word's reflection length, so that every seed can take the same number
of words from each cost class (l_R decides the cost of a word, by a factor
of up to 50).  `digests` runs the default seed of every workload once and
records the digest of every report and result; run it only at a commit
whose outputs are the reference.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import groups  # noqa: E402

POOL_PATH = os.path.join(HERE, "pool.json")
DIGESTS_PATH = os.path.join(HERE, "digests.json")
LETTERS = "abcdefghijklmnopqrstuvwxyz"
POOL_SEED = 2011
WORDS_PER_GROUP = 150


def _reduced_walk(group, length, rng):
    """A uniformly extended reduced word: never step onto a right descent."""
    g = group.identity
    word = []
    for _ in range(length):
        descents = set(group.right_descents(g))
        s = rng.choice([s for s in range(group.cm.rank) if s not in descents])
        g = g * group.generators[s]
        word.append(s)
    return tuple(word)


def _draw_words(text, lengths, rng):
    """Reduced words spread evenly over the length range, one per orbit of
    diagram automorphisms and inversion."""
    from coxlen import TitsGroup, parse_coxeter_matrix

    group = TitsGroup(parse_coxeter_matrix(text))
    autos = groups.diagram_automorphisms(text)
    lo, hi = lengths
    seen = set()
    out = []
    attempts = 0
    while len(out) < WORDS_PER_GROUP and attempts < 50 * WORDS_PER_GROUP:
        attempts += 1
        length = lo + attempts % (hi - lo + 1)
        word = _reduced_walk(group, length, rng)
        images = {group.element(tuple(p[s] for s in w)).key
                  for p in autos for w in (word, word[::-1])}
        if images & seen:
            continue
        seen |= images
        out.append(word)
    return group, out


def build_pool():
    from coxlen import ReflenProtocol, reflen_element

    rng = random.Random(POOL_SEED)
    pool = {"element": {}, "ladder": {}}
    for name, (text, lengths) in groups.ELEMENT_GROUPS.items():
        group, words = _draw_words(text, lengths, rng)
        rows = []
        for w in words:
            res = reflen_element(group.cm, w)
            rows.append(["".join(LETTERS[s] for s in w), res.len_s, res.upper])
        pool["element"][name] = rows
        print("element", name, len(rows), flush=True)
    truncated = ReflenProtocol(use_exact_solver=False, d_cap=4)
    for name, (text, lengths) in groups.LADDER_GROUPS.items():
        group, words = _draw_words(text, lengths, rng)
        rows = []
        for w in words:
            res = reflen_element(group.cm, w, truncated)
            rows.append(["".join(LETTERS[s] for s in w), res.len_s, res.upper,
                         res.status])
        pool["ladder"][name] = rows
        print("ladder", name, len(rows), flush=True)
    with open(POOL_PATH, "w", encoding="utf-8") as fh:
        fh.write(dump_pool(pool))


def dump_pool(pool):
    """The pool as JSON with one word per line."""
    parts = []
    for kind in sorted(pool):
        groups_text = []
        for name in sorted(pool[kind]):
            rows = ",\n".join(json.dumps(r) for r in pool[kind][name])
            groups_text.append("%s: [\n%s\n]" % (json.dumps(name), rows))
        parts.append("%s: {\n%s\n}" % (json.dumps(kind), ",\n".join(groups_text)))
    return "{\n%s\n}\n" % ",\n".join(parts)


def record_digests():
    import run
    import workloads

    digests = {}
    for name in workloads.WORKLOADS:
        ops = workloads.make_ops(name, workloads.DEFAULT_SEED)
        result = run.run_round(ops, name, trace=False, tag="record")
        shutil.rmtree(os.path.join(run.OUT_DIR, "record"), ignore_errors=True)
        bad = [rec for rec in result["ops"] if "check_failed" in rec]
        if bad:
            sys.exit("refusing to record outputs that fail their checks: %r" % bad)
        digests[name] = {rec["id"]: rec["digest"] for rec in result["ops"]
                         if "digest" in rec}
        print(name, len(digests[name]), flush=True)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["pool"]:
        build_pool()
    elif sys.argv[1:] == ["digests"]:
        record_digests()
    else:
        sys.exit("usage: record.py pool|digests")
