"""Per-call rows for the hot primitives, on fixed inputs, timed from outside.

    python3 perfbench/micro.py        # prints one JSON object of rows

Runs in its own fresh interpreter, so each field below is freshly built:
sign cost depends on how far the field's theta interval has been refined,
so `sign_us` times the first pass over a fixed list on a new field, which
includes the refinements.  `mul_us` and `mulkey_us` report the median batch.
"""

import json
import random
import statistics
import time

import coxlen

FIELDS = {"deg1": 3, "deg4": 12, "deg8": 30}     # conductor N of each degree
GROUPS = {"W3": "rank 3; m12=inf m13=inf m23=inf", "H3": "rank 3; m12=3 m23=5",
          "B4h": "rank 4; m12=4 m23=3 m34=4 m14=3"}
BATCHES = 7


def _per_call_us(fn, calls):
    times = []
    for _ in range(BATCHES):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times) / calls * 1e6


def _scalars(field, count, rng):
    return [field.scalar([rng.randint(-3, 3) for _ in range(field.degree)])
            for _ in range(count)]


def _field_rows(rng):
    rows = {}
    for name, N in FIELDS.items():
        field = coxlen.RealCyclotomicField(N)
        if field.degree > 1:
            xs = [x for x in _scalars(field, 400, rng) if not x.is_zero()]
            t = time.perf_counter()
            for x in xs:
                x.sign()
            rows["exactfield.sign_us." + name] = (time.perf_counter() - t) / len(xs) * 1e6
        xs = _scalars(field, 20, rng)
        rows["exactfield.mul_us." + name] = _per_call_us(
            lambda: [x * y for x in xs for y in xs], len(xs) ** 2)
    return rows


def _group_rows(rng):
    rows = {}
    for name, text in GROUPS.items():
        group = coxlen.TitsGroup(coxlen.parse_coxeter_matrix(text))
        rank = group.cm.rank
        elems = [group.element([rng.randrange(rank) for _ in range(6)]) for _ in range(20)]
        rows["tits.mulkey_us." + name] = _per_call_us(
            lambda: [(x * y).key for x in elems for y in elems], len(elems) ** 2)
    return rows


def main():
    rows = {}
    for make in (_field_rows, _group_rows):
        try:
            rows.update(make(random.Random(2011)))
        except (AttributeError, TypeError):
            pass  # the primitive's interface changed: its rows are reported absent
    print(json.dumps(rows))


if __name__ == "__main__":
    main()
