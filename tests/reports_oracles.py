"""Oracles for report serialization: `json_report` and `csv_report` as they
were before every value went through one `json.dumps` default hook.

* `jsonable(x)` rewrote a value tree into plain JSON before it was dumped:
  a Fraction as "a/b" ("a" when whole), dict keys through `str`, tuples as
  lists, a NaN as None and bytes as hex.
* `csv_cell(c)` rendered one CSV cell: `repr` for a float, "a/b" for a
  Fraction, "inf" for None and `str` for anything else.
"""

import json
from fractions import Fraction

from coxlen import __version__


def format_rational(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def jsonable(x):
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, float):
        return float(repr(x)) if x == x else None
    if isinstance(x, bytes):
        return x.hex()
    return x


def json_report(report: dict, config: dict) -> bytes:
    doc = {
        "tool": "coxlen",
        "version": __version__,
        "config": jsonable(config),
        "report": jsonable(report),
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def csv_cell(c):
    if isinstance(c, float):
        return repr(c)
    if isinstance(c, Fraction):
        return format_rational(c)
    if c is None:
        return "inf"
    return str(c)


def csv_report(header, rows, config: dict) -> bytes:
    lines = [
        "# coxlen %s" % __version__,
        "# config: %s" % json.dumps(jsonable(config), sort_keys=True),
        header,
    ]
    for row in rows:
        lines.append(",".join(csv_cell(c) for c in row))
    return ("\n".join(lines) + "\n").encode()
