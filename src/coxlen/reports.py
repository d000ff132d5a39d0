"""Deterministic report serialization.

Identical configurations yield byte-identical files, with LF line endings.
`json_report` writes {tool, version, config, report}; `csv_report` writes the
version, the configuration as one line of JSON, the header and the rows,
each cell its `str` ("inf" for None).  Every JSON text comes from `_json`:
sorted keys, no NaN or infinity, and a `Fraction` as "a/b" ("a" when whole)
through the default hook `format_rational`, as `str` renders it in a cell.
`format_interval` adds 15-significant-digit decimals to an interval's ends.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__


def format_rational(x) -> str:
    return str(Fraction(x))


def format_interval(interval):
    lo, hi = interval
    return {
        "exact": [lo, hi],
        "decimal": ["%.15g" % float(lo), "%.15g" % float(hi)],
    }


def _json(x, indent=None) -> str:
    return json.dumps(x, sort_keys=True, indent=indent, default=format_rational,
                      allow_nan=False)


def json_report(report: dict, config: dict) -> bytes:
    doc = {
        "tool": "coxlen",
        "version": __version__,
        "config": config,
        "report": report,
    }
    return (_json(doc, indent=2) + "\n").encode()


def csv_report(header, rows, config: dict) -> bytes:
    lines = [
        "# coxlen %s" % __version__,
        "# config: %s" % _json(config),
        header,
    ]
    for row in rows:
        lines.append(",".join("inf" if c is None else str(c) for c in row))
    return ("\n".join(lines) + "\n").encode()


def write_report(data: bytes, path=None):
    if path is None:
        import sys

        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)
