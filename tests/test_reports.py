"""Report serialization against the value-tree rewriter it replaced.

`json_report` and `csv_report` dump report values directly, with one
default hook for `Fraction`; `reports_oracles` keeps the versions that first
rewrote every value into plain JSON.  On every report-shaped value both give
the same bytes, and a NaN or an infinity is refused rather than written.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reports_oracles
from coxlen.reports import csv_report, json_report

# CSV cells hold no None: every report row carries a value in each column
# (see test_cli.py), so the oracle's "inf" for None is not drawn
_CSV_CELLS = (st.booleans() | st.integers() | st.text()
              | st.floats(allow_nan=False, allow_infinity=False)
              | st.fractions() | st.integers().map(Fraction))
_CELLS = st.none() | _CSV_CELLS

_VALUES = st.recursive(
    _CELLS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=20)

_DOCS = st.dictionaries(st.text(max_size=6), _VALUES, max_size=5)


@settings(max_examples=200, deadline=None)
@given(report=_DOCS, config=_DOCS)
def test_json_report_matches_the_oracle(report, config):
    assert json_report(report, config) == reports_oracles.json_report(report, config)


@settings(max_examples=200, deadline=None)
@given(header=st.text(max_size=12),
       rows=st.lists(st.lists(_CSV_CELLS, max_size=5), max_size=5),
       config=_DOCS)
def test_csv_report_matches_the_oracle(header, rows, config):
    assert csv_report(header, rows, config) == reports_oracles.csv_report(header, rows, config)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_a_non_finite_float_is_refused(x):
    # the old rewriter wrote a NaN as null and an infinity as Infinity
    with pytest.raises(ValueError):
        json_report({"x": [x]}, {})
    with pytest.raises(ValueError):
        csv_report("x", [], {"x": x})

