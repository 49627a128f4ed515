"""Property tests of the text format: values read back exactly, CSV keeps its shape."""

import math
import string

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from circulaw.experiments import (  # noqa: E402
    ExperimentReport,
    format_complex,
    parse_complex,
    render_report,
)
from circulaw.textio import csv_text, format_value, stable_dumps  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False)
field_values = st.one_of(
    finite, st.integers(), st.booleans(),
    st.text(alphabet=string.ascii_letters + string.digits + "._+- "),
)
columns = st.lists(st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=8),
                   min_size=1, max_size=6, unique=True)


@settings(max_examples=500, deadline=None)
@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_complex_roundtrip(z):
    assert parse_complex(format_complex(z)) == z


@settings(max_examples=500, deadline=None)
@given(finite)
def test_float_roundtrip(x):
    assert float(format_value(x)) == x
    assert float(stable_dumps(x)) == x


@settings(max_examples=60, deadline=None)
@given(columns.flatmap(
    lambda cols: st.tuples(st.just(cols), st.lists(st.fixed_dictionaries(
        {c: field_values for c in cols}), max_size=8))
))
def test_report_csv_shape(cols_rows):
    cols, rows = cols_rows
    report = ExperimentReport(cols, rows, {"spec_hash": "h"})
    text = render_report(report, "csv")
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    assert len(lines) == len(rows) + 1
    assert lines[0] == ",".join(cols)
    assert all(len(line.split(",")) == len(cols) for line in lines)


def test_booleans_are_one_and_zero():
    assert csv_text(["a", "b", "c"], [(True, False, 0.5)]) == "a,b,c\n1,0,0.5\n"
    assert stable_dumps({"x": True, "y": math.pi}) == '{"x": true, "y": 3.1415926535897931}'
