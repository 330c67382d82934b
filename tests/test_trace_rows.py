"""Edge cases of building a Trace from rows, and a seeded check of its row
and column views against the bit-by-bit definition."""

import random
from array import array

import pytest

from mtlmon.errors import TraceError
from mtlmon.trace import Trace, make_trace


@pytest.mark.parametrize("rows", [
    (5,),                    # an int row: never five zero APs
    (0,),
    ((1, 0), 3),
    ("10",),                 # a str row is not a row of 0/1 values
    ((1,), ("1",)),
])
def test_a_row_that_is_not_a_sequence_of_0_and_1_is_a_value_error(rows):
    with pytest.raises(TraceError, match="AP values must be 0 or 1"):
        Trace(rows)


def test_rows_may_be_bytes_arrays_or_iterators():
    expected = ((True, False), (False, True))
    assert Trace((b"\x01\x00", bytearray(b"\x00\x01"))).events == expected
    assert Trace((array("i", [1, 0]), array("q", [0, 1]))).events == expected
    assert Trace(((v for v in (1, 0)), iter((0, 1)))).events == expected
    assert Trace(row for row in ((1, 0), (0, 1))).events == expected
    with pytest.raises(TraceError, match="AP values must be 0 or 1"):
        Trace((b"\x01\x02",))


@pytest.mark.parametrize("rows", [
    ((1,), (2, 0)),
    ((1, 0), (1,), (0.5,)),
    ((1, 0), (None,)),
    ((1,), (0, 0), 7),
])
def test_a_bad_value_is_reported_before_a_ragged_width(rows):
    with pytest.raises(TraceError, match="AP values must be 0 or 1"):
        Trace(rows)


@pytest.mark.parametrize("rows, width", [(((),), None), (((), ()), None), (((),), 0)])
def test_a_zero_width_trace_with_rows_is_rejected(rows, width):
    with pytest.raises(TraceError, match="zero-width trace"):
        Trace(rows, width)


def test_column_indexes_like_a_row():
    trace = make_trace([[1, 0, 0], [0, 1, 1], [1, 1, 0]])
    assert trace.column(-1) == trace.column(2) == 0b010
    assert trace.column(-3) == trace.column(0) == 0b101
    for ap in (3, -4):
        with pytest.raises(IndexError):
            trace.column(ap)


def test_column_of_an_empty_trace_is_0():
    for trace in (Trace(()), Trace((), 3)):
        assert [trace.column(k) for k in (0, 2, 5, -1)] == [0] * 4
        assert trace.columns(3) == [0] * 3


def test_rows_and_columns_match_the_bit_by_bit_definition():
    rng = random.Random(24)
    ones = (1, True, 1.0)
    zeros = (0, False)
    for _ in range(300):
        n = rng.choice((0, 1, 2, rng.randrange(3, 200)))
        width = rng.randrange(1, 12)
        bits = [[rng.randrange(2) for _ in range(width)] for _ in range(n)]
        rows = [
            rng.choice((list, tuple))(rng.choice(ones if b else zeros) for b in row)
            for row in bits
        ]
        declared = rng.choice((width, None))
        trace = make_trace(rows, declared)
        expected_rows = tuple(tuple(b == 1 for b in row) for row in bits)
        assert trace.events == expected_rows
        assert all(type(v) is bool for row in trace.events for v in row)
        assert len(trace) == n
        assert trace.width == (width if n or declared else 0)
        if n == 0:
            continue
        expected = [sum(bits[t][k] << t for t in range(n)) for k in range(width)]
        assert [trace.column(k) for k in range(width)] == expected
        assert trace.columns(width) == expected
        cut = rng.randrange(width + 3)
        assert trace.columns(cut) == expected[:cut]  # never more columns than the trace has
