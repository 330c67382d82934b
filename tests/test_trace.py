import random

import pytest

from mtlmon.errors import TraceError
from mtlmon.trace import Trace, make_trace, read_trace, write_trace


def test_roundtrip(tmp_path):
    trace = make_trace([[1, 0, 1], [0, 0, 0], [1, 1, 1]])
    path = tmp_path / "t.csv"
    write_trace(str(path), trace)
    assert read_trace(str(path)) == trace
    header = path.read_text().splitlines()[0]
    assert header == "time,ap0,ap1,ap2"


def test_empty_trace_file_is_header_only(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(str(path), make_trace([]))
    # an empty trace has no width; write a 2-ap header by hand instead
    path.write_text("time,ap0,ap1\n")
    trace = read_trace(str(path))
    assert len(trace) == 0


def test_empty_trace_keeps_its_width(tmp_path):
    trace = Trace((), width=2)
    path = tmp_path / "t.csv"
    write_trace(str(path), trace)
    assert path.read_text() == "time,ap0,ap1\n"
    back = read_trace(str(path))
    assert back == trace
    assert back.width == 2


def test_zero_width_empty_trace_roundtrips(tmp_path):
    trace = make_trace([])
    path = tmp_path / "t.csv"
    write_trace(str(path), trace)
    assert path.read_text() == "time\n"
    assert read_trace(str(path)) == trace


def test_make_trace_width_for_no_rows():
    assert make_trace([], 3) == Trace((), width=3)
    assert make_trace([[1, 0]]) == Trace(((True, False),), width=2)


@pytest.mark.parametrize("value", [2, -1, 0.5, "1", None, [1]])
def test_make_trace_rejects_values_other_than_0_and_1(value):
    with pytest.raises(TraceError, match="AP values must be 0 or 1"):
        make_trace([[value], [0]])


def test_make_trace_takes_bools_and_numbers_equal_to_0_or_1():
    assert make_trace([[True, False, 0, 1, 1.0]]).events == ((True, False, False, True, True),)


@pytest.mark.parametrize("events, width", [
    (((True,), (False,)), 2),            # declared width disagrees with rows
    (((True, False),), 1),
    (((),), 0),                          # rows without AP columns
    (((),), None),
    ((), -1),                            # negative width
])
def test_bad_width_rejected(events, width):
    with pytest.raises(TraceError):
        Trace(events, width)


@pytest.mark.parametrize("content", [
    "",                                  # no header
    "t,ap0\n0,1\n",                      # wrong time column
    "time,ap1\n0,1\n",                   # ap columns must start at ap0
    "time,ap0\n1,1\n",                   # times must start at 0
    "time,ap0\n0,1\n2,0\n",              # times must be consecutive
    "time,ap0\n0,2\n",                   # values are 0/1
    "time,ap0\n0,1,1\n",                 # row wider than header
    "time,ap0\n0,x\n",                   # non-numeric
    "time\n0\n",                         # rows without AP columns
    "time,\n",                           # empty AP column name
])
def test_malformed_files_are_rejected(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(TraceError):
        read_trace(str(path))


@pytest.mark.parametrize("content, message", [
    ("time,ap0,ap1\n0,1,0\n1,0,2\n2,1,1\n4,0,0\n", "AP values must be 0 or 1 in row 1"),
    ("time,ap0,ap1\n0,1,0\n2,0,0\n2,1,1\n3,0,9\n",
     "times must be consecutive from 0, got 2"),
])
def test_a_file_reports_its_first_bad_row(tmp_path, content, message):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(TraceError, match=f"^{path}: {message}$"):
        read_trace(str(path))


def test_file_that_is_not_utf8_is_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"time,ap0\n0,1\xff\n")
    with pytest.raises(TraceError, match=f"{path}: not UTF-8 text"):
        read_trace(str(path))


@pytest.mark.parametrize("value", [2, -1, None])
def test_a_trace_built_directly_takes_only_0_and_1(value):
    with pytest.raises(TraceError, match="AP values must be 0 or 1"):
        Trace(((1,), (value,)))


def test_a_trace_built_directly_holds_bools():
    events = Trace(((1, 0), (0, 1))).events
    assert events == ((True, False), (False, True))
    assert all(type(v) is bool for row in events for v in row)


def test_ragged_rows_rejected():
    with pytest.raises(TraceError):
        Trace(((True,), (True, False)))


def test_column_bitmask():
    trace = make_trace([[1, 0], [0, 1], [1, 1]])
    assert trace.column(0) == 0b101
    assert trace.column(1) == 0b110


def test_columns_pack_like_the_bit_by_bit_definition():
    rng = random.Random(5)
    shapes = [(0, 0), (0, 3), (1, 1), (40, 1), (3, 4)]
    shapes += [(rng.randrange(1, 300), rng.randrange(1, 20)) for _ in range(30)]
    for n, width in shapes:
        rows = [[rng.randrange(2) for _ in range(width)] for _ in range(n)]
        trace = make_trace(rows, width)
        expected = [sum(rows[t][k] << t for t in range(n)) for k in range(width)]
        assert trace.columns(width) == expected, (n, width)
        assert trace.columns(width // 2) == expected[: width // 2], (n, width)
        assert [trace.column(k) for k in range(width)] == expected, (n, width)
