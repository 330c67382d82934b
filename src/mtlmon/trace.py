"""Finite AP traces and their CSV file format.

File format: a header line ``time,ap0,ap1,...,ap<W-1>`` followed by one row
per step ``<t>,<0|1>,...`` with times consecutive from 0. A header-only file
is an empty trace whose width is the header's AP count; a bare ``time``
header is the empty trace of width 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from .errors import TraceError


_BIT = {0: False, 1: True}
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _pack(bits: Sequence[bool]) -> int:
    """Bools as an int bitmask, bit t = bits[t]; 0 for no bits."""
    return int(bytes(bits[::-1]).translate(_DIGITS) or b"0", 2)


@dataclass(frozen=True)
class Trace:
    """A fixed-width sequence of AP valuations; events[t][k] is ap<k> at t.

    The width is the number of APs per valuation. Left out, it is taken from
    the rows (0 for a trace without rows); given, it must match the rows.
    A value equal to neither 0 nor 1 is a TraceError; values become bools.
    """

    events: tuple[tuple[bool, ...], ...]
    width: int | None = None

    def __post_init__(self):
        try:
            events = tuple(tuple(map(_BIT.__getitem__, row)) for row in self.events)
        except (KeyError, TypeError):
            raise TraceError("AP values must be 0 or 1") from None
        object.__setattr__(self, "events", events)
        widths = {len(e) for e in events}
        if len(widths) > 1:
            raise TraceError(f"ragged trace: row widths {sorted(widths)}")
        if self.width is None:
            object.__setattr__(self, "width", widths.pop() if widths else 0)
        elif self.width < 0:
            raise TraceError(f"negative trace width {self.width}")
        elif widths and widths != {self.width}:
            raise TraceError(f"trace width {self.width} != row width {widths.pop()}")
        if self.events and self.width == 0:
            raise TraceError("zero-width trace")

    def __len__(self) -> int:
        return len(self.events)

    def column(self, ap: int) -> int:
        """The ap-th column packed as an int bitmask, bit t = value at time t."""
        return _pack([row[ap] for row in self.events])

    def columns(self, width: int) -> list[int]:
        """Columns 0..width-1 packed as ``column`` packs them, in one
        transpose; ``width`` is at most the trace's width."""
        if not self.events:
            return [0] * width
        return [_pack(col) for col in islice(zip(*self.events), width)]


def make_trace(rows: Iterable[Sequence[int | bool]], width: int | None = None) -> Trace:
    """A trace from 0/1 rows; ``width`` fixes the width of a trace without rows."""
    return Trace(tuple(rows), width)


def read_trace(path: str) -> Trace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError:
        raise TraceError(f"{path}: not UTF-8 text") from None
    if not lines:
        raise TraceError(f"{path}: empty trace file")
    header = lines[0].split(",")
    if header[0] != "time" or any(col != f"ap{i}" for i, col in enumerate(header[1:])):
        raise TraceError(f"{path}: bad header {lines[0]!r}")
    width = len(header) - 1
    rows = []
    for expected_t, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != width + 1:
            raise TraceError(f"{path}: row {expected_t} has {len(cells) - 1} values, want {width}")
        try:
            t = int(cells[0])
            values = [int(c) for c in cells[1:]]
        except ValueError as exc:
            raise TraceError(f"{path}: non-numeric cell in row {expected_t}") from exc
        if t != expected_t:
            raise TraceError(f"{path}: times must be consecutive from 0, got {t}")
        if any(v not in (0, 1) for v in values):
            raise TraceError(f"{path}: AP values must be 0 or 1 in row {t}")
        rows.append(values)
    return make_trace(rows, width)


def write_trace(path: str, trace: Trace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["time", *(f"ap{i}" for i in range(trace.width))]) + "\n")
        for t, row in enumerate(trace.events):
            fh.write(f"{t}," + ",".join("1" if v else "0" for v in row) + "\n")
