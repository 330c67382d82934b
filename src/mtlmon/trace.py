"""Finite AP traces and their CSV file format.

File format: a header line ``time,ap0,ap1,...,ap<W-1>`` followed by one row
per step ``<t>,<0|1>,...`` with times consecutive from 0. A header-only file
is an empty trace whose width is the header's AP count; a bare ``time``
header is the empty trace of width 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from struct import iter_unpack
from typing import Iterable, Sequence

from .errors import TraceError


_BIT = {0: False, 1: True}
_VALUES = frozenset((0, 1))  # the values of a file's row and of a step's event
_DIGITS = bytes.maketrans(b"\0\1", b"01")


class _Row(tuple):
    """A row of bools that a Trace has checked; ``Fabric.step`` trusts its
    values and checks only its width. Only ``Trace`` makes one."""

    __slots__ = ()


@dataclass(frozen=True)
class Trace:
    """A fixed-width sequence of AP valuations; events[t][k] is ap<k> at t.

    The width is the number of APs per valuation. Left out, it is taken from
    the rows (0 for a trace without rows); given, it must match the rows.
    A value equal to neither 0 nor 1 is a TraceError; values become bools.

    The rows are checked once, when the trace is built: they are joined
    into one buffer of 0/1 bytes, row after row, and the rows and columns
    are read back out of it. A row that ``bytes`` refuses (one holding
    ``1.0``, say) is converted value by value first.
    """

    events: tuple[tuple[bool, ...], ...]
    width: int | None = None
    _bits: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(self.events)
        try:
            lengths = list(map(len, rows))  # first: bytes(5) would be five zeros
            bits = b"".join(map(bytes, rows))
        except (TypeError, ValueError):
            bits = None
        if bits is None or len(bits) != sum(lengths):
            # A row that bytes() refuses, or reads as other than one byte a
            # value (1.0, a str, array("i")): value by value, as bools.
            try:
                rows = tuple(tuple(map(_BIT.__getitem__, row)) for row in rows)
            except (KeyError, TypeError):
                raise TraceError("AP values must be 0 or 1") from None
            lengths = list(map(len, rows))
            bits = b"".join(map(bytes, rows))
        if bits.translate(None, b"\0\1"):
            raise TraceError("AP values must be 0 or 1")
        widths = set(lengths)
        if len(widths) > 1:
            raise TraceError(f"ragged trace: row widths {sorted(widths)}")
        if self.width is None:
            object.__setattr__(self, "width", widths.pop() if widths else 0)
        elif self.width < 0:
            raise TraceError(f"negative trace width {self.width}")
        elif widths and widths != {self.width}:
            raise TraceError(f"trace width {self.width} != row width {widths.pop()}")
        if rows and self.width == 0:
            raise TraceError("zero-width trace")
        if rows:
            rows = tuple(map(_Row, iter_unpack(f"{lengths[0]}?", bits)))
        object.__setattr__(self, "events", rows)
        object.__setattr__(self, "_bits", bits)

    def __len__(self) -> int:
        return len(self.events)

    def column(self, ap: int) -> int:
        """The ap-th column packed as an int bitmask, bit t = value at time t;
        ``ap`` indexes like a row does. 0 for a trace without rows."""
        if not self.events:
            return 0
        ap = range(self.width)[ap]  # IndexError past either end
        return int(self._bits[ap::self.width][::-1].translate(_DIGITS), 2)

    def columns(self, width: int) -> list[int]:
        """Columns 0..width-1 packed as ``column`` packs them; ``width`` is
        at most the trace's width."""
        if not self.events:
            return [0] * width
        bits, w = self._bits, self.width
        return [int(bits[k::w][::-1].translate(_DIGITS), 2) for k in range(min(width, w))]


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
        if not _VALUES.issuperset(values):
            raise TraceError(f"{path}: AP values must be 0 or 1 in row {t}")
        rows.append(values)
    return make_trace(rows, width)


def write_trace(path: str, trace: Trace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["time", *(f"ap{i}" for i in range(trace.width))]) + "\n")
        for t, row in enumerate(trace.events):
            fh.write(f"{t}," + ",".join("1" if v else "0" for v in row) + "\n")
