"""Exception classes shared across the toolchain.

The CLI maps these onto distinct exit codes; see cli.py.
"""


class ParseError(ValueError):
    """Formula text is not well-formed. Carries a character position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class IntervalError(ParseError):
    """Temporal interval is malformed (t1 > t2, or bounds not numeric)."""


class TraceError(ValueError):
    """Trace file or trace data is malformed (bad header, width mismatch, ...)."""


class AllocationError(ValueError):
    """Formula does not fit the fabric (PE/Q exhaustion, AP index out of
    range, queue head beyond capacity), or a fabric size is outside 1..65535."""


class BitstreamError(ValueError):
    """Bitstream bytes do not match the configuration (length, padding,
    field overflow)."""


class QueOverflowError(RuntimeError):
    """A que add would exceed capacity; indicates a compiler bug, since
    allocation must bound every head below the que size."""


class HardFault(RuntimeError):
    """An impossible-by-construction condition occurred at runtime: a que
    deleted an unresolved cell at its head, one cycle's offers of one
    polarity to a que left a cell uncovered inside their span (the message
    names the polarity, and the fabric's names the que too), or two
    golden-model machines modified common cells. The golden model and the
    fabric share the que rule, ``machine.que_step``, so either can raise
    the first two. Signals a misprogrammed monitor, never user error."""


class ProtocolError(RuntimeError):
    """Programming-port misuse: configuration byte received while the fabric
    is running, or a step while it is programming or has faulted."""
