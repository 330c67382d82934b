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


class HardFault(RuntimeError):
    """An impossible-by-construction condition occurred at runtime: a que
    deleted an unresolved cell at its head, one cycle's offers of one
    polarity to a que left a cell uncovered inside their span, or one
    cycle's writers offered an unknown cell both true and false. The golden
    model and the fabric share the rules, ``machine.group_offer`` (whose
    ``machine.check_offers`` tests the gap) and ``machine.que_run`` on its
    ``machine.que_offer`` digest, so either can raise each;
    the fabric's message names the que too. Signals a misprogrammed
    monitor, never user error."""


class ProtocolError(RuntimeError):
    """Programming-port misuse: configuration byte received while the fabric
    is running, or a step while it is programming or has faulted."""
