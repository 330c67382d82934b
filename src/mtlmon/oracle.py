"""Brute-force MTL evaluation over finite traces.

This is the reference the fabric is checked against, so it deliberately
shares nothing with the monitor machinery: every operator is evaluated by
direct quantifier expansion over the trace. Columns are packed into int
bitmasks (bit t = truth at time t), which makes the expansion a handful of
shift/mask operations per operator.

Verdicts are emitted only where the finite trace determines them: time i is
defined iff i + semantic_future(f) < len(trace); ``satisfies`` raises
TraceError outside that range. A formula cannot be built nested deeper than
``formula.MAX_NESTING``, so the recursion here needs no depth check.
"""

from __future__ import annotations

from struct import unpack

from . import formula as F
from .errors import TraceError
from .trace import Trace

_BOOL_BYTES = bytes.maketrans(b"01", b"\0\1")


def _eval_bits(f: F.Formula, cols: list[int], mask: int) -> int:
    """Truth bitmask of f over the times of ``mask``, one set bit per time.

    Bits at positions within semantic_future(f) of the end are garbage
    (shifts pull in zeros); callers truncate to the defined range.
    """
    if isinstance(f, F.TrueConst):
        return mask
    if isinstance(f, F.AP):
        return cols[f.index]
    if isinstance(f, F.Not):
        return ~_eval_bits(f.child, cols, mask) & mask
    if isinstance(f, F.And):
        return _eval_bits(f.left, cols, mask) & _eval_bits(f.right, cols, mask)
    if isinstance(f, F.Or):
        return _eval_bits(f.left, cols, mask) | _eval_bits(f.right, cols, mask)
    if isinstance(f, F.Implies):
        l = _eval_bits(f.left, cols, mask)
        r = _eval_bits(f.right, cols, mask)
        return (~l & mask) | r
    if isinstance(f, F.Next):
        return _eval_bits(f.child, cols, mask) >> 1
    if isinstance(f, F.Box):
        c = _eval_bits(f.child, cols, mask)
        acc = mask
        for d in range(f.lo, f.hi + 1):
            acc &= c >> d
        return acc
    if isinstance(f, F.Diamond):
        c = _eval_bits(f.child, cols, mask)
        acc = 0
        for d in range(f.lo, f.hi + 1):
            acc |= c >> d
        return acc
    if isinstance(f, F.Until):
        l = _eval_bits(f.left, cols, mask)
        r = _eval_bits(f.right, cols, mask)
        acc = 0
        prefix = mask  # "left held at all offsets < d", starting vacuously true
        for d in range(0, f.hi + 1):
            if d >= f.lo:
                acc |= prefix & (r >> d)
            prefix &= l >> d
        return acc
    raise TypeError(f"not a formula: {f!r}")


def _width(f: F.Formula, trace: Trace) -> int:
    """The columns f reads: 1 + its largest AP index, 0 if it has none.
    TraceError if the trace lacks one of them."""
    top = f.top_ap
    if trace.width <= top:
        raise TraceError(f"trace width {trace.width} does not cover ap{top}")
    return top + 1


def oracle_verdicts(f: F.Formula, trace: Trace) -> list[bool]:
    """Verdicts for times 0..len(trace)-1-semantic_future(f), in time order."""
    n = len(trace)
    defined = n - F.semantic_future(f)
    if defined <= 0:
        return []
    mask = (1 << n) - 1
    cols = trace.columns(_width(f, trace))
    bits = _eval_bits(f, cols, mask) & ((1 << defined) - 1)
    # Bit i is verdict i: its binary digits, least significant first, as bools.
    digits = format(bits, f"0{defined}b")[::-1].encode()
    return list(unpack(f"{defined}?", digits.translate(_BOOL_BYTES)))


def satisfies(f: F.Formula, trace: Trace, i: int) -> bool:
    """Textbook recursive satisfaction check; used to cross-check the
    bitmask evaluation in tests. TraceError unless the trace covers every AP
    of f and determines the verdict at i, i.e. 0 <= i < len(trace) -
    semantic_future(f)."""
    _width(f, trace)
    last = len(trace) - 1 - F.semantic_future(f)
    if not 0 <= i <= last:
        raise TraceError(f"time {i} is outside 0..{last}, the times this trace determines")
    return _satisfies(f, trace, i)


def _satisfies(f: F.Formula, trace: Trace, i: int) -> bool:
    if isinstance(f, F.TrueConst):
        return True
    if isinstance(f, F.AP):
        return trace.events[i][f.index]
    if isinstance(f, F.Not):
        return not _satisfies(f.child, trace, i)
    if isinstance(f, F.And):
        return _satisfies(f.left, trace, i) and _satisfies(f.right, trace, i)
    if isinstance(f, F.Or):
        return _satisfies(f.left, trace, i) or _satisfies(f.right, trace, i)
    if isinstance(f, F.Implies):
        return not _satisfies(f.left, trace, i) or _satisfies(f.right, trace, i)
    if isinstance(f, F.Next):
        return _satisfies(f.child, trace, i + 1)
    if isinstance(f, F.Box):
        return all(_satisfies(f.child, trace, j) for j in range(i + f.lo, i + f.hi + 1))
    if isinstance(f, F.Diamond):
        return any(_satisfies(f.child, trace, j) for j in range(i + f.lo, i + f.hi + 1))
    if isinstance(f, F.Until):
        return any(
            _satisfies(f.right, trace, j)
            and all(_satisfies(f.left, trace, k) for k in range(i, j))
            for j in range(i + f.lo, i + f.hi + 1)
        )
    raise TypeError(f"not a formula: {f!r}")
