"""Brute-force MTL evaluation over finite traces.

This is the reference the fabric is checked against, so it deliberately
shares nothing with the monitor machinery: every operator is evaluated by
direct quantifier expansion over the trace. Columns are packed into int
bitmasks (bit t = truth at time t), which makes the expansion a handful of
shift/mask operations per operator.

Verdicts are emitted only where the finite trace determines them: time i is
defined iff i + semantic_future(f) < len(trace).
"""

from __future__ import annotations

from . import formula as F
from .errors import TraceError
from .trace import Trace


def _eval_bits(f: F.Formula, cols: list[int], n: int, mask: int) -> int:
    """Truth bitmask of f over times 0..n-1.

    Bits at positions within semantic_future(f) of the end are garbage
    (shifts pull in zeros); callers truncate to the defined range.
    """
    if isinstance(f, F.TrueConst):
        return mask
    if isinstance(f, F.AP):
        return cols[f.index]
    if isinstance(f, F.Not):
        return ~_eval_bits(f.child, cols, n, mask) & mask
    if isinstance(f, F.And):
        return _eval_bits(f.left, cols, n, mask) & _eval_bits(f.right, cols, n, mask)
    if isinstance(f, F.Or):
        return _eval_bits(f.left, cols, n, mask) | _eval_bits(f.right, cols, n, mask)
    if isinstance(f, F.Implies):
        l = _eval_bits(f.left, cols, n, mask)
        r = _eval_bits(f.right, cols, n, mask)
        return (~l & mask) | r
    if isinstance(f, F.Next):
        return _eval_bits(f.child, cols, n, mask) >> 1
    if isinstance(f, F.Box):
        c = _eval_bits(f.child, cols, n, mask)
        acc = mask
        for d in range(f.lo, f.hi + 1):
            acc &= c >> d
        return acc
    if isinstance(f, F.Diamond):
        c = _eval_bits(f.child, cols, n, mask)
        acc = 0
        for d in range(f.lo, f.hi + 1):
            acc |= c >> d
        return acc
    if isinstance(f, F.Until):
        l = _eval_bits(f.left, cols, n, mask)
        r = _eval_bits(f.right, cols, n, mask)
        acc = 0
        prefix = mask  # "left held at all offsets < d", starting vacuously true
        for d in range(0, f.hi + 1):
            if d >= f.lo:
                acc |= prefix & (r >> d)
            prefix &= l >> d
        return acc
    raise TypeError(f"not a formula: {f!r}")


def _columns(f: F.Formula, trace: Trace) -> list[int]:
    aps = F.ap_indices(f)
    if aps and trace.width <= max(aps):
        raise TraceError(
            f"trace width {trace.width} does not cover ap{max(aps)}"
        )
    width = max(aps) + 1 if aps else 0
    return [trace.column(k) for k in range(width)]


def oracle_verdicts(f: F.Formula, trace: Trace) -> list[bool]:
    """Verdicts for times 0..len(trace)-1-semantic_future(f), in time order."""
    n = len(trace)
    defined = n - F.semantic_future(f)
    if defined <= 0:
        return []
    mask = (1 << n) - 1
    bits = _eval_bits(f, _columns(f, trace), n, mask)
    return [bool(bits >> i & 1) for i in range(defined)]


def satisfies(f: F.Formula, trace: Trace, i: int) -> bool:
    """Textbook recursive satisfaction check; used to cross-check the
    bitmask evaluation in tests. Only meaningful on the defined range."""
    return _satisfies(f, trace, i, 0)


def _satisfies(f: F.Formula, trace: Trace, i: int, depth: int) -> bool:
    if isinstance(f, F.TrueConst):
        return True
    if isinstance(f, F.AP):
        return trace.events[i][f.index]
    d = F._deeper(depth)
    if isinstance(f, F.Not):
        return not _satisfies(f.child, trace, i, d)
    if isinstance(f, F.And):
        return _satisfies(f.left, trace, i, d) and _satisfies(f.right, trace, i, d)
    if isinstance(f, F.Or):
        return _satisfies(f.left, trace, i, d) or _satisfies(f.right, trace, i, d)
    if isinstance(f, F.Implies):
        return not _satisfies(f.left, trace, i, d) or _satisfies(f.right, trace, i, d)
    if isinstance(f, F.Next):
        return _satisfies(f.child, trace, i + 1, d)
    if isinstance(f, F.Box):
        return all(_satisfies(f.child, trace, j, d) for j in range(i + f.lo, i + f.hi + 1))
    if isinstance(f, F.Diamond):
        return any(_satisfies(f.child, trace, j, d) for j in range(i + f.lo, i + f.hi + 1))
    if isinstance(f, F.Until):
        return any(
            _satisfies(f.right, trace, j, d)
            and all(_satisfies(f.left, trace, k, d) for k in range(i, j))
            for j in range(i + f.lo, i + f.hi + 1)
        )
    raise TypeError(f"not a formula: {f!r}")
