"""Golden model of the programmable evaluator machines.

A que is a bounded buffer over {True, False, Maybe}; cell 0 is the tail
(most recently added). Each step an abstract machine computes a five-opcode
boolean result and conditionally overwrites Maybe cells inside a programmed
interval. An evaluator machine (EM) is 1-3 such machines sharing one que;
it realizes exactly one MTL operator, and the values deleted at the que head
form its verdict stream.

Shared-que stepping: the machines' offers are ORed per polarity and the
que takes one ``que_step``, the que-update rule the fabric runs too. The
firing machines of one step never settle a common cell (checked), so the
order of the machines does not matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import HardFault, QueOverflowError


class _MaybeType:
    __slots__ = ()

    def __repr__(self):
        return "Maybe"


MAYBE = _MaybeType()

Interval = tuple[int, int]

OPCODE_ARITY = {"wire": 1, "not": 1, "or": 2, "and": 2, "implies": 2}

# lo > hi means "this polarity never writes"; canonical encoding (1, 0).
EMPTY_INTERVAL = (1, 0)


def is_empty(interval: Interval) -> bool:
    return interval[0] > interval[1]


def am_result(opcode: str, op0: bool, op1: Optional[bool] = None) -> bool:
    """The boolean result an abstract machine computes from its operands."""
    if opcode not in OPCODE_ARITY:
        raise ValueError(f"unknown opcode {opcode!r}")
    if OPCODE_ARITY[opcode] != (1 if op1 is None else 2):
        raise ValueError(f"opcode {opcode!r} takes {OPCODE_ARITY[opcode]} operand(s)")
    if opcode == "not":
        return not op0
    if opcode == "wire":
        return op0
    if opcode == "and":
        return op0 and op1
    if opcode == "or":
        return op0 or op1
    return (not op0) or op1


def min_head(kind: str, interval: Optional[Interval] = None) -> int:
    """Minimum que head of the EM realizing one operator: 1 for the Boolean
    connectives and the wire, 2 for next, t2+1 for interval operators."""
    if kind in ("box", "diamond", "until"):
        return interval[1] + 1
    return 2 if kind == "next" else 1


# ---------------------------------------------------------------------------
# Que
# ---------------------------------------------------------------------------

def interval_mask(interval: Interval) -> int:
    """The que cells lo..hi of an interval as a bit mask; empty is 0."""
    lo, hi = interval
    return 0 if is_empty(interval) else (1 << (hi + 1)) - (1 << lo)


def que_step(
    que: tuple[int, int, int], bot: int, top: int, head: int
) -> tuple[tuple[int, int, int], Optional[bool]]:
    """One cycle of the que-update rules, shared by the golden model and the
    fabric; returns the new que and the value deleted at ``head`` (None in
    warm-up).

    A que is three ints, (occupancy, known, value), with bit k standing for
    cell k and cell 0 the newest; a known cell holds its value bit, an
    unknown one is Maybe. ``bot`` and ``top`` are the ORed false and true
    offers of the que's firing writers as masks. Each must be one contiguous
    run of cells, because until's machines close a span together; a gap is
    a hard fault. Then: add shifts every cell up one and makes cell 0 an
    unknown cell; modify settles the unknown live cells of ``top`` true,
    then those of ``bot`` false, so settled cells and cells beyond the
    occupancy are untouched; delete removes cell ``head`` once it exists,
    and deleting an unknown cell is a hard fault (a misprogrammed head).
    Every reachable que enters with at most ``head`` cells, so the deleted
    cell is the oldest and the que keeps ``head`` cells.
    """
    if top & (top + (top & -top)) or bot & (bot + (bot & -bot)):
        for mask, polarity in ((top, "top"), (bot, "bot")):
            carry = mask + (mask & -mask)  # clears the lowest run of cells
            if mask & carry:
                gap = (carry & -carry).bit_length() - 1
                raise HardFault(f"{polarity} offers leave cell {gap} uncovered")
    occ, known, value = que
    occ += 1
    live = (1 << occ) - 1
    known <<= 1
    new = top & live & ~known
    value = value << 1 | new
    known |= new | bot & live
    if occ <= head:
        return (occ, known, value), None
    cell = 1 << head
    if not known & cell:
        raise HardFault(f"deleted unresolved cell at head {head}: misprogrammed head")
    return (head, known ^ cell, value & ~cell), bool(value & cell)


@dataclass(frozen=True)
class QueState:
    """A golden-model que: the ``que_step`` triple plus its capacity."""

    occupancy: int
    known: int
    value: int
    capacity: int

    @property
    def cells(self) -> tuple:
        """The cells as True/False/MAYBE, cell 0 (the tail) first."""
        return tuple(
            bool(self.value >> k & 1) if self.known >> k & 1 else MAYBE
            for k in range(self.occupancy)
        )


def empty_que(capacity: int) -> QueState:
    return QueState(0, 0, 0, capacity)


# ---------------------------------------------------------------------------
# Abstract and evaluator machines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmProgram:
    """One abstract machine of an EM.

    op0/op1 select which of the EM's operand streams feed the machine
    (e.g. the until realization has a wire machine reading stream 1).
    The intervals are those of the machine's PE record: a polarity that
    never writes carries ``EMPTY_INTERVAL``.
    """

    opcode: str
    op0: int
    op1: Optional[int]
    top_interval: Interval
    bot_interval: Interval


@dataclass(frozen=True)
class EvaluatorMachine:
    """1-3 abstract machines sharing one que, realizing one MTL operator."""

    kind: str
    ams: tuple[AmProgram, ...]
    head: int

    @property
    def arity(self) -> int:  # the number of operand streams
        return len(stream_ports(self.ams))


def em_build(kind: str, head: int, interval: Optional[Interval] = None) -> EvaluatorMachine:
    """Instantiate the machine programming for a single MTL operator.

    kind is one of not/and/or/implies/next/box/diamond/until, plus the
    synthetic pass-through 'wire'. Interval operators require interval=(t1,t2);
    until with t1 >= 1 takes three machines, with t1 = 0 two.

    The one table of operator shapes: compiler and fabric read it through
    ``stream_ports``. Each interval is ``EMPTY_INTERVAL`` or ends at or
    below t2 (interval operators), at 1 (next) or at 0, so below the minimum
    head; ``allocate`` copies the intervals into the PE records as they are.
    """
    temporal = kind in ("box", "diamond", "until")
    if temporal:
        if interval is None:
            raise ValueError(f"{kind} needs an interval")
        t1, t2 = interval
        if not 0 <= t1 <= t2:
            raise ValueError(f"bad interval [{t1},{t2}]")
    elif interval is not None:
        raise ValueError(f"{kind} takes no interval")

    if kind in ("not", "and", "or", "implies", "wire"):
        op1 = 1 if OPCODE_ARITY[kind] == 2 else None
        ams = (AmProgram(kind, 0, op1, (0, 0), (0, 0)),)
    elif kind == "next":
        ams = (AmProgram("wire", 0, None, (1, 1), (1, 1)),)
    elif kind == "box":
        ams = (AmProgram("wire", 0, None, (t2, t2), (t1, t2)),)
    elif kind == "diamond":
        ams = (AmProgram("wire", 0, None, (t1, t2), (t2, t2)),)
    elif kind == "until":
        # The or machine settles false the cells t1..t2-1, none if t1 = t2.
        below_t2 = (t1, t2 - 1) if t1 < t2 else EMPTY_INTERVAL
        if t1 >= 1:
            ams = (
                AmProgram("wire", 0, None, EMPTY_INTERVAL, (0, t1 - 1)),
                AmProgram("wire", 1, None, (t1, t2), (t2, t2)),
                AmProgram("or", 0, 1, EMPTY_INTERVAL, below_t2),
            )
        else:
            ams = (
                AmProgram("or", 0, 1, EMPTY_INTERVAL, below_t2),
                AmProgram("wire", 1, None, (0, t2), (t2, t2)),
            )
    else:
        raise ValueError(f"unknown operator kind {kind!r}")

    lo_head = min_head(kind, interval)
    if head < lo_head:
        raise ValueError(f"head {head} below the minimum {lo_head} for {kind}")
    return EvaluatorMachine(kind, ams, head)


def stream_ports(ams: Sequence[AmProgram]) -> list[list[tuple[int, int]]]:
    """For each operand stream of an EM, the (machine, slot) ports reading it:
    first the port a que's reader fields name (the wire machine's if one
    reads the stream, else the first reader's), then the taps, which the
    fabric feeds from the named port's que."""
    readers: dict[int, list[tuple[int, int]]] = {}
    for m, am in enumerate(ams):
        for slot, stream in enumerate((am.op0, am.op1)):
            if stream is not None:
                ports = readers.setdefault(stream, [])
                if am.opcode == "wire":
                    ports.insert(0, (m, slot))
                else:
                    ports.append((m, slot))
    return [readers[s] for s in sorted(readers)]


@dataclass(frozen=True)
class StepTrace:
    """Everything one shared-que step did, for golden-table checks."""

    results: tuple[bool, ...]
    after_add: tuple
    fired: tuple[tuple[bool, Interval], ...]  # (value, interval) per firing machine
    after_modify: tuple
    after_del: tuple
    verdict: Optional[bool]


def em_step_trace(
    em: EvaluatorMachine, q: QueState, op0: bool, op1: Optional[bool] = None
) -> tuple[QueState, StepTrace]:
    if em.arity == 2 and op1 is None:
        raise ValueError(f"{em.kind} needs two operand values")
    if em.arity == 1 and op1 is not None:
        raise ValueError(f"{em.kind} takes one operand value")
    if q.occupancy >= q.capacity:
        raise QueOverflowError(
            f"que of capacity {q.capacity} is full; the formula needs a deeper que"
        )
    assert q.occupancy <= em.head, "occupancy exceeded head"
    operands = (op0, op1)
    # The unknown live cells once the add has run: the cells a modify can
    # settle, judged before any modify so an earlier one cannot mask an overlap.
    unknown = (1 << q.occupancy + 1) - 1 & ~(q.known << 1)
    results = []
    fired = []
    offer = [0, 0]  # [bottom mask, top mask]
    touched = 0
    for am in em.ams:
        res = am_result(
            am.opcode, operands[am.op0], None if am.op1 is None else operands[am.op1]
        )
        results.append(res)
        interval = am.top_interval if res else am.bot_interval
        if not is_empty(interval):
            mask = interval_mask(interval)
            # The firing machines of one step must settle disjoint cells;
            # overlap would make the shared-que result order-dependent.
            common = touched & mask
            if common:
                cells = {k for k in range(common.bit_length()) if common >> k & 1}
                raise HardFault(f"machines of {em.kind} modified common cells {cells}")
            touched |= mask & unknown
            offer[res] |= mask
            fired.append((res, interval))
    after_add = (MAYBE,) + q.cells
    que, verdict = que_step((q.occupancy, q.known, q.value), *offer, em.head)
    q = QueState(*que, q.capacity)
    after_del = q.cells
    after_modify = after_del if verdict is None else after_del + (verdict,)
    return q, StepTrace(tuple(results), after_add, tuple(fired), after_modify, after_del, verdict)


def em_step(
    em: EvaluatorMachine, q: QueState, op0: bool, op1: Optional[bool] = None
) -> tuple[QueState, Optional[bool]]:
    q, tr = em_step_trace(em, q, op0, op1)
    return q, tr.verdict


def em_run(
    em: EvaluatorMachine,
    stream0: Sequence[bool],
    stream1: Optional[Sequence[bool]] = None,
) -> list[bool]:
    """Fold the EM over operand streams; the verdict emitted at step i is
    for time i - head, so the returned list is indexed by time."""
    if em.arity == 2:
        if stream1 is None or len(stream1) != len(stream0):
            raise ValueError("need two operand streams of equal length")
    elif stream1 is not None:
        raise ValueError(f"{em.kind} takes one operand stream")
    q = empty_que(em.head + 1)
    verdicts = []
    for i, a in enumerate(stream0):
        q, verdict = em_step(em, q, a, stream1[i] if em.arity == 2 else None)
        if verdict is not None:
            verdicts.append(verdict)
    return verdicts
