"""Golden model of the programmable evaluator machines.

A que is a buffer over {True, False, Maybe}; cell 0 is the tail (most
recently added). Its head bounds it: once it holds ``head`` cells, each
step deletes one as it adds one, so no que needs a capacity check. Each
step an abstract machine computes a five-opcode boolean result and
conditionally overwrites Maybe cells inside a programmed interval. An
evaluator machine (EM) is 1-3 such machines sharing one que; it realizes
exactly one MTL operator, and the values deleted at the que head form its
verdict stream. ``em_shape`` is the one table of operator shapes, which
the compiler lowers and the loader's tap resolution reads.

Shared-que stepping: ``group_offer``, the one offer rule, ORs the machines'
offers (``writer`` tuples) per polarity, tests them with ``check_offers``,
and ``que_offer`` digests them into the triple (top, both, rest) on which
the que takes one cycle of ``que_run``: a warm-up phase that fills the que,
then a full phase that deletes one cell a cycle. ``que_peek`` reads a que
from its suspended generator, outside the rule. The fabric runs both
rules too, so the order of the machines does not matter.
Overlapping offers of one polarity are harmless; a cell offered both true
and false is a hard fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Generator, Optional, Sequence

from .errors import HardFault


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


def check_offers(bot: int, top: int) -> None:
    """The gap test on one cycle's ORed offers to a que: each of ``bot`` and
    ``top`` must be one contiguous run of cells, because until's machines
    close a span together. Raises HardFault naming the lowest uncovered
    cell, top before bot; empty offers pass."""
    if top & (top + (top & -top)) or bot & (bot + (bot & -bot)):
        for mask, polarity in ((top, "top"), (bot, "bot")):
            carry = mask + (mask & -mask)  # clears the lowest run of cells
            if mask & carry:
                gap = (carry & -carry).bit_length() - 1
                raise HardFault(f"{polarity} offers leave cell {gap} uncovered")


def que_offer(bot: int, top: int) -> tuple[int, int, int]:
    """The form in which ``que_run`` takes one cycle's ORed offers: the top
    mask, the cells offered both true and false, and the cells offered
    neither. A pure function of the masks, with no gap test."""
    return top, top & bot, ~(top | bot)


# Each opcode's truth table, indexed by v0 + 2*v1 (a unary one reads v0).
_TABLES = {
    op: tuple(am_result(op, *(bool(i & 1), bool(i & 2))[:arity]) for i in range(4))
    for op, arity in OPCODE_ARITY.items()
}


def writer(opcode: str, i0: int, i1: Optional[int], top: Interval, bot: Interval) -> tuple:
    """One machine of a writer group as ``group_offer`` takes it: its truth
    table, indexed by v0 + 2*v1; the read-vector indices of its operands, a
    unary machine (``i1`` None) reading ``i0`` twice and so using entries 0
    and 3; and its (bottom, top) interval masks, indexed by its result."""
    return (_TABLES[opcode], i0, i0 if i1 is None else i1,
            (interval_mask(bot), interval_mask(top)))


def group_offer(writers: Sequence[tuple], reads: Sequence) -> Optional[tuple[int, int, int]]:
    """What a que's writers offer on one read vector: None when none of them
    has all its operands (the que idles), else their (bottom, top) masks ORed
    per polarity, which must pass ``check_offers``, as the ``que_offer``
    triple that ``que_run`` takes. A value is read by its truth, so 1.0
    reads as 1. The golden model and the fabric both call it."""
    offer = None
    for table, i0, i1, masks in writers:
        v0 = reads[i0]
        v1 = reads[i1]
        if v0 is None or v1 is None:
            continue
        res = table[bool(v0) + 2 * bool(v1)]
        if offer is None:
            offer = [0, 0]
        offer[res] |= masks[res]
    if offer is None:
        return None
    check_offers(*offer)
    return que_offer(*offer)


def _clash(cells: int) -> HardFault:
    return HardFault(f"top and bot offers both settle cell {(cells & -cells).bit_length() - 1}")


def que_run(head: int, que: tuple[int, int, int] = (0, 0, 0)) -> Generator:
    """The que-update rules, shared by the golden model and the fabric: a
    generator, primed with ``next``, that holds one que from the triple
    ``que`` on. Each ``send`` of the triple ``que_offer(bot, top)`` = (top,
    both, rest) is one cycle and returns the value deleted at ``head``
    (None in warm-up).

    A que is three ints, (occupancy, unknown, value), with bit k standing
    for cell k and cell 0 the newest; ``unknown`` holds the live cells that
    are still Maybe, and a settled cell holds its value bit. ``bot`` and
    ``top`` are the ORed false and true offers of the que's firing writers
    as masks, already through ``check_offers``. Add shifts every cell up one
    and makes cell 0 unknown; an unknown cell in both ``top`` and ``bot`` is
    a hard fault, since writers disagree on it; modify settles the other
    unknown cells of ``top`` true and of ``bot`` false, leaving the rest as
    they are; delete removes cell ``head`` once it exists, and deleting an
    unknown cell is a hard fault (a misprogrammed head). A fault ends the
    generator. The triple lives in the locals ``occ``, ``unknown`` and
    ``value``, which ``que_peek`` reads while the generator is suspended;
    the rule has no code for being read.

    The rule runs in two phases. Warm-up adds and modifies until the que
    holds ``head`` cells. Every reachable que enters with at most ``head``
    cells, so from then on it holds ``head`` before each cycle: the full
    phase keeps no count (``occ`` stays at ``head``, where warm-up left it),
    and the cell it deletes is the oldest.
    """
    occ, unknown, value = que
    cell = 1 << head
    deleted = None
    while occ < head:
        top, both, rest = yield deleted
        occ += 1
        unknown = unknown << 1 | 1
        if both & unknown:
            raise _clash(both & unknown)
        value = value << 1 | top & unknown
        unknown &= rest
        deleted = None
    keep = cell - 1
    while True:
        top, both, rest = yield deleted
        unknown = unknown << 1 | 1
        if both & unknown:
            raise _clash(both & unknown)
        value = value << 1 | top & unknown
        unknown &= rest
        if unknown & cell:
            raise HardFault(f"deleted unresolved cell at head {head}: misprogrammed head")
        deleted = value >= cell
        value &= keep


def que_peek(run: Generator) -> "QueState":
    """The que a primed ``que_run`` generator holds, read from its suspended
    frame's locals without resuming it; its next ``send`` goes on from
    there, as does a new ``que_run`` started from the triple."""
    local = run.gi_frame.f_locals
    return QueState(local["occ"], local["unknown"], local["value"])


@dataclass(frozen=True)
class QueState:
    """A golden-model que: the ``que_run`` triple (occupancy, unknown,
    value); ``unknown`` marks the cells still Maybe. ``QueState()`` is the
    empty que. It has no capacity of its own: ``que_run`` keeps every
    que at most ``head`` cells long."""

    occupancy: int = 0
    unknown: int = 0
    value: int = 0

    @property
    def cells(self) -> tuple:
        """The cells as True/False/MAYBE, cell 0 (the tail) first."""
        return tuple(
            MAYBE if self.unknown >> k & 1 else bool(self.value >> k & 1)
            for k in range(self.occupancy)
        )


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
    """1-3 abstract machines sharing one que, realizing one MTL operator.
    Its machines read operand streams numbered 0..arity-1, the order in
    which ``em_step`` takes their values; other numbers raise ValueError."""

    kind: str
    ams: tuple[AmProgram, ...]
    head: int

    def __post_init__(self):
        streams = sorted({s for am in self.ams for s in (am.op0, am.op1) if s is not None})
        if streams != list(range(len(streams))):
            raise ValueError(f"{self.kind} reads streams {streams}, not 0..{len(streams) - 1}")

    @property
    def arity(self) -> int:  # the number of operand streams
        return len(stream_ports(self.ams))


def em_build(kind: str, head: int, interval: Optional[Interval] = None) -> EvaluatorMachine:
    """Instantiate the machine programming for a single MTL operator: its
    ``em_shape`` at a que head of at least ``min_head``."""
    ams, _ = em_shape(kind, interval)  # a bad kind or interval raises first
    if head < min_head(kind, interval):
        raise ValueError(f"head {head} below the minimum {min_head(kind, interval)} for {kind}")
    return EvaluatorMachine(kind, ams, head)


@lru_cache(maxsize=1024)
def em_shape(kind: str, interval: Optional[Interval] = None) -> tuple:
    """The one table of operator shapes: the machines realizing one operator
    and their ``stream_ports`` as tuples, as ``(ams, ports)``. Neither depends
    on the head, so the table is cached by ``(kind, interval)`` alone, for at
    most 1,024 shapes.

    kind is one of not/and/or/implies/next/box/diamond/until, plus the
    synthetic pass-through 'wire'. Interval operators require interval=(t1,t2);
    until with t1 >= 1 takes three machines, with t1 = 0 two.

    Each interval is ``EMPTY_INTERVAL`` or ends at or below t2 (interval
    operators), at 1 (next) or at 0, so below the minimum head;
    ``allocate`` copies the intervals into the PE records as they are.
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
    return ams, tuple(map(tuple, stream_ports(ams)))


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
    """One step of ``em`` on que ``q``: its machines offer through
    ``group_offer``, as a fabric's PEs do, and the que takes a ``que_run`` cycle."""
    if em.arity == 2 and op1 is None:
        raise ValueError(f"{em.kind} needs two operand values")
    if em.arity == 1 and op1 is not None:
        raise ValueError(f"{em.kind} takes one operand value")
    assert q.occupancy <= em.head, "occupancy exceeded head"
    operands = (op0, op1)
    results = tuple(
        am_result(am.opcode, operands[am.op0], None if am.op1 is None else operands[am.op1])
        for am in em.ams
    )
    chosen = [(res, am.top_interval if res else am.bot_interval)
              for am, res in zip(em.ams, results)]
    fired = tuple((res, interval) for res, interval in chosen if not is_empty(interval))
    after_add = (MAYBE,) + q.cells
    writers = [writer(am.opcode, am.op0, am.op1, am.top_interval, am.bot_interval)
               for am in em.ams]
    run = que_run(em.head, (q.occupancy, q.unknown, q.value))
    next(run)
    verdict = run.send(group_offer(writers, operands))
    q = que_peek(run)
    after_del = q.cells
    after_modify = after_del if verdict is None else after_del + (verdict,)
    return q, StepTrace(results, after_add, fired, after_modify, after_del, verdict)


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
    q = QueState()
    verdicts = []
    for i, a in enumerate(stream0):
        q, verdict = em_step(em, q, a, stream1[i] if em.arity == 2 else None)
        if verdict is not None:
            verdicts.append(verdict)
    return verdicts
