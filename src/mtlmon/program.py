"""Hardware-level monitor configuration records.

The PE and que records are named tuples that mirror the fabric's programming
registers field for field, in bitstream order. They are built with ``_make``
(half the cost of a call of the class), unpacked by a pass that reads four or
more of their fields, and copied with ``record._replace(...)``.
A PE record has no mod-enable flags: a polarity that must never modify carries
``machine.EMPTY_INTERVAL`` (1, 0) instead, which the que skips, as the
``em_shape`` machine it lowers does.

Routing: the per-PE route fields are AP indices, meaningful only for
operand slots whose source flag selects the AP bus (0 otherwise). Que-to-PE
routing is carried by each que's reader fields. The multi-machine until
realization needs its operand streams at more ports than one reader field
can name. A reader field names a stream's first port in
``machine.em_shape``'s ports; ``resolve_operands`` feeds the later ports
(taps) from its until shapes, so the register widths stay untouched.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

from .errors import AllocationError
from .machine import OPCODE_ARITY, em_shape

OPCODE_BITS = {"wire": 0, "not": 1, "or": 2, "and": 3, "implies": 4}
OPCODE_NAMES = {v: k for k, v in OPCODE_BITS.items()}

Fields = tuple[tuple[str, int], ...]


def ceil_log2(n: int) -> int:
    """Bits needed to address n distinct values (0 for n == 1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return (n - 1).bit_length()


@dataclass(frozen=True)
class FabricConfig:
    n_pe: int
    n_q: int
    n_ap: int
    q_sz: int

    def __post_init__(self):
        # Bitstream files carry each field as a 2-byte word.
        for name in ("n_pe", "n_q", "n_ap", "q_sz"):
            if not 1 <= getattr(self, name) <= 0xFFFF:
                raise AllocationError(f"{name} must be in 1..65535, not {getattr(self, name)}")

    # One PE, que and route programming record as (field, width) pairs,
    # MSB first. The bitstream codec packs and splits records by these.
    # Each width is computed once per configuration; body_bits stays a
    # plain property, which perfbench/layers.py wraps to count its calls.
    @cached_property
    def pe_fields(self) -> Fields:
        w = ceil_log2(self.q_sz)
        return (("isActive", 1), ("op0Src", 1), ("op1Src", 1), ("opcode", 3),
                ("r_qid", ceil_log2(self.n_q)),
                ("top.lo", w), ("top.hi", w), ("bot.lo", w), ("bot.hi", w))

    @cached_property
    def q_fields(self) -> Fields:
        return (("isActive", 1), ("isVerdict", 1), ("readerPE", ceil_log2(self.n_pe)),
                ("inp_no", 1), ("head", ceil_log2(self.q_sz)))

    @cached_property
    def route_fields(self) -> Fields:
        return (("route0", ceil_log2(self.n_ap)), ("route1", ceil_log2(self.n_ap)))

    @cached_property
    def pe_bits(self) -> int:
        return sum(w for _, w in self.pe_fields)

    @cached_property
    def q_bits(self) -> int:
        return sum(w for _, w in self.q_fields)

    @cached_property
    def route_bits(self) -> int:
        return sum(w for _, w in self.route_fields)

    @cached_property
    def layouts(self) -> tuple:
        """Per record kind (PE, que, route), as the decoder splits it: the
        record width and each field's (shift, mask) within the record."""
        out = []
        for fields, width in ((self.pe_fields, self.pe_bits), (self.q_fields, self.q_bits),
                              (self.route_fields, self.route_bits)):
            ends = accumulate(w for _, w in fields)
            out.append((width, tuple((width - end, (1 << w) - 1)
                                     for (_, w), end in zip(fields, ends))))
        return tuple(out)

    @property
    def body_bits(self) -> int:
        return self.n_pe * self.pe_bits + self.n_q * self.q_bits + self.n_pe * self.route_bits

    @cached_property
    def body_bytes(self) -> int:
        return (self.body_bits + 7) // 8


class PeConfig(NamedTuple):
    is_active: bool
    op0_from_que: bool
    op1_from_que: bool
    opcode: str
    r_qid: int
    top_interval: tuple[int, int]
    bot_interval: tuple[int, int]


class QConfig(NamedTuple):
    is_active: bool
    is_verdict: bool
    reader_pe: int
    inp_no: int
    head: int


INACTIVE_PE = PeConfig(False, False, False, "wire", 0, (0, 0), (0, 0))
INACTIVE_Q = QConfig(False, False, 0, 0, 0)
INACTIVE_ROUTE = (0, 0)


@dataclass(frozen=True)
class MonitorProgram:
    """A complete fabric configuration plus the latency it reports.

    routes[pe] = (op0 route, op1 route); each entry is an AP index or a que
    id depending on the PE's source flags. latency is the height of the
    root: the verdict emitted at running cycle c (0-based) is for time
    c - latency + 1.

    The decoder and the allocator hand on what they learn while they build
    the records, as ``found`` = (pe_ids, q_ids, sources), so that no later
    step scans every record or resolves the operands again: ``pe_ids`` and
    ``q_ids`` are the ids of the active PE and que records, ascending.
    ``sources`` is the decoder's ``resolve_operands`` of the records, the
    only resolution ``Fabric._latch`` reads. It is None on a compiled
    program (``allocate`` takes the latency from the planned tree and
    resolves nothing) and on one built without ``found`` (by hand, or by
    ``dataclasses.replace``, which never carries it over), whose ids come
    from a scan. None of the three takes part in equality. A builder that
    hands ``found`` on has also made sure that at most one active que is
    the verdict que (the decoder raises BitstreamError, the allocator marks
    only the root's); without it that is checked here, as a ValueError.
    """

    config: FabricConfig
    pes: tuple[PeConfig, ...]
    qs: tuple[QConfig, ...]
    routes: tuple[tuple[int, int], ...]
    latency: int
    found: InitVar[tuple | None] = None
    pe_ids: tuple[int, ...] = field(init=False, compare=False, repr=False)
    q_ids: tuple[int, ...] = field(init=False, compare=False, repr=False)
    sources: dict[tuple[int, int], int] | None = field(init=False, compare=False, repr=False)

    def __post_init__(self, found):
        if len(self.pes) != self.config.n_pe or len(self.qs) != self.config.n_q:
            raise ValueError("record counts do not match the configuration")
        if len(self.routes) != self.config.n_pe:
            raise ValueError("need one route pair per PE")
        if found is None:
            found = active_ids(self.pes), active_ids(self.qs), None
            if sum(self.qs[qid].is_verdict for qid in found[1]) > 1:
                raise ValueError("at most one verdict que")
        pe_ids, q_ids, sources = found
        object.__setattr__(self, "pe_ids", pe_ids)
        object.__setattr__(self, "q_ids", q_ids)
        object.__setattr__(self, "sources", sources)


def active_ids(records) -> tuple[int, ...]:
    """The ids of the active records, ascending."""
    return tuple(i for i, record in enumerate(records) if record.is_active)


# (opcodes of an until realization's machines, tap) -> the port named for the
# tap's stream, for both realizations (t1 = 0 and t1 >= 1); ports are (machine, slot).
_UNTIL_TAPS = {
    (tuple(am.opcode for am in ams), tap): ports[0]
    for ams, streams in (em_shape("until", (t1, t1)) for t1 in (0, 1))
    for ports in streams
    for tap in ports[1:]
}


def resolve_operands(
    pes: tuple[PeConfig, ...],
    qs: tuple[QConfig, ...],
    pe_ids: tuple[int, ...] | None = None,
    q_ids: tuple[int, ...] | None = None,
) -> dict[tuple[int, int], int]:
    """Map every que-sourced (pe, slot) port to the que that feeds it.

    Primary routes come from the reader fields of the ques. A result-que
    group whose writers have the opcodes of an until realization also
    feeds each tap of that realization from its named port's que. Anything
    else left unresolved is a misprogrammed monitor.

    ``pe_ids`` and ``q_ids`` are the ids of the active records, ascending,
    as the decoder finds them; without them the records are scanned.
    ``decode_program`` calls this once per load; compiling never does.
    """
    if pe_ids is None:
        pe_ids = active_ids(pes)
    if q_ids is None:
        q_ids = active_ids(qs)
    sources: dict[tuple[int, int], int] = {}
    for qid in q_ids:
        q = qs[qid]
        if q.is_verdict:
            continue
        port = (q.reader_pe, q.inp_no)
        if port in sources:
            raise AllocationError(
                f"two ques name reader port PE{port[0]}.{port[1]}"
            )
        sources[port] = qid

    groups: dict[int, list[int]] = {}
    for pid in pe_ids:
        groups.setdefault(pes[pid].r_qid, []).append(pid)

    for members in groups.values():
        for m, pid in enumerate(members):
            pe = pes[pid]
            from_que = pe.op0_from_que, pe.op1_from_que
            for slot in range(OPCODE_ARITY[pe.opcode]):
                if not from_que[slot] or (pid, slot) in sources:
                    continue
                shape = tuple(pes[p].opcode for p in members)
                named = _UNTIL_TAPS.get((shape, (m, slot)))
                port = None if named is None else (members[named[0]], named[1])
                if port not in sources:
                    raise AllocationError(
                        f"PE{pid} operand {slot} has no que routed to it"
                    )
                sources[(pid, slot)] = sources[port]
    return sources


def derive_latency(
    pes: tuple[PeConfig, ...],
    qs: tuple[QConfig, ...],
    sources: dict[tuple[int, int], int] | None = None,
    pe_ids: tuple[int, ...] | None = None,
    q_ids: tuple[int, ...] | None = None,
) -> int:
    """Height of the verdict que, recomputed from the records alone.

    height(q) = head + 1 + the tallest que feeding any PE that writes q
    (0 when all writers read APs). This is what a freshly decoded program
    reports, and the fabric's own warm-up realizes it exactly.

    The ques that reach the verdict que form a tree. A que names one reader
    port, and ``resolve_operands`` feeds a tap only from the que of a port
    in the tap's own writer group, so every que feeds the writers of one
    que at most; the verdict que feeds none. A cycle of ques therefore
    never reaches the verdict que, and a walk down from it meets each que
    once. The walk carries each que's depth, the cycles from its writers
    to the verdict output; the latency is the largest.

    ``sources`` is ``resolve_operands`` of the records, resolved here when
    it is not given; ``pe_ids`` and ``q_ids`` are the active ids, as there.
    Loading derives the latency once, in ``decode_program``, from its own
    resolution, and the fabric takes ``MonitorProgram.latency``. Compiling
    never calls this: ``allocate`` takes the root's planned height, which
    equals it.
    """
    if pe_ids is None:
        pe_ids = active_ids(pes)
    if q_ids is None:
        q_ids = active_ids(qs)
    if sources is None:
        sources = resolve_operands(pes, qs, pe_ids, q_ids)
    # feeds[q]: the ques read by the PEs that write q.
    feeds: dict[int, set[int]] = {}
    for pid in pe_ids:
        _, src0, src1, opcode, r_qid, _, _ = pes[pid]
        if src0:
            feeds.setdefault(r_qid, set()).add(sources[(pid, 0)])
        if src1 and OPCODE_ARITY[opcode] == 2:
            feeds.setdefault(r_qid, set()).add(sources[(pid, 1)])
    root = next((qid for qid in q_ids if qs[qid].is_verdict), None)
    latency = 0
    todo = [] if root is None else [(root, 0)]
    while todo:
        qid, above = todo.pop()
        depth = above + qs[qid].head + 1
        latency = max(latency, depth)
        todo.extend((src, depth) for src in feeds.get(qid, ()))
    return latency
