"""Cycle-accurate model of the programmable monitor hardware.

The fabric holds N_PE processing elements, N_Q ques, the AP input bus and
an 8-bit-per-cycle programming port. One running cycle works through four
interconnect phases:

1. que -> PE: the values each que deleted at the end of the previous cycle
   are on the que->PE crossbar; a PE operand port programmed with source
   "que" reads the value of its routed que. Every read of a cycle sees the
   previous cycle's deliveries, however far the ques have updated.
2. PE: each que, in ascending id, runs its writer PEs. Every writer whose
   operand values are all present computes its boolean result and offers
   the selected interval (top on true, bottom on false); empty-sentinel
   intervals offer nothing. A que none of whose writers computed
   (pipeline warm-up) idles this cycle.
3. PE -> que: the que ORs its writers' offers per polarity into a single
   top mask and a single bottom mask, which ``machine.check_offers`` tests
   for gaps. Phases 2-3 are a fixed function of the operand values the
   que's writers read, so each que memoizes it: the first cycle that
   meets a combination of those values runs the writers and stores the
   masks (or the idle), and later cycles look them up.
4. que: the que takes one cycle of its ``machine.que_run`` generator on
   those masks, the que-update rule the golden model runs too (add,
   conflict test on cells offered true and false, modify, delete at its
   head). The deleted value is latched onto the que->PE crossbar for the
   next cycle, except the verdict que's value, which leaves through the
   output port immediately. Each que updates in place as it steps. A fault
   ends the faulting que's generator, and ques that stepped earlier in
   that cycle are never read, because the fault stops the fabric (``que``
   and ``step`` raise) and the next latch starts every que afresh.

The verdict leaving at running cycle c (0-based since the program latched)
is the formula verdict for time c - latency + 1; warm-up cycles produce no
verdict because the deleted cell does not exist yet.

Reprogramming: begin_reprogram opens the programming port at any moment;
after the final byte the new configuration latches, every que clears, and
cycle accounting for verdict timing restarts, so behavior is identical to
a freshly programmed fabric.
A HardFault is terminal: step raises ProtocolError until begin_reprogram,
and que until the next latch.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional, Sequence

from .bitstream import decode_program
from .errors import AllocationError, HardFault, ProtocolError, TraceError
from .machine import (
    OPCODE_ARITY,
    QueState,
    am_result,
    check_offers,
    interval_mask,
    is_empty,
    que_peek,
    que_run,
)
from .program import FabricConfig, MonitorProgram, slot_from_que
# Unused here, but perfbench/layers.py patches these names in this module.
from .program import derive_latency, resolve_operands  # noqa: F401

# The event values step accepts, equal to {0, 1}. Stored as bools, so the
# bool events of a Trace match by identity, which halves the check's cost.
_BITS = frozenset((False, True))

# Each opcode's truth table, indexed by v0 + 2*v1 (a unary one reads v0).
_TABLES = {
    op: tuple(am_result(op, *(bool(i & 1), bool(i & 2))[:arity]) for i in range(4))
    for op, arity in OPCODE_ARITY.items()
}


def _offer(writers: list, reads: list) -> Optional[tuple[int, int]]:
    """What a que's writers offer on one read vector: None when none of them
    has all its operands (the que idles), else their (bottom, top) masks ORed
    per polarity, which must pass ``check_offers``. A value is read by its
    truth, so 1.0 reads as 1. ``step`` memoizes the result per key."""
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
    return offer[0], offer[1]


class Fabric:
    """One monitor instance; strictly sequential load/step transitions."""

    def __init__(self, config: FabricConfig):
        self.config = config
        self._body_bytes = config.body_bytes
        self.mode = "programming"
        self.total_cycles = 0
        self.run_cycle = 0
        self.latency = 0
        self.program: Optional[MonitorProgram] = None
        self._buffer = bytearray()
        # qid -> que_run generator, per driven que; None once a fault ends one
        self._runs: Optional[dict] = {}
        self._delivered: list = [None]
        self._verdict = 0
        self._plan: list = []

    # -- programming port ---------------------------------------------------

    def begin_reprogram(self) -> None:
        """Open the programming port; idempotent, keeps the cycle counter."""
        self.mode = "programming"
        self._buffer.clear()

    def load_program_byte(self, byte: int) -> None:
        """Shift one configuration byte in; latches after the final byte."""
        self.load((byte,))

    def load(self, body: Sequence[int]) -> None:
        """Shift bytes in, one programming cycle each, taking those up to the
        end of the body in one slice; a byte past the latch is a ProtocolError."""
        if body and self.mode != "programming":
            raise ProtocolError(f"configuration byte while {self.mode}; begin_reprogram first")
        need = self._body_bytes - len(self._buffer)
        self._buffer += bytes(body[:need])  # ValueError on a value that is not a byte
        self.total_cycles += min(len(body), need)
        if len(self._buffer) == self._body_bytes:
            data, self._buffer = bytes(self._buffer), bytearray()
            self._latch(decode_program(data, self.config))
            self.load(body[need:])  # any bytes left raise ProtocolError

    @property
    def programming_cycles(self) -> int:
        return self._body_bytes

    def _latch(self, program: MonitorProgram) -> None:
        """Validate the decoded records and latch them as the datapath plan.

        It works from what ``decode_program`` handed on: the active PE and
        que ids, the operand sources and the latency, so it neither scans
        every record nor resolves or derives again. One pass checks the
        active PEs in pid order, then the active ques, and groups the
        active PEs by result que. The plan holds one entry per driven que,
        in ascending qid: (send, key, memo, writers), where ``send`` steps
        the que's primed ``que_run`` generator, which ``_runs`` holds by
        qid for ``que`` and fault messages. ``step`` reads one vector a
        cycle: the event's AP values, then the last cycle's deliveries of
        the driven ques in plan order, then a slot that is always None,
        which is what a port routed from any other que reads.
        No port reads the verdict que's slot (``resolve_operands`` never
        sources one from it); ``step`` emits its value.
        ``key`` is an itemgetter over the vector slots the que's writers
        read, and ``memo`` maps each key met so far to the que's offer (see
        ``_offer``). A writer is its truth table from ``_TABLES``, indexed
        by v0 + 2*v1; the vector slots of its two operand ports, a unary PE
        reading its one port twice and so using entries 0 and 3; and its
        (bottom, top) interval masks, indexed by its result.
        """
        cfg = self.config
        n_ap = cfg.n_ap
        pes, qs, sources = program.pes, program.qs, program.sources
        pe_ids, q_ids = program.pe_ids, program.q_ids
        driven = sorted({pes[pid].r_qid for pid in pe_ids})
        none_slot = n_ap + len(driven)
        slot_of = {qid: n_ap + pos for pos, qid in enumerate(driven)}
        writers: dict[int, list] = {}
        for pid in pe_ids:
            pe = pes[pid]
            if pe.r_qid >= cfg.n_q:
                raise AllocationError(f"PE{pid} writes que {pe.r_qid}, n_q={cfg.n_q}")
            if not qs[pe.r_qid].is_active:
                raise AllocationError(f"PE{pid} writes inactive que {pe.r_qid}")
            for name, iv in (("top", pe.top_interval), ("bot", pe.bot_interval)):
                if not is_empty(iv) and iv[1] >= cfg.q_sz:
                    raise AllocationError(f"PE{pid} {name} interval {iv} exceeds que size")
            ports = []
            for slot in range(OPCODE_ARITY[pe.opcode]):
                if slot_from_que(pe, slot):
                    ports.append(slot_of.get(sources[(pid, slot)], none_slot))
                    continue
                ap = program.routes[pid][slot]
                if ap >= n_ap:
                    raise AllocationError(f"PE{pid} operand {slot} reads ap{ap}, n_ap={n_ap}")
                ports.append(ap)
            masks = (interval_mask(pe.bot_interval), interval_mask(pe.top_interval))
            writer = (_TABLES[pe.opcode], ports[0], ports[-1], masks)
            writers.setdefault(pe.r_qid, []).append(writer)
        for qid in q_ids:
            q = qs[qid]
            if q.head >= cfg.q_sz:
                raise AllocationError(f"Q{qid} head {q.head} exceeds que size {cfg.q_sz}")
            if q.is_verdict:
                continue
            pid, slot = q.reader_pe, q.inp_no
            pe = pes[pid] if pid < cfg.n_pe else None
            if (
                pe is None
                or not pe.is_active
                or slot >= OPCODE_ARITY[pe.opcode]
                or not slot_from_que(pe, slot)
            ):
                raise AllocationError(
                    f"Q{qid} names reader PE{pid}.{slot}, which does not take que input"
                )
        self.latency = program.latency
        self.program = program
        self._verdict = next(
            (pos for pos, qid in enumerate(driven) if qs[qid].is_verdict), len(driven)
        )
        self._plan = []
        self._runs = {}
        for qid, ws in sorted(writers.items()):
            read = sorted({i for _, i0, i1, _ in ws for i in (i0, i1)})
            run = self._runs[qid] = que_run(qs[qid].head)
            next(run)
            self._plan.append((run.send, itemgetter(*read), {}, ws))
        self._delivered = [None] * (len(driven) + 1)
        self.run_cycle = 0
        self.mode = "running"

    # -- datapath ------------------------------------------------------------

    def que(self, qid: int) -> QueState:
        """The contents of que ``qid`` as stepping left them; a que that no
        latched PE writes reads empty. Costs the stepping path nothing.
        After a fault it raises ProtocolError, as ``step`` does, until the
        next program latches."""
        if not 0 <= qid < self.config.n_q:
            raise IndexError(f"no que {qid}, n_q={self.config.n_q}")
        if self._runs is None:
            raise ProtocolError("a fault ended the ques; load a program first")
        run = self._runs.get(qid)
        return QueState() if run is None else que_peek(run)

    def step(self, ap_values: Sequence[bool]) -> Optional[tuple[int, bool]]:
        """Run one monitor cycle on one event of n_ap values, each 0 or 1;
        returns (time, verdict) once the pipeline is warm, None during
        warm-up. A bad event raises TraceError before any que moves; a
        HardFault stops the fabric until ``begin_reprogram``."""
        if self.mode != "running":
            raise ProtocolError(f"fabric is in {self.mode} mode")
        cfg = self.config
        if len(ap_values) != cfg.n_ap:
            raise TraceError(f"event width {len(ap_values)} != n_ap {cfg.n_ap}")
        if not _BITS.issuperset(ap_values):
            raise TraceError("event values must be 0 or 1")

        reads = [*ap_values, *self._delivered]
        delivered: list = []
        try:
            for send, key, memo, writers in self._plan:
                k = key(reads)
                try:
                    offer = memo[k]
                except KeyError:
                    offer = memo[k] = _offer(writers, reads)
                # An idle que neither adds nor deletes: it skips its cycle.
                delivered.append(None if offer is None else send(offer))
        except HardFault as fault:
            self.mode = "faulted"  # until begin_reprogram
            qid = list(self._runs)[len(delivered)]  # the que that was stepping
            self._runs = None  # until the next latch
            raise HardFault(f"Q{qid} {fault}") from None

        delivered.append(None)
        out = delivered[self._verdict]
        self._delivered = delivered
        cycle = self.run_cycle
        self.run_cycle += 1
        self.total_cycles += 1
        if out is None:
            return None
        # Compiled programs first emit at cycle latency-1, i.e. time 0;
        # hand-forced heads may emit off-schedule and the check harness
        # reports that as a mismatch rather than faulting here.
        return cycle - self.latency + 1, out
