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
   top mask and a single bottom mask.
4. que: the que takes one ``machine.que_step`` on those masks, the
   que-update rule the golden model runs too (gap test, add, conflict test
   on cells offered true and false, modify, delete at its head). The deleted
   value is latched onto the que->PE crossbar for the next cycle, except the
   verdict que's value, which leaves through the output port immediately.
   The ques commit only after all have updated, so a cycle that raises
   leaves every que as it was.

The verdict leaving at running cycle c (0-based since the program latched)
is the formula verdict for time c - latency + 1; warm-up cycles produce no
verdict because the deleted cell does not exist yet.

Reprogramming: begin_reprogram opens the programming port at any moment;
after the final byte the new configuration latches, every que clears, and
cycle accounting for verdict timing restarts, so behavior is identical to
a freshly programmed fabric.
A HardFault is terminal: step raises ProtocolError until begin_reprogram.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .bitstream import decode_program
from .errors import AllocationError, HardFault, ProtocolError, TraceError
from .machine import OPCODE_ARITY, am_result, interval_mask, is_empty, que_step
from .program import (
    FabricConfig,
    MonitorProgram,
    derive_latency,
    resolve_operands,
    slot_from_que,
)

# The event values step accepts, equal to {0, 1}. Stored as bools, so the
# bool events of a Trace match by identity, which halves the check's cost.
_BITS = frozenset((False, True))


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
        self._ques: list[tuple[int, int, int]] = [(0, 0, 0)] * config.n_q
        self._delivered: list = [None] * config.n_q
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

        One pass checks the PEs in pid order, then the ques, and groups the
        active PEs by result que. The plan holds one entry per driven que,
        in ascending qid: (qid, head, is_verdict, writers). A writer is its
        truth table, indexed by v0 + 2*v1 and built from ``am_result``; its
        two operand ports as (from_que, index), a unary PE reading its one
        port twice and so using entries 0 and 3; and its (bottom, top)
        interval masks, indexed by its result. Deriving the latency also
        rejects cyclic que routing.
        """
        cfg = self.config
        pes, qs = program.pes, program.qs
        sources = resolve_operands(pes, qs)
        writers: dict[int, list] = {}
        for pid, pe in enumerate(pes):
            if not pe.is_active:
                continue
            if pe.r_qid >= cfg.n_q:
                raise AllocationError(f"PE{pid} writes que {pe.r_qid}, n_q={cfg.n_q}")
            if not qs[pe.r_qid].is_active:
                raise AllocationError(f"PE{pid} writes inactive que {pe.r_qid}")
            for name, iv in (("top", pe.top_interval), ("bot", pe.bot_interval)):
                if not is_empty(iv) and iv[1] >= cfg.q_sz:
                    raise AllocationError(f"PE{pid} {name} interval {iv} exceeds que size")
            arity = OPCODE_ARITY[pe.opcode]
            ports = []
            for slot in range(arity):
                from_que = slot_from_que(pe, slot)
                if from_que:
                    src = sources[(pid, slot)]
                else:
                    src = program.routes[pid][slot]
                    if src >= cfg.n_ap:
                        raise AllocationError(
                            f"PE{pid} operand {slot} reads ap{src}, n_ap={cfg.n_ap}"
                        )
                ports.append((from_que, src))
            table = tuple(am_result(pe.opcode, *(bool(i & 1), bool(i & 2))[:arity])
                          for i in range(4))
            masks = (interval_mask(pe.bot_interval), interval_mask(pe.top_interval))
            writers.setdefault(pe.r_qid, []).append((table, ports[0], ports[-1], masks))
        for qid, q in enumerate(qs):
            if not q.is_active:
                continue
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
        self.latency = derive_latency(pes, qs, sources)
        self.program = program
        self._plan = [(qid, qs[qid].head, qs[qid].is_verdict, ws)
                      for qid, ws in sorted(writers.items())]
        self._ques = [(0, 0, 0)] * cfg.n_q
        self._delivered = [None] * cfg.n_q
        self.run_cycle = 0
        self.mode = "running"

    # -- datapath ------------------------------------------------------------

    def step(self, ap_values: Sequence[bool]) -> Optional[tuple[int, bool]]:
        """Run one monitor cycle on one event of n_ap values, each 0 or 1;
        returns (time, verdict) once the pipeline is warm, None during
        warm-up. An event that raises moves no que."""
        if self.mode != "running":
            raise ProtocolError(f"fabric is in {self.mode} mode")
        cfg = self.config
        if len(ap_values) != cfg.n_ap:
            raise TraceError(f"event width {len(ap_values)} != n_ap {cfg.n_ap}")
        if not _BITS.issuperset(ap_values):
            raise TraceError("event values must be 0 or 1")

        reads = (ap_values, self._delivered)
        new_delivered: list = [None] * cfg.n_q
        ques = self._ques[:]
        out: Optional[bool] = None
        try:
            for qid, head, is_verdict, writers in self._plan:
                offer = None  # [bottom mask, top mask] once a writer computes
                for table, (q0, r0), (q1, r1), masks in writers:
                    v0 = reads[q0][r0]
                    v1 = reads[q1][r1]
                    if v0 is None or v1 is None:
                        continue
                    res = table[v0 + 2 * v1]
                    if offer is None:
                        offer = [0, 0]
                    offer[res] |= masks[res]
                if offer is None:
                    continue
                bot, top = offer
                ques[qid], bit = que_step(ques[qid], bot, top, head)
                if is_verdict:
                    out = bit
                else:
                    new_delivered[qid] = bit
        except HardFault as fault:
            self.mode = "faulted"  # until begin_reprogram
            raise HardFault(f"Q{qid} {fault}") from None

        self._ques = ques
        self._delivered = new_delivered
        cycle = self.run_cycle
        self.run_cycle += 1
        self.total_cycles += 1
        if out is None:
            return None
        # Compiled programs first emit at cycle latency-1, i.e. time 0;
        # hand-forced heads may emit off-schedule and the check harness
        # reports that as a mismatch rather than faulting here.
        return cycle - self.latency + 1, out
