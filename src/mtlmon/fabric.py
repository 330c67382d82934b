"""Cycle-accurate model of the programmable monitor hardware.

The fabric holds N_PE processing elements, N_Q ques, the AP input bus and
an 8-bit-per-cycle programming port. One running cycle works through four
interconnect phases:

1. que -> PE: the values each que deleted at the end of the previous cycle
   are on the que->PE crossbar; a PE operand port programmed with source
   "que" reads the value of its routed que.
2. PE: every active PE whose operand values are all present computes its
   boolean result and offers the selected interval (top on true, bottom on
   false) to its result que; empty-sentinel intervals offer nothing. A que
   none of whose writers computed (pipeline warm-up) idles this cycle.
3. PE -> que: offers targeting one que are ORed per polarity into a
   single top mask and a single bottom mask; a mask whose set bits are not
   one contiguous run is a hard fault. The check runs only after every
   offer of the cycle is in, because until's three machines close the
   span together.
4. que: every driven que adds, applies the true-modify then the
   false-modify, then deletes at its head; the deleted value is latched
   onto the que->PE crossbar for the next cycle, except the verdict que's
   value, which leaves through the output port immediately.

A que is three ints, [occupancy, known, value], with bit k standing for
cell k and cell 0 the newest: add shifts both masks left by one; modify
sets the unknown live cells of the top mask in ``known`` and ``value``,
then marks the unknown live cells of the bottom mask known (their value
bit stays 0); delete reads bit ``head`` of ``value``, faulting if it is
not set in ``known``, and clears it. An interval (lo, hi) is the mask of
bits lo..hi, and an empty interval is 0.

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
from .machine import OPCODE_ARITY, am_result
from .program import (
    FabricConfig,
    MonitorProgram,
    derive_latency,
    is_empty,
    resolve_operands,
    slot_from_que,
)


def _mask(interval: tuple[int, int]) -> int:
    lo, hi = interval
    return 0 if is_empty(interval) else (1 << (hi + 1)) - (1 << lo)


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
        self._ques: list[list[int]] = [[0, 0, 0] for _ in range(config.n_q)]
        self._delivered: list = [None] * config.n_q
        self._plan: list = []
        self._heads: list[int] = [0] * config.n_q
        self._driven_qids: list[int] = []
        self._verdict_qid: Optional[int] = None

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

        Each active PE becomes one plan entry holding its truth table, built
        from ``am_result`` over every operand combination (entry v0 for one
        operand, v0 + 2*v1 for two), and its (bottom, top) interval masks,
        indexed by its result. Deriving the latency also rejects cyclic
        que routing.
        """
        sources = self._validate(program)
        latency = derive_latency(program.pes, program.qs, sources)
        self.program = program
        self.latency = latency
        cfg = self.config
        self._plan = []
        for pid, pe in enumerate(program.pes):
            if not pe.is_active:
                continue
            arity = OPCODE_ARITY[pe.opcode]
            idx = [0, 0]
            for slot in range(arity):
                if (pid, slot) in sources:
                    idx[slot] = sources[(pid, slot)]
                else:
                    idx[slot] = program.routes[pid][slot]
            if arity == 1:
                table = (am_result(pe.opcode, False), am_result(pe.opcode, True))
            else:
                table = tuple(am_result(pe.opcode, bool(i & 1), bool(i & 2)) for i in range(4))
            self._plan.append((
                table,
                arity,
                pe.op0_from_que,
                idx[0],
                pe.op1_from_que,
                idx[1],
                (_mask(pe.bot_interval), _mask(pe.top_interval)),
                pe.r_qid,
            ))
        self._heads = [q.head for q in program.qs]
        self._driven_qids = sorted({rec[7] for rec in self._plan})
        self._verdict_qid = program.verdict_qid
        self._ques = [[0, 0, 0] for _ in range(cfg.n_q)]
        self._delivered = [None] * cfg.n_q
        self.run_cycle = 0
        self.mode = "running"

    def _validate(self, program: MonitorProgram) -> dict[tuple[int, int], int]:
        cfg = self.config
        sources = resolve_operands(program.pes, program.qs)
        for pid, pe in enumerate(program.pes):
            if not pe.is_active:
                continue
            if pe.r_qid >= cfg.n_q:
                raise AllocationError(f"PE{pid} writes que {pe.r_qid}, n_q={cfg.n_q}")
            if not program.qs[pe.r_qid].is_active:
                raise AllocationError(f"PE{pid} writes inactive que {pe.r_qid}")
            for name, iv in (("top", pe.top_interval), ("bot", pe.bot_interval)):
                if not is_empty(iv) and not (0 <= iv[0] <= iv[1] < cfg.q_sz):
                    raise AllocationError(f"PE{pid} {name} interval {iv} exceeds que size")
            for slot in range(OPCODE_ARITY[pe.opcode]):
                if slot_from_que(pe, slot):
                    src = sources[(pid, slot)]
                    if not program.qs[src].is_active:
                        raise AllocationError(
                            f"PE{pid} operand {slot} reads inactive que {src}"
                        )
                else:
                    src = program.routes[pid][slot]
                    if src >= cfg.n_ap:
                        raise AllocationError(
                            f"PE{pid} operand {slot} reads ap{src}, n_ap={cfg.n_ap}"
                        )
        for qid, q in enumerate(program.qs):
            if not q.is_active:
                continue
            if q.head >= cfg.q_sz:
                raise AllocationError(f"Q{qid} head {q.head} exceeds que size {cfg.q_sz}")
            if q.is_verdict:
                continue
            pid, slot = q.reader_pe, q.inp_no
            pe = program.pes[pid] if pid < cfg.n_pe else None
            if (
                pe is None
                or not pe.is_active
                or slot >= OPCODE_ARITY[pe.opcode]
                or not slot_from_que(pe, slot)
            ):
                raise AllocationError(
                    f"Q{qid} names reader PE{pid}.{slot}, which does not take que input"
                )
        return sources

    # -- datapath ------------------------------------------------------------

    def step(self, ap_values: Sequence[bool]) -> Optional[tuple[int, bool]]:
        """Run one monitor cycle on one event; returns (time, verdict) once
        the pipeline is warm, None during warm-up."""
        if self.mode != "running":
            raise ProtocolError(f"fabric is in {self.mode} mode")
        cfg = self.config
        if len(ap_values) != cfg.n_ap:
            raise TraceError(f"event width {len(ap_values)} != n_ap {cfg.n_ap}")

        delivered = self._delivered
        offers: dict[int, list[int]] = {}  # qid -> [bottom mask, top mask]
        for table, arity, q0, r0, q1, r1, masks, rqid in self._plan:
            v0 = delivered[r0] if q0 else ap_values[r0]
            if v0 is None:
                continue
            if arity == 2:
                v1 = delivered[r1] if q1 else ap_values[r1]
                if v1 is None:
                    continue
                res = table[v0 + 2 * v1]
            else:
                res = table[v0]
            offer = offers.get(rqid)
            if offer is None:
                offer = offers[rqid] = [0, 0]
            offer[res] |= masks[res]

        new_delivered: list = [None] * cfg.n_q
        out: Optional[bool] = None
        self.mode = "faulted"  # until every que has updated without a HardFault
        for qid in self._driven_qids:
            if qid not in offers:
                continue
            que = self._ques[qid]
            occ, known, value = que
            if occ >= cfg.q_sz:
                raise HardFault(f"Q{qid} overflow at capacity {cfg.q_sz}")
            bot, top = offers[qid]
            for mask, polarity in ((top, "top"), (bot, "bot")):
                carry = mask + (mask & -mask)  # clears the lowest run of cells
                if mask & carry:
                    gap = (carry & -carry).bit_length() - 1
                    raise HardFault(f"Q{qid} {polarity} offers leave cell {gap} uncovered")
            occ += 1  # add: the new cell 0 is unknown
            live = (1 << occ) - 1
            known <<= 1
            new = top & live & ~known
            value = value << 1 | new
            known |= new | bot & live
            head = self._heads[qid]
            if occ > head:
                assert occ == head + 1, "occupancy ran past head+1"
                cell = 1 << head
                if not known & cell:
                    raise HardFault(
                        f"Q{qid} deleted unresolved cell at head {head}: misprogrammed head"
                    )
                bit = bool(value & cell)
                if qid == self._verdict_qid:
                    out = bit
                else:
                    new_delivered[qid] = bit
                occ, known, value = head, known ^ cell, value & ~cell
            que[:] = occ, known, value
        self.mode = "running"

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
