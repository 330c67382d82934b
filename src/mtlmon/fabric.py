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
   for gaps and ``machine.que_offer`` digests into the triple (top, both,
   rest) that the que rule takes. Phases 2-3 are ``machine.group_offer``,
   which the golden model runs too, a fixed function of the operand values
   the que's writers read, so each que memoizes them: the first cycle that
   meets a combination of those values runs the writers and stores the
   digest (or the idle), and later cycles look it up.
4. que: the que takes one cycle of its ``machine.que_run`` generator on
   that digest, the que-update rule the golden model runs too (add,
   conflict test on cells offered true and false, modify, delete at its
   head once warm-up has filled it). The deleted value is latched onto
   the que->PE crossbar for the next cycle, except the verdict que's
   value, which leaves through the output port immediately. Each que
   updates in place as it steps. A fault ends the faulting que's
   generator, and ques that stepped earlier in that cycle are never read,
   because the fault stops the fabric (``que`` and ``step`` raise) and the
   next latch starts every que afresh.

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
from .machine import OPCODE_ARITY, QueState, group_offer, que_peek, que_run, writer
from .program import FabricConfig, MonitorProgram
from .trace import _Row, _VALUES
# Unused here, but perfbench/layers.py patches these names in this module.
from .program import derive_latency, resolve_operands  # noqa: F401


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
        end of the body in one slice; a byte past the latch is a ProtocolError.
        A body that fails to decode or latch raises once its bytes have counted
        as programming cycles; the port stays open with an empty buffer, and
        the call's later bytes are not shifted in."""
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

        It works from what ``decode_program`` handed on: the active PE and que
        ids, the operand sources and the latency, so it neither scans every
        record nor resolves or derives again. One pass checks the active PEs in
        pid order and groups them by result que, then the active ques, each
        reader against the que-reading ports the PE pass met. The plan holds
        one entry per driven que, in ascending qid: (send, key, memo, writers),
        where ``send`` steps the que's primed ``que_run`` generator, which
        ``_runs`` holds by qid for ``que`` and fault messages. ``step`` reads
        one vector a cycle: the event's AP values, then the last cycle's
        deliveries of the driven ques in plan order, then a slot that is always
        None, which is what a port routed from any other que reads.
        No port reads the verdict que's slot (``resolve_operands`` never
        sources one from it); ``step`` emits its value.
        ``key`` is an itemgetter over the vector slots the que's writers
        read, and ``memo`` maps each key met so far to the ``que_offer``
        digest that ``send`` takes, or None for an idle que, as
        ``machine.group_offer`` computes it from the que's writers. Each
        PE's writer is ``machine.writer`` of its opcode, the vector slots
        of its operand ports and its intervals.
        """
        cfg = self.config
        n_ap = cfg.n_ap
        pes, qs, sources = program.pes, program.qs, program.sources
        pe_ids, q_ids = program.pe_ids, program.q_ids
        driven = sorted({pes[pid].r_qid for pid in pe_ids})
        none_slot = n_ap + len(driven)
        slot_of = {qid: n_ap + pos for pos, qid in enumerate(driven)}
        writers: dict[int, list] = {}
        que_ports = set()  # the (pid, slot) ports that read a que
        for pid in pe_ids:
            _, src0, src1, opcode, r_qid, top, bot = pes[pid]
            if r_qid >= cfg.n_q:
                raise AllocationError(f"PE{pid} writes que {r_qid}, n_q={cfg.n_q}")
            if not qs[r_qid].is_active:
                raise AllocationError(f"PE{pid} writes inactive que {r_qid}")
            for name, (lo, hi) in (("top", top), ("bot", bot)):
                if lo <= hi and hi >= cfg.q_sz:
                    raise AllocationError(f"PE{pid} {name} interval {lo, hi} exceeds que size")
            ports = []
            from_que = src0, src1
            for slot in range(OPCODE_ARITY[opcode]):
                if from_que[slot]:
                    que_ports.add((pid, slot))
                    ports.append(slot_of.get(sources[(pid, slot)], none_slot))
                    continue
                ap = program.routes[pid][slot]
                if ap >= n_ap:
                    raise AllocationError(f"PE{pid} operand {slot} reads ap{ap}, n_ap={n_ap}")
                ports.append(ap)
            writers.setdefault(r_qid, []).append(writer(opcode, ports[0], ports[-1], top, bot))
        verdict = None
        for qid in q_ids:
            _, is_verdict, pid, slot, head = qs[qid]
            if head >= cfg.q_sz:
                raise AllocationError(f"Q{qid} head {head} exceeds que size {cfg.q_sz}")
            if is_verdict:
                verdict = qid
            elif (pid, slot) not in que_ports:
                raise AllocationError(
                    f"Q{qid} names reader PE{pid}.{slot}, which does not take que input"
                )
        self.latency = program.latency
        self.program = program
        # The verdict que's place in plan order, or the always-None slot's.
        self._verdict = slot_of.get(verdict, none_slot) - n_ap
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
        warm-up. A bad event raises TraceError before any que moves; of a
        row of a ``Trace``, whose values the trace checked, only the width
        is checked. A HardFault stops the fabric until ``begin_reprogram``."""
        if self.mode != "running":
            raise ProtocolError(f"fabric is in {self.mode} mode")
        cfg = self.config
        if len(ap_values) != cfg.n_ap:
            raise TraceError(f"event width {len(ap_values)} != n_ap {cfg.n_ap}")
        if type(ap_values) is not _Row and not _VALUES.issuperset(ap_values):
            raise TraceError("event values must be 0 or 1")

        reads = [*ap_values, *self._delivered]
        delivered: list = []
        try:
            for send, key, memo, writers in self._plan:
                k = key(reads)
                try:
                    offer = memo[k]
                except KeyError:
                    offer = memo[k] = group_offer(writers, reads)
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
