"""A stateful model test of the programming port and the run API.

Hypothesis drives random sequences of ``load`` (a piece of one of four
bodies, plus stray zero bytes), ``begin_reprogram``, ``step`` and ``que``
against one fabric, and checks each call against a model of the port: the
cycle count and mode it must leave, the errors it must raise, and, for
verdicts and ques, a fresh fabric loaded with the latched bytes in one call
and stepped over the same events.
"""

from __future__ import annotations

import collections

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule, run_state_machine_as_test

from conftest import HOSTILE_CFG, faulting_body
from mtlmon import formula as F
from mtlmon.bitstream import encode_program
from mtlmon.compiler import compile_formula
from mtlmon.fabric import Fabric
from mtlmon.machine import QueState

CFG = HOSTILE_CFG
BODIES = (faulting_body(),) + tuple(
    encode_program(compile_formula(F.parse(text), CFG))
    for text in ("!ap0", "ap0 U[1,3] ap2", "G[0,3] (ap0 -> X ap1)")
)
SEEN: collections.Counter = collections.Counter()  # what the model met, by kind


def outcome(call, *args):
    """What a call returns, or the class and message of what it raises."""
    try:
        return call(*args)
    except Exception as exc:  # compare whatever escapes, whatever its class
        return type(exc).__name__, str(exc)


class PortModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.fabric = Fabric(CFG)
        self.mode = "programming"
        self.total_cycles = 0
        self.buffer = b""
        # A fresh fabric loaded with the latched bytes and stepped over the
        # same events; None before any latch or after a fault ends the ques.
        self.reference: Fabric | None = None
        self.latched = False

    @rule(body=st.sampled_from(BODIES), go_on=st.booleans(),
          cut=st.just(CFG.body_bytes) | st.integers(0, CFG.body_bytes + 3),
          zeros=st.integers(0, 2))
    def load(self, body, go_on, cut, zeros):
        # go_on continues the body from the bytes already shifted in, so
        # several loads can latch it; else the piece starts at byte 0. Half
        # the pieces run to the body's end, so that bodies latch often.
        start = len(self.buffer) if go_on else 0
        chunk = body[start:start + cut] + bytes(zeros)
        got = outcome(self.fabric.load, chunk)
        if chunk and self.mode != "programming":
            assert got[0] == "ProtocolError"
            SEEN["load while not programming"] += 1
            return
        need = CFG.body_bytes - len(self.buffer)
        self.buffer += chunk[:need]
        self.total_cycles += min(len(chunk), need)
        if len(self.buffer) < CFG.body_bytes:
            assert got is None
            return
        data, self.buffer = self.buffer, b""
        fresh = Fabric(CFG)
        latch = outcome(fresh.load, data)
        if latch is not None:  # rejected: the port stays open, later bytes dropped
            assert got == latch
            SEEN["rejected"] += 1
            return
        self.reference, self.latched, self.mode = fresh, True, "running"
        SEEN["latched"] += 1
        if chunk[need:]:
            assert got[0] == "ProtocolError"
            SEEN["past the latch"] += 1
        else:
            assert got is None

    @rule()
    def begin_reprogram(self):
        self.fabric.begin_reprogram()
        self.mode, self.buffer = "programming", b""

    @rule(event=st.tuples(*[st.integers(0, 1)] * CFG.n_ap))
    def step(self, event):
        got = outcome(self.fabric.step, event)
        if self.mode != "running":
            assert got == ("ProtocolError", f"fabric is in {self.mode} mode")
            SEEN["step while not running"] += 1
            return
        expected = outcome(self.reference.step, event)
        assert got == expected
        if isinstance(expected, tuple) and expected[0] == "HardFault":
            self.mode, self.reference = "faulted", None
            SEEN["fault"] += 1
        else:
            self.total_cycles += 1

    @rule(qid=st.integers(0, CFG.n_q - 1))
    def que(self, qid):
        got = outcome(self.fabric.que, qid)
        if self.reference is not None:
            assert got == self.reference.que(qid)
            SEEN["que"] += 1
        elif self.latched:  # a fault ended the ques
            assert got == ("ProtocolError", "a fault ended the ques; load a program first")
            SEEN["que after a fault"] += 1
        else:
            assert got == QueState()

    @invariant()
    def port_state_matches(self):
        assert (self.fabric.mode, self.fabric.total_cycles) == (self.mode, self.total_cycles)


def test_the_port_follows_its_model():
    SEEN.clear()
    run_state_machine_as_test(PortModel, settings=settings(
        max_examples=150, stateful_step_count=40, deadline=None, derandomize=True))
    # Every outcome the model tells apart came up.
    for what in ("latched", "rejected", "past the latch", "load while not programming",
                 "fault", "step while not running", "que after a fault", "que"):
        assert SEEN[what] > 0, SEEN
