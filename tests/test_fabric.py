import dataclasses
import hashlib
import random
import sys

import pytest

from conftest import (
    HOSTILE_CFG,
    gap_body,
    random_bodies,
    second_verdict_body,
    stray_writer_body,
    two_faults_body,
    wire_chain_program,
)
from mtlmon import formula as F
from mtlmon.bitstream import decode_program, encode_program
from mtlmon.compiler import allocate, compile_formula, plan
from mtlmon.errors import AllocationError, BitstreamError, HardFault, ProtocolError, TraceError
from mtlmon.fabric import Fabric
from mtlmon.machine import QueState
from mtlmon.oracle import oracle_verdicts
from mtlmon.program import (
    INACTIVE_PE,
    INACTIVE_Q,
    FabricConfig,
    MonitorProgram,
    PeConfig,
    QConfig,
    derive_latency,
    resolve_operands,
)
from mtlmon.toolchain import (
    DEFAULT_CONFIG,
    check_formula,
    diff_verdicts,
    expected_emission,
    random_trace,
    run_program,
    stream_trace,
)
from mtlmon.trace import make_trace

SMALL = FabricConfig(4, 4, 8, 16)


def loaded_fabric(formula, cfg):
    program = compile_formula(F.parse(formula), cfg)
    fabric = Fabric(cfg)
    fabric.load(encode_program(program))
    return fabric, program


def pad(rows, width):
    return make_trace([list(r) + [0] * (width - len(r)) for r in rows])


# -- construction and programming protocol --------------------------------------

def test_fresh_fabric_is_programming_mode():
    fabric = Fabric(FabricConfig(16, 16, 16, 256))
    assert fabric.mode == "programming"
    assert fabric.total_cycles == 0
    assert [fabric.que(qid) for qid in range(16)] == [QueState()] * 16
    with pytest.raises(IndexError):
        fabric.que(16)


def test_degenerate_single_cell_ques():
    fabric = Fabric(FabricConfig(2, 2, 2, 1))
    fabric.load(bytes(fabric.config.body_bytes))  # all-inactive is loadable
    assert fabric.mode == "running"


def test_programming_takes_one_cycle_per_byte():
    fabric = Fabric(SMALL)
    assert SMALL.body_bytes == 20
    program = compile_formula(F.parse("ap0 -> X ap1"), SMALL)
    fabric.load(encode_program(program))
    assert fabric.total_cycles == 20
    assert fabric.mode == "running"


def test_bulk_load_matches_split_and_byte_by_byte_loads():
    cfg = FabricConfig(8, 8, 4, 16)
    program = compile_formula(F.parse("F[0,1] !ap1 | F[1,4] ap2"), cfg)
    body = encode_program(program)
    whole, split, bytewise = Fabric(cfg), Fabric(cfg), Fabric(cfg)
    whole.load(body)
    split.load(body[:7])
    split.load(body[7:])
    for byte in body:
        bytewise.load_program_byte(byte)
    for fabric in (whole, split, bytewise):
        assert fabric.program == program
        assert fabric.latency == program.latency
        assert fabric.total_cycles == len(body)


def test_bulk_load_rejects_bytes_past_the_latch_and_non_bytes():
    body = encode_program(compile_formula(F.parse("!ap0"), SMALL))
    fabric = Fabric(SMALL)
    with pytest.raises(ProtocolError):
        fabric.load(body + b"\x00")
    assert fabric.mode == "running"
    assert fabric.total_cycles == len(body)
    with pytest.raises(ValueError):
        Fabric(SMALL).load([0] * (len(body) - 1) + [256])


def test_step_requires_running_mode():
    fabric = Fabric(SMALL)
    with pytest.raises(ProtocolError):
        fabric.step([False] * 8)


def test_byte_while_running_is_a_protocol_error():
    fabric, _ = loaded_fabric("!ap0", SMALL)
    with pytest.raises(ProtocolError):
        fabric.load_program_byte(0)
    fabric.begin_reprogram()
    fabric.load_program_byte(0)  # fine again


def test_zero_bytes_load_an_inert_fabric():
    fabric = Fabric(SMALL)
    fabric.load(bytes(SMALL.body_bytes))
    for _ in range(5):
        assert fabric.step([False] * 8) is None


def test_latched_program_is_inspectable():
    fabric, program = loaded_fabric("F[0,1] !ap1 | F[1,4] ap2", FabricConfig(8, 8, 4, 16))
    assert fabric.program.pes[0].opcode == "not"
    assert fabric.program.pes[0].r_qid == 0
    assert fabric.latency == 8


def test_event_width_is_checked():
    fabric, _ = loaded_fabric("!ap0", SMALL)
    with pytest.raises(TraceError):
        fabric.step([False] * 3)


# -- single-cycle behavior -------------------------------------------------------

def test_negation_stream_through_the_fabric():
    fabric, program = loaded_fabric("!ap0", SMALL)
    trace = pad([[1], [0], [0]], 8)
    assert stream_trace(fabric, trace) == [(0, False), (1, True)]


def test_next_implication_flags_the_violation():
    # ap0 high at step k, ap1 low at k+1 -> verdict false for time k
    fabric, program = loaded_fabric("ap0 -> X ap1", SMALL)
    k = 6
    rows = [[1 if t == k else 0, 0] for t in range(20)]
    verdicts = dict(stream_trace(fabric, pad(rows, 8)))
    assert verdicts[k] is False
    assert all(verdicts[t] for t in verdicts if t != k)


def test_disjunction_with_window_goes_false_on_silence():
    fabric, program = loaded_fabric("ap0 | F[1,3] ap1", SMALL)
    trace = pad([[0, 0]] * 24, 8)
    verdicts = stream_trace(fabric, trace)
    assert verdicts == [(t, False) for t in range(24 - program.latency + 1)]


def test_first_verdict_lands_exactly_at_latency():
    for text in ("!ap0", "ap0 -> X ap1", "G[1,4] ap1", "ap0 U[1,2] ap1"):
        fabric, program = loaded_fabric(text, SMALL)
        silent = 0
        emitted = None
        for t in range(30):
            out = fabric.step([True] * 8)
            if out is None:
                silent += 1
            elif emitted is None:
                emitted = t
        assert emitted == program.latency - 1
        assert silent == program.latency - 1


# -- offers and que masks --------------------------------------------------------

def test_gap_between_offers_is_a_hard_fault():
    fabric = Fabric(HOSTILE_CFG)
    fabric.load(gap_body())
    assert fabric.mode == "running"
    with pytest.raises(HardFault, match="Q0 bot offers leave cell 1 uncovered"):
        fabric.step([False] * HOSTILE_CFG.n_ap)


def test_ques_faulting_in_one_cycle_report_the_lowest_qid():
    # PE0 writes Q1 and PE1 writes Q0; both ques fault on the first event.
    fabric = Fabric(HOSTILE_CFG)
    fabric.load(two_faults_body())
    with pytest.raises(HardFault, match="^Q0 deleted unresolved cell at head 0"):
        fabric.step([1, 1, 0])
    assert fabric.mode == "faulted"


def test_a_bad_event_value_leaves_the_fabric_running():
    fabric, _ = loaded_fabric("!ap0", SMALL)
    with pytest.raises(TraceError, match="must be 0 or 1"):
        fabric.step(["x"] * SMALL.n_ap)
    assert fabric.mode == "running"
    assert stream_trace(fabric, pad([[1], [0], [1]], 8)) != []


def test_an_event_value_reads_by_truth_like_make_trace():
    # 1.0 equals 1, so it passes the value check; a fresh fabric must read it
    # as 1 on its first event, whatever keys its ques have met before.
    rng = random.Random(3)
    bits = [[rng.randrange(2) for _ in range(SMALL.n_ap)] for _ in range(30)]
    runs = []
    for one, zero in ((1.0, 0.0), (1, 0), (True, False)):
        fabric, _ = loaded_fabric("ap0 U[1,2] ap1", SMALL)
        runs.append([fabric.step([one if b else zero for b in row]) for row in bits])
    assert runs[0] == runs[1] == runs[2]
    assert any(runs[0])


@pytest.mark.parametrize("first, bad", [
    ([1, 0, 0], ["x", 1, 0]), ([0, 1, 0], [1, "x", 0]),
    ([1, 0, 0], [-1, 0, 0]), ([0, 1, 0], [2, 0, 0]),
])
def test_a_bad_event_value_changes_no_que(first, bad):
    # Two leaf ques, one per AP. The que that updates first in the failed
    # cycle must not keep the bad event as a cell, or its windows shift by
    # one and miss the false at time 0.
    program = compile_formula(F.parse("G[0,4] ap0 & G[0,4] ap1"), HOSTILE_CFG)
    events = [first] + [[1, 1, 0]] * 19
    fresh, _ = run_program(program, make_trace(events))
    fabric = Fabric(HOSTILE_CFG)
    fabric.load(encode_program(program))
    got = [fabric.step(e) for e in events[:3]]
    with pytest.raises(TraceError, match="must be 0 or 1"):
        fabric.step(bad)
    assert fabric.mode == "running"
    got += [fabric.step(e) for e in events[3:]]
    assert [v for v in got if v is not None] == fresh


def test_a_fault_stops_the_fabric_until_it_is_reprogrammed():
    events = [[1, 1, 0]] * 7
    fresh = Fabric(HOSTILE_CFG)
    fresh.load(gap_body())
    expected = [fresh.step(e) for e in events]
    fabric = Fabric(HOSTILE_CFG)
    fabric.load(gap_body())
    with pytest.raises(HardFault):
        fabric.step([0, 0, 0])
    assert fabric.mode == "faulted"
    for event in events:
        with pytest.raises(ProtocolError, match="faulted"):
            fabric.step(event)
    with pytest.raises(ProtocolError, match="while faulted"):
        fabric.load(gap_body())
    fabric.begin_reprogram()
    fabric.load(gap_body())
    assert [fabric.step(e) for e in events] == expected
    assert expected == [None] * 5 + [(0, True), (1, True)]


@pytest.mark.parametrize("text", ["G[0,4] ap0 & G[0,4] ap1", "!ap1"])
def test_a_fault_after_a_lower_que_stepped_leaves_nothing_behind(text):
    # Q1 (G[0,4] ap0) with head 0 deletes an unresolved cell on the first
    # event with ap0 set; Q0 (G[0,4] ap1) has stepped in that cycle. After
    # a reprogram, to the same formula or to one whose verdict que is Q0,
    # nothing of that cycle may show.
    broken = _tamper(compile_formula(F.parse("G[0,4] ap0 & G[0,4] ap1"), HOSTILE_CFG), 1, head=0)
    program = compile_formula(F.parse(text), HOSTILE_CFG)
    rng = random.Random(4)
    events = [[1, int(rng.random() < 0.8), 0] for _ in range(40)]
    fresh, _ = run_program(program, make_trace(events))
    assert {v for _, v in fresh} == {False, True}
    fabric = Fabric(HOSTILE_CFG)
    fabric.load(encode_program(broken))
    assert fabric.step([0, 1, 0]) is None
    with pytest.raises(HardFault, match="^Q1 deleted unresolved cell at head 0"):
        fabric.step([1, 1, 0])
    assert fabric.mode == "faulted"
    fabric.begin_reprogram()
    fabric.load(encode_program(program))
    assert [v for v in (fabric.step(e) for e in events) if v is not None] == fresh


def test_a_long_que_chain_decodes_loads_and_delays_its_ap():
    # 1,000 chained wire stages: deriving the latency walks the chain
    # without recursing once per que.
    program = wire_chain_program(1000)
    body = encode_program(program)
    assert decode_program(body, program.config).latency == 2000
    fabric = Fabric(program.config)
    fabric.load(body)
    assert fabric.latency == 2000
    rng = random.Random(11)
    events = [[rng.randrange(2)] for _ in range(2010)]
    got = [v for v in (fabric.step(e) for e in events) if v is not None]
    assert got == [(t, bool(events[t][0])) for t in range(11)]


def _count_calls(monkeypatch, names):
    """Count the calls of each named function through every mtlmon module
    that binds the name, so that a call made through any binding counts."""
    counts = dict.fromkeys(names, 0)
    modules = [m for n, m in sys.modules.items() if n == "mtlmon" or n.startswith("mtlmon.")]
    for module in modules:
        for name in names:
            fn = vars(module).get(name)
            if fn is None:
                continue

            def counted(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return counts


def test_text_to_latch_resolves_once_and_derives_the_latency_once_a_step(monkeypatch):
    # Compiling records each port's que as it lowers and resolves nothing;
    # loading resolves once in the decoder, which hands the resolution and
    # the latency on to the latch.
    cfg = FabricConfig(256, 256, 16, 4096)
    f = F.parse("G[0,3] (ap0 U[1,4] (X ap1 | F[0,2] !(ap2 & ap3)))")
    assert f.depth == 6
    counts = _count_calls(monkeypatch, ("resolve_operands", "derive_latency"))
    program = compile_formula(f, cfg)
    assert counts == {"resolve_operands": 0, "derive_latency": 1}
    body = encode_program(program)
    counts.update(resolve_operands=0, derive_latency=0)
    fabric = Fabric(cfg)
    fabric.load(body)
    assert counts == {"resolve_operands": 1, "derive_latency": 1}
    assert fabric.program == program and fabric.latency == program.latency
    monkeypatch.undo()
    assert program.latency == derive_latency(program.pes, program.qs)
    assert program.sources == resolve_operands(program.pes, program.qs)
    assert fabric.program.sources == program.sources


def test_a_que_cycle_beside_the_verdict_tree_loads_and_never_fires():
    # PE0 wires ap0 into the verdict que Q0; PE1 wires Q2 into Q1 and PE2
    # negates Q1 into Q2. No que of that cycle feeds Q0, so it leaves the
    # latency alone, and neither of its ques ever holds a cell: each waits
    # for the other's first value.
    cfg = HOSTILE_CFG
    wire = PeConfig(True, False, False, "wire", 0, (0, 0), (0, 0))
    pes = (
        wire,
        dataclasses.replace(wire, op0_from_que=True, r_qid=1),
        dataclasses.replace(wire, op0_from_que=True, opcode="not", r_qid=2),
    ) + (INACTIVE_PE,) * (cfg.n_pe - 3)
    qs = (
        QConfig(True, True, 0, 0, 1),
        QConfig(True, False, 2, 0, 1),
        QConfig(True, False, 1, 0, 1),
    ) + (INACTIVE_Q,) * (cfg.n_q - 3)
    program = MonitorProgram(cfg, pes, qs, ((0, 0),) * cfg.n_pe, 2)
    assert derive_latency(pes, qs) == 2
    body = encode_program(program)
    assert decode_program(body, cfg) == program
    fabric = Fabric(cfg)
    fabric.load(body)
    assert fabric.latency == 2
    events = random_trace(random.Random(15), 40, cfg.n_ap).events
    got = [v for v in (fabric.step(e) for e in events) if v is not None]
    assert got == [(t, events[t][0]) for t in range(39)]
    assert [fabric.que(1), fabric.que(2)] == [QueState(), QueState()]


def test_adjacent_offers_merge():
    # The unmodified until offers (0, 1), (2, 3) and (4, 4) to its bottom
    # on an all-false event: one span, no fault.
    f = F.parse("ap0 U[2,4] ap1")
    program = compile_formula(f, HOSTILE_CFG)
    trace = make_trace([[0, 0, 0]] * 3 + [[1, 0, 0], [0, 1, 0], [1, 1, 0]] * 3)
    verdicts, _ = run_program(program, trace)
    expected = expected_emission(len(trace), program.latency)
    assert [t for t, _ in verdicts] == list(expected)
    assert not diff_verdicts(verdicts, oracle_verdicts(f, trace), expected)


def test_wide_window_agrees_with_the_oracle():
    # A 2001-cell interval, clipped at occupancy through a 3,006-cycle
    # warm-up, on a 4,096-cell que.
    cfg = FabricConfig(256, 256, 16, 4096)
    trace = random_trace(random.Random(1), 3100, cfg.n_ap)
    report = check_formula("G[0,2000] (ap0 -> F[0,1000] ap1)", cfg, trace)
    assert report.ok
    assert len(report.verdicts) == 95


# -- rejection of misprogrammed monitors ------------------------------------------

def _tamper(program, qid, **changes):
    qs = list(program.qs)
    qs[qid] = dataclasses.replace(qs[qid], **changes)
    return dataclasses.replace(program, qs=tuple(qs))


def test_two_ques_on_one_port_rejected():
    program = compile_formula(F.parse("!(!ap0) & !ap1"), FabricConfig(8, 8, 4, 16))
    # find two distinct active ques and alias their reader ports
    clash = _tamper(program, 0, reader_pe=program.qs[1].reader_pe, inp_no=program.qs[1].inp_no)
    fabric = Fabric(program.config)
    with pytest.raises(AllocationError, match="name"):
        fabric.load(encode_program(clash))


def test_reader_must_take_que_input():
    program = compile_formula(F.parse("!(!ap0)"), FabricConfig(8, 8, 4, 16))
    broken = _tamper(program, 0, reader_pe=0, inp_no=1)  # not is unary
    fabric = Fabric(program.config)
    with pytest.raises(AllocationError, match="que"):
        fabric.load(encode_program(broken))


def test_unread_active_que_rejected():
    program = compile_formula(F.parse("!ap0"), FabricConfig(8, 8, 4, 16))
    qs = list(program.qs)
    qs[1] = QConfig(True, False, 0, 0, 1)  # active, nobody reads or writes it
    broken = dataclasses.replace(program, qs=tuple(qs))
    fabric = Fabric(program.config)
    with pytest.raises(AllocationError):
        fabric.load(encode_program(broken))


@pytest.mark.parametrize("text,stream,tap", [
    ("!ap0 U[1,2] !ap1", 0, (2, 0)),
    ("!ap0 U[1,2] !ap1", 1, (2, 1)),
    ("!ap0 U[0,2] !ap1", 1, (0, 1)),
])
def test_until_que_naming_the_or_port_is_rejected(text, stream, tap):
    # Taps run one way only: the named port feeds the or machine's tap,
    # never the other way round, so the wire is left without a source.
    cfg = FabricConfig(8, 8, 4, 16)
    root = plan(F.parse(text))
    program = allocate(root, cfg)
    child = root.operands[stream]
    broken = _tamper(program, child.q_id, reader_pe=root.pe_ids[tap[0]], inp_no=tap[1])
    with pytest.raises(AllocationError, match="operand 0 has no que routed to it"):
        Fabric(cfg).load(encode_program(broken))


def test_head_filling_whole_que_rejected():
    program = compile_formula(F.parse("!ap0"), FabricConfig(8, 8, 4, 16))
    broken = _tamper(program, 0, head=16)
    fabric = Fabric(program.config)
    with pytest.raises(Exception):
        fabric.load(encode_program(broken))


# -- runtime reprogramming ---------------------------------------------------------

def test_reprogram_idempotent_and_monotonic():
    fabric, _ = loaded_fabric("!ap0", SMALL)
    fabric.step([False] * 8)
    cycles = fabric.total_cycles
    fabric.begin_reprogram()
    fabric.begin_reprogram()
    assert fabric.mode == "programming"
    assert fabric.total_cycles == cycles  # opening the port is not a cycle


def test_reprogram_behaves_like_fresh_fabric():
    rng = random.Random(88)
    cfg = SMALL
    first = compile_formula(F.parse("ap0 -> X ap1"), cfg)
    second = compile_formula(F.parse("ap0 | F[1,3] ap1"), cfg)
    fabric = Fabric(cfg)
    fabric.load(encode_program(first))
    stream_trace(fabric, random_trace(rng, 37, cfg.n_ap))
    fabric.begin_reprogram()
    fabric.load(encode_program(second))
    tail = random_trace(rng, 41, cfg.n_ap)
    replayed = stream_trace(fabric, tail)
    fresh, _ = run_program(second, tail)
    assert replayed == fresh


def test_reprogram_reusing_que_ids_with_other_masks_is_fresh():
    # B's ques have A's ids and read keys, but other writers and masks: no
    # offer A's ques met may carry over.
    rng = random.Random(21)
    cfg = SMALL
    a = compile_formula(F.parse("G[0,3] ap0 & F[1,2] ap1"), cfg)
    b = compile_formula(F.parse("F[0,3] ap0 | G[1,2] ap1"), cfg)
    writers = [{(pe.r_qid, pe.opcode, pe.top_interval, pe.bot_interval)
                for pe in p.pes if pe.is_active} for p in (a, b)]
    assert {w[0] for w in writers[0]} == {w[0] for w in writers[1]}
    assert writers[0].isdisjoint(writers[1])
    fabric = Fabric(cfg)
    fabric.load(encode_program(a))
    stream_trace(fabric, random_trace(rng, 40, cfg.n_ap))
    fabric.begin_reprogram()
    fabric.load(encode_program(b))
    tail = random_trace(rng, 40, cfg.n_ap)
    fresh, _ = run_program(b, tail)
    assert stream_trace(fabric, tail) == fresh


def test_verdicts_after_reprogram_match_brute_force():
    cfg = SMALL
    f2 = F.parse("ap0 U[0,3] ap1")
    fabric, _ = loaded_fabric("G[0,2] ap0", cfg)
    rng = random.Random(5)
    stream_trace(fabric, random_trace(rng, 25, cfg.n_ap))
    fabric.begin_reprogram()
    program = compile_formula(f2, cfg)
    fabric.load(encode_program(program))
    tail = random_trace(rng, 40, cfg.n_ap)
    verdicts = stream_trace(fabric, tail)
    assert not diff_verdicts(
        verdicts, oracle_verdicts(f2, tail), expected_emission(40, program.latency)
    )


def test_half_programmed_fabric_resets_cleanly():
    fabric, _ = loaded_fabric("!ap0", SMALL)
    fabric.begin_reprogram()
    fabric.load_program_byte(0xFF)
    fabric.begin_reprogram()  # drops the partial byte stream
    program = compile_formula(F.parse("!ap1"), SMALL)
    fabric.load(encode_program(program))
    assert fabric.mode == "running"
    trace = pad([[0, 1], [0, 0]], 8)
    assert stream_trace(fabric, trace) == [(0, False)]


def test_hostile_bodies_are_rejected_at_load():
    with pytest.raises(BitstreamError, match="verdict que"):
        Fabric(HOSTILE_CFG).load(second_verdict_body())
    with pytest.raises(AllocationError, match="writes que 7"):
        Fabric(HOSTILE_CFG).load(stray_writer_body())


def test_run_outcomes_of_hostile_bodies_are_pinned():
    # What the fabric makes of an arbitrary body is part of the contract:
    # its verdicts over seeded events, or the error class and message and
    # the index of the event that raised it (-1 at load). Any change to
    # either shows up as a different digest.
    rng = random.Random(2605)
    digest = hashlib.sha256()
    counts = [0, 0, 0]  # load errors, clean runs, mid-run faults
    for cfg in (HOSTILE_CFG, FabricConfig(8, 8, 4, 16), FabricConfig(3, 3, 2, 5), DEFAULT_CONFIG):
        for body in random_bodies(rng, cfg, 1500):
            bits = rng.getrandbits(30 * cfg.n_ap)
            events = [[bits >> (t * cfg.n_ap + k) & 1 for k in range(cfg.n_ap)] for t in range(30)]
            fabric = Fabric(cfg)
            verdicts, index = [], -1
            try:
                fabric.load(body)
                for index, event in enumerate(events):
                    verdicts.append(fabric.step(event))
            except Exception as exc:  # pin whatever escapes, whatever its class
                outcome = f"{index} {type(exc).__name__}: {exc}"
                counts[0 if index < 0 else 2] += 1
            else:
                outcome = repr(verdicts)
                counts[1] += 1
            digest.update(outcome.encode() + b"\n")
    assert counts == [3295, 2423, 282]
    assert digest.hexdigest() == (
        "71398e7ea98f06f34f85e4b885fa24472bdfc1104aabccd15f8940c4ab915ff8"
    )
