import random

import pytest

from mtlmon import formula as F
from mtlmon.bitstream import encode_program
from mtlmon.compiler import compile_formula
from mtlmon.errors import HardFault, QueOverflowError
from mtlmon.fabric import Fabric
from mtlmon.machine import (
    EMPTY_INTERVAL,
    MAYBE,
    AmProgram,
    EvaluatorMachine,
    QueState,
    am_result,
    em_build,
    em_run,
    em_step,
    em_step_trace,
    empty_que,
    interval_mask,
    is_empty,
    min_head,
    que_step,
    stream_ports,
)
from mtlmon.oracle import oracle_verdicts
from mtlmon.program import FabricConfig
from mtlmon.trace import make_trace

T, B, M = True, False, MAYBE


def q(*cells, capacity=8):
    known = sum(1 << k for k, cell in enumerate(cells) if cell is not M)
    value = sum(1 << k for k, cell in enumerate(cells) if cell is T)
    return QueState(len(cells), known, value, capacity)


def step(cells, bot=EMPTY_INTERVAL, top=EMPTY_INTERVAL, head=7):
    """One que_step from the given cells; the cells after it and the deleted value."""
    state = q(*cells)
    que, deleted = que_step(
        (state.occupancy, state.known, state.value), interval_mask(bot), interval_mask(top), head
    )
    return QueState(*que, state.capacity).cells, deleted


# -- que primitives ----------------------------------------------------------

def test_add_shifts_and_inserts_maybe():
    assert step((B,)) == ((M, B), None)
    assert step(()) == ((M,), None)
    assert step((M, M, B)) == ((M, M, M, B), None)


def test_add_overflow():
    with pytest.raises(QueOverflowError):
        em_step(em_build("wire", 1), q(T, B, capacity=2), T)


def test_del_returns_head_cell():
    # add -> (M, B); the top offer settles cell 0; delete at 1 takes B
    assert step((B,), top=(0, 0), head=1) == ((T,), B)


def test_del_beyond_occupancy_is_noop():
    assert step((B,), top=(0, 0), head=2) == ((T, B), None)


def test_del_mid_queue():
    assert step((T, T, B), bot=(0, 0), head=3) == ((B, T, T), B)


def test_del_of_maybe_is_hard_fault():
    with pytest.raises(HardFault, match="deleted unresolved cell at head 1"):
        step((M,), bot=(0, 0), head=1)


def test_modify_resolves_maybe_only():
    assert step((B,), top=(0, 0)) == ((T, B), None)
    assert step((T, B), bot=(0, 2)) == ((B, T, B), None)


def test_modify_skips_empty_positions_and_intervals():
    assert step((M, M, B), top=(1, 2)) == ((M, T, T, B), None)
    assert step((B,), top=(2, 5)) == ((M, B), None)
    assert interval_mask((1, 0)) == 0
    assert step((M,), top=(1, 0)) == ((M, M), None)  # empty interval


def test_modify_sequence_from_worked_until_step():
    # until[1,2], step 4: top settles cells 1-2 true, bottom cell 0 false
    assert step((M, M, B), bot=(0, 0), top=(1, 2)) == ((B, T, T, B), None)
    assert step((M, M, B), bot=(0, 0), top=(1, 2), head=3) == ((B, T, T), B)


# -- abstract machine result ---------------------------------------------------

@pytest.mark.parametrize("opcode,a,b,expected", [
    ("implies", T, B, B),
    ("implies", B, B, T),
    ("wire", B, None, B),
    ("not", B, None, T),
    ("or", B, T, T),
    ("and", T, B, B),
])
def test_am_result(opcode, a, b, expected):
    assert am_result(opcode, a, b) is expected


def test_am_result_arity_errors():
    with pytest.raises(ValueError):
        am_result("not", T, B)
    with pytest.raises(ValueError):
        am_result("and", T)


# -- machine building (one row per operator) ----------------------------------

def test_min_head_per_operator():
    assert min_head("not") == 1
    assert min_head("and") == 1
    assert min_head("next") == 2
    assert min_head("until", (0, 2)) == 3
    assert min_head("box", (1, 4)) == 5


def test_build_box():
    em = em_build("box", 5, (1, 4))
    assert em.ams == (AmProgram("wire", 0, None, (4, 4), (1, 4)),)


def test_build_until_with_offset_window():
    em = em_build("until", 3, (1, 2))
    assert em.ams == (
        AmProgram("wire", 0, None, EMPTY_INTERVAL, (0, 0)),
        AmProgram("wire", 1, None, (1, 2), (2, 2)),
        AmProgram("or", 0, 1, EMPTY_INTERVAL, (1, 1)),
    )


def test_build_until_from_zero():
    em = em_build("until", 4, (0, 3))
    assert em.ams == (
        AmProgram("or", 0, 1, EMPTY_INTERVAL, (0, 2)),
        AmProgram("wire", 1, None, (0, 3), (3, 3)),
    )


@pytest.mark.parametrize("kind,interval,ports", [
    ("not", None, [[(0, 0)]]),
    ("wire", None, [[(0, 0)]]),
    ("next", None, [[(0, 0)]]),
    ("box", (1, 4), [[(0, 0)]]),
    ("diamond", (1, 4), [[(0, 0)]]),
    ("and", None, [[(0, 0)], [(0, 1)]]),
    ("or", None, [[(0, 0)], [(0, 1)]]),
    ("implies", None, [[(0, 0)], [(0, 1)]]),
    # (wire, wire, or): each wire's port is named, the or taps both
    ("until", (1, 2), [[(0, 0), (2, 0)], [(1, 0), (2, 1)]]),
    # (or, wire): the or's port is named for stream 0, the wire's for stream 1
    ("until", (0, 3), [[(0, 0)], [(1, 0), (0, 1)]]),
])
def test_stream_ports_name_a_wire_port_first(kind, interval, ports):
    em = em_build(kind, min_head(kind, interval), interval)
    assert stream_ports(em.ams) == ports
    assert em.arity == len(ports)


@pytest.mark.parametrize(
    "kind", ["not", "and", "or", "implies", "wire", "next", "box", "diamond", "until"]
)
def test_machine_intervals_are_record_intervals_below_the_minimum_head(kind):
    # The invariant that lets allocate copy the intervals into PE records
    # with neither a re-encoding nor a que-size check.
    if kind in ("box", "diamond", "until"):
        grid = [(t1, t2) for t2 in range(7) for t1 in range(t2 + 1)]
    else:
        grid = [None]
    for interval in grid:
        lo_head = min_head(kind, interval)
        for am in em_build(kind, lo_head, interval).ams:
            for iv in (am.top_interval, am.bot_interval):
                if is_empty(iv):
                    assert iv == EMPTY_INTERVAL, (kind, interval, am)
                else:
                    assert 0 <= iv[0] <= iv[1] < lo_head, (kind, interval, am)


def test_build_rejects_small_head_and_bad_interval():
    with pytest.raises(ValueError):
        em_build("until", 2, (1, 2))
    with pytest.raises(ValueError):
        em_build("until", 4, (2, 1))
    with pytest.raises(ValueError):
        em_build("not", 0)


# -- golden table: negation ----------------------------------------------------

def test_negation_step_by_step():
    em = em_build("not", 1)
    state = empty_que(2)

    state, tr = em_step_trace(em, state, T)
    assert tr.results == (B,)
    assert tr.after_add == (M,)
    assert tr.fired == ((B, (0, 0)),)
    assert tr.after_modify == (B,)
    assert tr.after_del == (B,)
    assert tr.verdict is None  # nothing at position 1 yet

    state, tr = em_step_trace(em, state, B)
    assert tr.after_add == (M, B)
    assert tr.after_modify == (T, B)
    assert tr.after_del == (T,)
    assert tr.verdict is B  # r0

    state, tr = em_step_trace(em, state, B)
    assert tr.after_add == (M, T)
    assert tr.after_modify == (T, T)
    assert tr.verdict is T  # r1


# -- golden table: until[1,2] ---------------------------------------------------

def test_until_step_by_step():
    em = em_build("until", 3, (1, 2))
    state = empty_que(4)
    inputs = [(B, B), (T, B), (T, B), (B, T), (T, T)]
    expectations = [
        # results, after_add, fired, after_modify, after_del, verdict
        ((B, B, B), (M,), ((B, (0, 0)), (B, (2, 2)), (B, (1, 1))), (B,), (B,), None),
        ((T, B, T), (M, B), ((B, (2, 2)),), (M, B), (M, B), None),
        ((T, B, T), (M, M, B), ((B, (2, 2)),), (M, M, B), (M, M, B), None),
        ((B, T, T), (M, M, M, B), ((B, (0, 0)), (T, (1, 2))), (B, T, T, B), (B, T, T), B),
        ((T, T, T), (M, B, T, T), ((T, (1, 2)),), (M, B, T, T), (M, B, T), T),
    ]
    for (a0, a1), (res, after_add, fired, after_modify, after_del, verdict) in zip(
        inputs, expectations
    ):
        state, tr = em_step_trace(em, state, a0, a1)
        assert tr.results == res
        assert tr.after_add == after_add
        assert tr.fired == fired
        assert tr.after_modify == after_modify
        assert tr.after_del == after_del
        assert tr.verdict is verdict


def test_conjunction_single_step():
    # hand-stepped: add -> [M, T]; and(T,T)=T resolves cell 0; del at 1 pops T
    em = em_build("and", 1)
    state, verdict = em_step(em, q(T, capacity=2), T, T)
    assert state.cells == (T,) and verdict is T
    # cross-check against the two-step trace via the brute-force evaluation
    f = F.And(F.AP(0), F.AP(1))
    assert oracle_verdicts(f, make_trace([(1, 1), (1, 1)])) == [True, True]


# -- streaming -----------------------------------------------------------------

def test_run_negation_stream():
    em = em_build("not", 1)
    assert em_run(em, [T, B, B]) == [B, T]


def test_run_until_stream():
    em = em_build("until", 3, (1, 2))
    a0 = [B, T, T, B, T]
    a1 = [B, B, B, T, T]
    assert em_run(em, a0, a1) == [B, T]


def test_run_wire_is_delay():
    em = em_build("wire", 1)
    stream = [T, B, T, T, B]
    assert em_run(em, stream) == stream[:-1]


# -- appendix conformance table --------------------------------------------------

def _fired_for(kind, interval, head, a0, a1=None, prefill=6):
    """Drive some warm-up steps, then record what the probe step modifies."""
    em = em_build(kind, head, interval)
    state = empty_que(head + 1)
    rng = random.Random(9)
    for _ in range(prefill):
        ops = [rng.random() < 0.5 for _ in range(em.arity)]
        state, _ = em_step(em, state, *ops)
    _, tr = em_step_trace(em, state, a0, *([] if a1 is None else [a1]))
    return set(tr.fired)


CONFORMANCE = [
    ("not", None, (B,), {(T, (0, 0))}),
    ("not", None, (T,), {(B, (0, 0))}),
    ("or", None, (B, B), {(B, (0, 0))}),
    ("or", None, (B, T), {(T, (0, 0))}),
    ("or", None, (T, B), {(T, (0, 0))}),
    ("or", None, (T, T), {(T, (0, 0))}),
    ("and", None, (B, B), {(B, (0, 0))}),
    ("and", None, (B, T), {(B, (0, 0))}),
    ("and", None, (T, B), {(B, (0, 0))}),
    ("and", None, (T, T), {(T, (0, 0))}),
    ("implies", None, (B, B), {(T, (0, 0))}),
    ("implies", None, (B, T), {(T, (0, 0))}),
    ("implies", None, (T, B), {(B, (0, 0))}),
    ("implies", None, (T, T), {(T, (0, 0))}),
    ("next", None, (B,), {(B, (1, 1))}),
    ("next", None, (T,), {(T, (1, 1))}),
    ("box", (2, 5), (B,), {(B, (2, 5))}),
    ("box", (2, 5), (T,), {(T, (5, 5))}),
    ("diamond", (2, 5), (B,), {(B, (5, 5))}),
    ("diamond", (2, 5), (T,), {(T, (2, 5))}),
    ("until", (2, 5), (B, B), {(B, (5, 5)), (B, (2, 4)), (B, (0, 1))}),
    ("until", (2, 5), (B, T), {(B, (0, 1)), (T, (2, 5))}),
    ("until", (2, 5), (T, B), {(B, (5, 5))}),
    ("until", (2, 5), (T, T), {(T, (2, 5))}),
    ("until", (0, 3), (B, B), {(B, (3, 3)), (B, (0, 2))}),
    ("until", (0, 3), (B, T), {(T, (0, 3))}),
    ("until", (0, 3), (T, B), {(B, (3, 3))}),
    ("until", (0, 3), (T, T), {(T, (0, 3))}),
]


@pytest.mark.parametrize("kind,interval,operands,expected", CONFORMANCE)
def test_modification_conformance(kind, interval, operands, expected):
    head = 1 if interval is None else interval[1] + 1
    if kind == "next":
        head = 2
    assert _fired_for(kind, interval, head, *operands) == expected


@pytest.mark.parametrize("interval,expected", [
    ((2, 2), {(B, (2, 2)), (B, (0, 1))}),
    ((0, 0), {(B, (0, 0))}),
])
def test_until_with_t1_equal_t2_lists_no_empty_write(interval, expected):
    # The or machine's bottom interval t1..t2-1 is empty here: it never writes.
    assert _fired_for("until", interval, interval[1] + 1, B, B) == expected


# -- correctness theorems ---------------------------------------------------------

SINGLE_OPS = [
    ("not", None, F.Not(F.AP(0))),
    ("and", None, F.And(F.AP(0), F.AP(1))),
    ("or", None, F.Or(F.AP(0), F.AP(1))),
    ("implies", None, F.Implies(F.AP(0), F.AP(1))),
    ("next", None, F.Next(F.AP(0))),
    ("box", (1, 4), F.Box(F.AP(0), 1, 4)),
    ("box", (0, 3), F.Box(F.AP(0), 0, 3)),
    ("diamond", (2, 5), F.Diamond(F.AP(0), 2, 5)),
    ("until", (1, 3), F.Until(F.AP(0), F.AP(1), 1, 3)),
    ("until", (0, 4), F.Until(F.AP(0), F.AP(1), 0, 4)),
]


@pytest.mark.parametrize("kind,interval,f", SINGLE_OPS)
def test_stable_cell_equals_brute_force(kind, interval, f):
    """Cell l of the que at step i holds the verdict for time i - l."""
    latency = min_head(kind, interval)
    head = latency + 2  # keep cell l alive after the deletion
    rng = random.Random(hash(kind) & 0xFFFF | 1)
    for _ in range(30):
        rows = [[rng.random() < 0.5, rng.random() < 0.5] for _ in range(24)]
        tr = make_trace(rows)
        reference = oracle_verdicts(f, tr)
        em = em_build(kind, head, interval)
        state = empty_que(head + 1)
        for i, row in enumerate(rows):
            ops = row[: em.arity]
            state, _ = em_step(em, state, *ops)
            if i >= latency and i - latency < len(reference):
                cell = state.cells[latency]
                assert cell is not MAYBE
                assert cell == reference[i - latency], (f, i)


@pytest.mark.parametrize("kind,interval,f", SINGLE_OPS)
def test_verdicts_never_change_once_given(kind, interval, f):
    # pre-deletion snapshots so the whole k range up to head - l is visible
    latency = min_head(kind, interval)
    head = latency + 3
    em = em_build(kind, head, interval)
    rng = random.Random(0xBEEF)
    state = empty_que(head + 1)
    history = []
    for _ in range(40):
        ops = [rng.random() < 0.5 for _ in range(em.arity)]
        state, tr = em_step_trace(em, state, *ops)
        history.append(tr.after_modify)
    checked = 0
    for j in range(latency, len(history)):
        if len(history[j]) <= latency:
            continue
        settled = history[j][latency]
        assert settled is not MAYBE
        for k in range(1, head - latency + 1):
            if j + k < len(history) and len(history[j + k]) > latency + k:
                assert history[j + k][latency + k] == settled
                checked += 1
    assert checked > 50


@pytest.mark.parametrize("kind,interval,f", SINGLE_OPS)
def test_golden_model_and_fabric_hold_the_same_cells(kind, interval, f):
    # Checks the fabric's latched masks and truth tables against em_build's
    # machines cell by cell, not only through the verdict streams.
    cfg = FabricConfig(4, 4, 2, 8)
    program = compile_formula(f, cfg)
    (root,) = [qid for qid, que in enumerate(program.qs) if que.is_active]
    fabric = Fabric(cfg)
    fabric.load(encode_program(program))
    em = em_build(kind, program.qs[root].head, interval)
    state = empty_que(cfg.q_sz)
    rng = random.Random(9)
    for cycle in range(40):
        event = [rng.random() < 0.5 for _ in range(cfg.n_ap)]
        out = fabric.step(event)
        state, tr = em_step_trace(em, state, *event[: em.arity])
        assert QueState(*fabric._ques[root], cfg.q_sz).cells == tr.after_del, cycle
        assert tr.verdict == (None if out is None else out[1]), cycle


def test_overlapping_writers_trip_the_disjointness_fault():
    # two machines resolving cell 0 simultaneously is not a legal realization
    rogue = EvaluatorMachine(
        "rogue",
        (
            AmProgram("wire", 0, None, (0, 0), (0, 0)),
            AmProgram("wire", 0, None, (0, 0), (0, 0)),
        ),
        head=1,
    )
    with pytest.raises(HardFault):
        em_step(rogue, empty_que(4), T)


def test_occupancy_never_exceeds_head_plus_one():
    em = em_build("diamond", 6, (1, 4))
    state = empty_que(7)
    rng = random.Random(3)
    for _ in range(50):
        state, _ = em_step(em, state, rng.random() < 0.5)
        assert state.occupancy <= em.head + 1
