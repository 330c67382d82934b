import collections
import dataclasses
import random

import pytest

from conftest import HOSTILE_CFG, gap_body
from mtlmon import formula as F
from mtlmon.bitstream import encode_program
from mtlmon.compiler import compile_formula
from mtlmon.errors import HardFault, ProtocolError
from mtlmon.fabric import Fabric
from mtlmon.machine import (
    EMPTY_INTERVAL,
    MAYBE,
    OPCODE_ARITY,
    AmProgram,
    EvaluatorMachine,
    QueState,
    am_result,
    check_offers,
    em_build,
    em_run,
    em_shape,
    em_step,
    em_step_trace,
    group_offer,
    interval_mask,
    is_empty,
    min_head,
    que_offer,
    que_peek,
    que_run,
    stream_ports,
    writer,
)
from mtlmon.oracle import oracle_verdicts
from mtlmon.program import (
    INACTIVE_PE,
    INACTIVE_Q,
    FabricConfig,
    MonitorProgram,
    PeConfig,
    QConfig,
)
from mtlmon.trace import make_trace

T, B, M = True, False, MAYBE


def q(*cells):
    unknown = sum(1 << k for k, cell in enumerate(cells) if cell is M)
    value = sum(1 << k for k, cell in enumerate(cells) if cell is T)
    return QueState(len(cells), unknown, value)


def step(cells, bot=EMPTY_INTERVAL, top=EMPTY_INTERVAL, head=7):
    """One que_run cycle from the given cells; the cells after it and the deleted value."""
    state = q(*cells)
    run = que_run(head, (state.occupancy, state.unknown, state.value))
    next(run)
    deleted = run.send(que_offer(interval_mask(bot), interval_mask(top)))
    return que_peek(run).cells, deleted


# -- que primitives ----------------------------------------------------------

def test_add_shifts_and_inserts_maybe():
    assert step((B,)) == ((M, B), None)
    assert step(()) == ((M,), None)
    assert step((M, M, B)) == ((M, M, M, B), None)


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


def test_check_offers_names_the_lowest_gap_top_first():
    with pytest.raises(HardFault, match="^top offers leave cell 1 uncovered$"):
        check_offers(0, 0b101)
    with pytest.raises(HardFault, match="^bot offers leave cell 2 uncovered$"):
        check_offers(0b11011, 0)
    with pytest.raises(HardFault, match="^bot offers leave cell 1 uncovered$"):
        check_offers(0b1001101, 0b111)  # the lowest of two gaps
    with pytest.raises(HardFault, match="^top offers leave cell 3 uncovered$"):
        check_offers(0b101, 0b10111)  # top is tested before bot
    for bot, top in ((0, 0), (0b1, 0), (0, 0b1110), (0b111000, 0b111), (0b1110, 0b1110)):
        assert check_offers(bot, top) is None


def test_a_gap_above_the_lowest_cell_is_found_from_the_first_run():
    # Runs that start above cell 0: the first run is cleared by adding its
    # lowest bit, not 1, so a gapless top passes and bot's gap is cell 2.
    with pytest.raises(HardFault, match="^bot offers leave cell 2 uncovered$"):
        check_offers(0b1010, 0b0110)
    with pytest.raises(HardFault, match="^top offers leave cell 4 uncovered$"):
        check_offers(0, 0b101100)
    assert check_offers(0b11000, 0b00110) is None


def test_a_clash_names_the_lowest_unknown_cell_offered_both_ways():
    # The offers also cover a settled cell below the unknown one; only the
    # unknown cell clashes, in warm-up and in the full phase.
    for head, que in ((6, (2, 0b10, 0)), (4, (4, 0b100, 0))):
        run = que_run(head, que)
        next(run)
        clash = (que[1] << 1 | 1) & 0b1110
        with pytest.raises(HardFault, match=f"^top and bot offers both settle cell "
                                            f"{clash.bit_length() - 1}$"):
            run.send(que_offer(0b1110, 0b1110))


def test_every_empty_interval_masks_no_cell():
    for interval in ((1, 0), (2, 1), (3, 1), (7, 0)):
        assert interval_mask(interval) == 0


def test_a_que_restarted_from_its_peeked_state_steps_on_alike():
    # A que stepped on without a break and one restarted through que_run
    # from the peeked triple before every cycle: the same deleted value and
    # state each cycle, or the same fault.
    rng = random.Random(21)
    outcomes = collections.Counter()
    for _ in range(300):
        head = rng.randint(0, 7)
        run = que_run(head)
        next(run)
        state = QueState()
        for _ in range(40):
            if rng.random() < 0.9:  # settle every cell, some true and the rest false
                split = rng.randint(0, head + 1)
                offer = ((1 << head + 1) - (1 << split), (1 << split) - 1)
            else:  # anything: it may leave a cell unresolved or offer one both values
                offer = (rng.getrandbits(head + 1), rng.getrandbits(head + 1))
            restarted = que_run(head, (state.occupancy, state.unknown, state.value))
            next(restarted)
            got = []
            for gen in (run, restarted):
                try:
                    got.append(gen.send(que_offer(*offer)))
                except HardFault as fault:
                    got.append(str(fault).split(" cell")[0])
            assert got[0] == got[1], (head, state, offer)
            outcomes[got[0]] += 1
            if isinstance(got[0], str):
                break
            state = que_peek(run)
            assert que_peek(restarted) == state
    assert outcomes[None] > 300 and outcomes[True] > 1000 and outcomes[False] > 1000
    assert outcomes["top and bot offers both settle"] > 0
    assert outcomes["deleted unresolved"] > 0


def reference_que_cycle(head, que, bot, top):
    """The que rule in one phase, with the occupancy counted on every
    cycle: the (que, deleted) after one cycle of que_run."""
    occ, unknown, value = que
    cell = 1 << head
    occ += 1
    unknown = unknown << 1 | 1
    clash = top & bot & unknown
    if clash:
        raise HardFault(f"top and bot offers both settle cell {(clash & -clash).bit_length() - 1}")
    value = value << 1 | top & unknown
    unknown &= ~(top | bot)
    if occ <= head:
        return (occ, unknown, value), None
    if unknown & cell:
        raise HardFault(f"deleted unresolved cell at head {head}: misprogrammed head")
    return (head, unknown, value & ~cell), bool(value & cell)


def test_the_two_phase_que_rule_matches_the_single_loop_rule():
    # Random histories through que_offer, peeked and restarted from the
    # peeked triple in both phases: the same deleted values, triples and
    # fault messages as the reference.
    rng = random.Random(20)
    seen = collections.Counter()
    for history in range(300):
        head = history % 8
        full = (1 << head + 1) - 1
        sparse = history % 4 == 0  # offers that seldom settle every cell
        que = (0, 0, 0)
        run = que_run(head)
        next(run)
        for _ in range(rng.randint(1, 3 * head + 6)):
            phase = "warm-up" if que[0] < head else "full"
            if rng.random() < 0.3:
                assert que_peek(run) == QueState(*que)
                seen["peek " + phase] += 1
            if rng.random() < 0.2:
                run = que_run(head, que)
                next(run)
                seen["restart " + phase] += 1
            kind = 0.8 + 0.2 * rng.random() if sparse else rng.random()
            if kind < 0.8:  # settle every cell, some true and the rest false
                split = rng.randint(0, head + 1)
                bot, top = full - (1 << split) + 1, (1 << split) - 1
            elif kind < 0.85:  # overlapping runs; one may be empty
                lo, hi = sorted(rng.randint(0, head) for _ in range(2))
                bot, top = interval_mask((lo, head)), interval_mask((0, hi))
            elif kind < 0.95:  # one run above cell 0, or none: cells stay Maybe
                bot, top = 0, interval_mask((rng.randint(1, head + 1), head))
            else:  # anything, gaps and clashes included
                bot, top = rng.getrandbits(head + 1), rng.getrandbits(head + 1)
            try:
                que, expected = reference_que_cycle(head, que, bot, top)
            except HardFault as fault:
                with pytest.raises(HardFault) as got:
                    run.send(que_offer(bot, top))
                assert str(got.value) == str(fault)
                seen[str(fault).split(" cell")[0]] += 1
                break
            assert run.send(que_offer(bot, top)) == expected
            seen[expected] += 1
        else:
            assert que_peek(run) == QueState(*que)
    for outcome in ("peek warm-up", "peek full", "restart warm-up", "restart full"):
        assert seen[outcome] > 20, seen
    assert seen[None] > 300 and seen[True] > 300 and seen[False] > 100
    assert seen["top and bot offers both settle"] > 5
    assert seen["deleted unresolved"] > 5


def test_que_offer_digests_the_masks():
    assert que_offer(0b0011, 0b0110) == (0b0110, 0b0010, ~0b0111)
    assert que_offer(0, 0) == (0, 0, -1)
    assert que_offer(0b101, 0) == (0, 0, ~0b101)  # no gap test


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


@pytest.mark.parametrize(
    "kind", ["not", "and", "or", "implies", "wire", "next", "box", "diamond", "until"]
)
def test_the_shape_table_is_the_machines_without_a_head(kind):
    if kind in ("box", "diamond", "until"):
        grid = [(t1, t2) for t2 in range(9) for t1 in range(t2 + 1)]
    else:
        grid = [None]
    for interval in grid:
        ams, ports = em_shape(kind, interval)
        for head in (min_head(kind, interval), min_head(kind, interval) + 3):
            assert ams == em_build(kind, head, interval).ams
        assert [list(p) for p in ports] == stream_ports(ams)
    assert em_shape.cache_info().maxsize is not None  # bounded


@pytest.mark.parametrize(
    "kind", ["not", "and", "or", "implies", "wire", "next", "box", "diamond", "until"])
def test_every_shape_writes_below_its_minimum_head_and_reaches_it(kind):
    # em_shape's intervals end at or below min_head - 1, which allocate
    # relies on when it copies them into PE records under a head of at
    # least min_head; one of them ends exactly there, so the minimum is tight.
    if kind in ("box", "diamond", "until"):
        grid = [(t1, t2) for t2 in range(9) for t1 in range(t2 + 1)]
    else:
        grid = [None]
    for interval in grid:
        ams, _ = em_shape(kind, interval)
        ends = [hi for am in ams for lo, hi in (am.top_interval, am.bot_interval) if lo <= hi]
        top = min_head(kind, interval) - 1
        assert ends and max(ends) == top, (kind, interval, ends)


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
    state = QueState()

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
    state = QueState()
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
    state, verdict = em_step(em, q(T), T, T)
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
    state = QueState()
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
        state = QueState()
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
    state = QueState()
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
    state = QueState()
    rng = random.Random(9)
    for cycle in range(40):
        event = [rng.random() < 0.5 for _ in range(cfg.n_ap)]
        out = fabric.step(event)
        state, tr = em_step_trace(em, state, *event[: em.arity])
        assert fabric.que(root).cells == tr.after_del, cycle
        assert tr.verdict == (None if out is None else out[1]), cycle


GROUP_CFG = FabricConfig(4, 4, 2, 8)


def group_fabric(ams, head):
    """A fabric whose PEs 0.. run the machines ams, in order, and write
    verdict que 0 with the given head; a machine's stream s is ap<s>."""
    cfg = GROUP_CFG
    idle = cfg.n_pe - len(ams)
    pes = tuple(PeConfig(True, False, False, am.opcode, 0, am.top_interval, am.bot_interval)
                for am in ams) + (INACTIVE_PE,) * idle
    routes = tuple((am.op0, am.op1 or 0) for am in ams) + ((0, 0),) * idle
    qs = (QConfig(True, True, 0, 0, head),) + (INACTIVE_Q,) * (cfg.n_q - 1)
    fabric = Fabric(cfg)
    fabric.load(encode_program(MonitorProgram(cfg, pes, qs, routes, head + 1)))
    return fabric


def _loaded(body):
    fabric = Fabric(HOSTILE_CFG)
    fabric.load(body)
    return fabric


def group_outcomes(ams, head, events):
    """The per-cycle verdicts of ams as one EM on em_step and as PEs on the
    fabric, each list ending in the HardFault message that stopped it, if
    any (the fabric's without its que prefix)."""
    em = EvaluatorMachine("group", tuple(ams), head)
    fabric = group_fabric(ams, head)
    state, golden, fabric_out = QueState(), [], []
    try:
        for event in events:
            state, verdict = em_step(em, state, *event[: em.arity])
            golden.append(verdict)
    except HardFault as fault:
        golden.append(str(fault))
    try:
        for event in events:
            out = fabric.step(event)
            fabric_out.append(None if out is None else out[1])
    except HardFault as fault:
        fabric_out.append(str(fault).removeprefix("Q0 "))
    return golden, fabric_out


def test_an_evaluator_machine_reads_streams_numbered_from_zero():
    wire1 = AmProgram("wire", 1, None, (0, 0), (0, 0))
    with pytest.raises(ValueError, match=r"reads streams \[1\], not 0..0"):
        EvaluatorMachine("x", (wire1,), 1)
    with pytest.raises(ValueError, match=r"reads streams \[0, 2\], not 0..1"):
        EvaluatorMachine("x", (AmProgram("and", 0, 2, (0, 0), (0, 0)),), 1)
    one = EvaluatorMachine("x", (dataclasses.replace(wire1, op0=0),), 1)
    assert one.arity == 1 and em_step(one, QueState(), T)[1] is None
    two = EvaluatorMachine("x", (AmProgram("and", 1, 0, (0, 0), (0, 0)), wire1), 1)
    assert two.arity == 2 and em_step(two, QueState(), T, B)[1] is None


def test_writers_offering_one_cell_both_values_fault_and_equal_offers_merge():
    # wire and not of one operand offer cell 0 true and false every cycle;
    # two wires offer it the same value, which the que ORs.
    events = [[1, 0], [0, 0], [1, 1], [1, 0]]
    disagree = (AmProgram("wire", 0, None, (0, 0), (0, 0)),
                AmProgram("not", 0, None, (0, 0), (0, 0)))
    with pytest.raises(HardFault, match="^top and bot offers both settle cell 0$"):
        em_step(EvaluatorMachine("rogue", disagree, 1), QueState(), T)
    with pytest.raises(HardFault, match="^Q0 top and bot offers both settle cell 0$"):
        group_fabric(disagree, 1).step(events[0])
    agree = (AmProgram("wire", 0, None, (0, 0), (0, 0)),) * 2
    assert group_outcomes(agree, 1, events) == ([None, T, B, T], [None, T, B, T])


@pytest.mark.parametrize("fabric, event, message", [
    (lambda: group_fabric([AmProgram("wire", 0, None, (0, 0), (0, 0)),
                           AmProgram("not", 0, None, (0, 0), (0, 0))], 1),
     [1, 0], "Q0 top and bot offers both settle cell 0"),
    (lambda: group_fabric([AmProgram("wire", 0, None, EMPTY_INTERVAL, EMPTY_INTERVAL)], 1),
     [1, 0], "Q0 deleted unresolved cell at head 1: misprogrammed head"),
    (lambda: _loaded(gap_body()), [0, 0, 0], "Q0 bot offers leave cell 1 uncovered"),
])
def test_a_fault_leaves_no_que_to_read_until_the_next_load(fabric, event, message):
    fabric = fabric()
    body = encode_program(fabric.program)
    n_q = fabric.config.n_q
    assert [fabric.que(qid) for qid in range(n_q)] == [QueState()] * n_q
    with pytest.raises(HardFault, match=f"^{message}$"):
        for _ in range(3):
            fabric.step(event)
    for _ in range(2):  # faulted, then programming
        for qid in range(n_q):
            with pytest.raises(ProtocolError):
                fabric.que(qid)
        with pytest.raises(ProtocolError):
            fabric.step(event)
        fabric.begin_reprogram()
    fabric.load(body)
    assert [fabric.que(qid) for qid in range(n_q)] == [QueState()] * n_q
    with pytest.raises(HardFault, match=f"^{message}$"):
        for _ in range(3):
            fabric.step(event)


def test_golden_model_and_fabric_agree_on_random_writer_groups():
    # 1-3 writers of random opcodes and intervals on one que, stepped as one
    # EM and as PEs: the same verdicts each cycle, or the same fault.
    rng = random.Random(12)

    def interval(head):
        if rng.random() < 0.3:
            return EMPTY_INTERVAL
        return tuple(sorted((rng.randrange(head), rng.randrange(head))))

    faults = collections.Counter()
    for _ in range(1000):
        head = rng.randint(4, 7)
        ams = []
        for _ in range(rng.randint(1, 3)):
            opcode = rng.choice(sorted(OPCODE_ARITY))
            op1 = rng.randrange(2) if OPCODE_ARITY[opcode] == 2 else None
            ams.append(AmProgram(opcode, rng.randrange(2), op1, interval(head), interval(head)))
        if all(0 not in (am.op0, am.op1) for am in ams):  # the EM's streams start at 0
            ams = [dataclasses.replace(am, op0=0, op1=None if am.op1 is None else 0) for am in ams]
        events = [[rng.random() < 0.5, rng.random() < 0.5] for _ in range(20)]
        golden, fabric_out = group_outcomes(ams, head, events)
        assert golden == fabric_out, (ams, head, events)
        if isinstance(golden[-1], str):
            faults[golden[-1].split(" cell")[0]] += 1
    assert faults["top and bot offers both settle"] > 0
    assert faults["deleted unresolved"] > 0


def reference_offer(group, reads):
    """The golden model's own OR loop before ``group_offer`` was shared: each
    writer (opcode, i0, i1, top, bot), i1 None for a unary one, whose
    operands are all present offers the interval its result selects."""
    offer = None
    for opcode, i0, i1, top, bot in group:
        operands = [reads[i0]] if i1 is None else [reads[i0], reads[i1]]
        if any(v is None for v in operands):
            continue
        res = am_result(opcode, *map(bool, operands))
        if offer is None:
            offer = [0, 0]  # [bottom mask, top mask]
        interval = top if res else bot
        if not is_empty(interval):
            offer[res] |= interval_mask(interval)
    if offer is None:
        return None
    check_offers(*offer)
    return que_offer(*offer)


def test_group_offer_ors_a_writer_group_as_the_reference_does():
    # Seeded groups of 1-3 writers of every opcode over a read vector of
    # None, False, True and 1.0, with empty, overlapping, gapped and
    # clashing intervals: the same triple or None, or the same fault.
    rng = random.Random(25)

    def interval():
        lo, hi = rng.randrange(6), rng.randrange(6)
        return EMPTY_INTERVAL if rng.random() < 0.25 else (min(lo, hi), max(lo, hi))

    def outcome(offer, *args):
        try:
            return offer(*args)
        except HardFault as fault:
            return str(fault)

    seen = collections.Counter()
    for _ in range(400):
        reads = [rng.choice([None, False, True, 1.0]) for _ in range(4)]
        group = []
        for _ in range(rng.randint(1, 3)):
            opcode = rng.choice(sorted(OPCODE_ARITY))
            i1 = rng.randrange(4) if OPCODE_ARITY[opcode] == 2 else None
            group.append((opcode, rng.randrange(4), i1, interval(), interval()))
        want = outcome(reference_offer, group, reads)
        got = outcome(group_offer, [writer(*w) for w in group], reads)
        assert got == want, (group, reads)
        if want is None:
            seen["idle"] += 1
        elif isinstance(want, str):
            seen["gap"] += 1
        else:
            top, both, rest = want
            seen["clash" if both else "offer"] += 1
            seen["both polarities"] += top != 0 and ~(top | rest) != 0
    assert min(seen[k] for k in ("idle", "gap", "clash", "offer", "both polarities")) >= 10, seen


def test_occupancy_never_exceeds_head_plus_one():
    em = em_build("diamond", 6, (1, 4))
    state = QueState()
    rng = random.Random(3)
    for _ in range(50):
        state, _ = em_step(em, state, rng.random() < 0.5)
        assert state.occupancy <= em.head + 1
