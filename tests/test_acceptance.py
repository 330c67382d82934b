"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import random
import time
from contextlib import contextmanager

from mtlmon import formula as F
from mtlmon.bitstream import encode_program
from mtlmon.compiler import allocate, bfs_order, compile_formula, plan
from mtlmon.fabric import Fabric
from mtlmon.machine import MAYBE, QueState, em_build, em_step_trace
from mtlmon.oracle import oracle_verdicts
from mtlmon.program import FabricConfig, PeConfig, QConfig, ceil_log2
from mtlmon.toolchain import (
    check_formula,
    diff_verdicts,
    expected_emission,
    random_trace,
    run_fuzz,
    run_program,
    stream_trace,
)
from mtlmon.trace import make_trace

T, B, M = True, False, MAYBE
FIG_FORMULA = "F[0,1] !ap1 | F[1,4] ap2"
FIG_CFG = FabricConfig(8, 8, 4, 16)


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} PASS  {description} ({elapsed * 1000:.1f} ms)")


def test_criterion_1_negation_golden_table():
    with criterion(1, "negation machine reproduces the worked table"):
        em = em_build("not", 1)
        state = QueState()
        expected = [
            # after_add, fired, after_modify, after_del, verdict
            ((M,), ((B, (0, 0)),), (B,), (B,), None),
            ((M, B), ((T, (0, 0)),), (T, B), (T,), B),
            ((M, T), ((T, (0, 0)),), (T, T), (T,), T),
        ]
        started = time.perf_counter()
        for a0, row in zip([T, B, B], expected):
            state, tr = em_step_trace(em, state, a0)
            assert (tr.after_add, tr.fired, tr.after_modify, tr.after_del, tr.verdict) == row
        assert time.perf_counter() - started < 0.001


def test_criterion_2_until_golden_table():
    with criterion(2, "until[1,2] machine reproduces the worked table"):
        em = em_build("until", 3, (1, 2))
        state = QueState()
        inputs = [(B, B), (T, B), (T, B), (B, T), (T, T)]
        expected = [
            ((B, B, B), (M,), ((B, (0, 0)), (B, (2, 2)), (B, (1, 1))), (B,), (B,), None),
            ((T, B, T), (M, B), ((B, (2, 2)),), (M, B), (M, B), None),
            ((T, B, T), (M, M, B), ((B, (2, 2)),), (M, M, B), (M, M, B), None),
            ((B, T, T), (M, M, M, B), ((B, (0, 0)), (T, (1, 2))), (B, T, T, B), (B, T, T), B),
            ((T, T, T), (M, B, T, T), ((T, (1, 2)),), (M, B, T, T), (M, B, T), T),
        ]
        started = time.perf_counter()
        for (a0, a1), row in zip(inputs, expected):
            state, tr = em_step_trace(em, state, a0, a1)
            got = (tr.results, tr.after_add, tr.fired, tr.after_modify, tr.after_del, tr.verdict)
            assert got == row
        assert time.perf_counter() - started < 0.001


def test_criterion_3_modification_conformance():
    from test_machine import CONFORMANCE, _fired_for

    with criterion(3, "per-operator modification table conformance"):
        started = time.perf_counter()
        assert len(CONFORMANCE) == 28
        for kind, interval, operands, expected in CONFORMANCE:
            head = 2 if kind == "next" else (1 if interval is None else interval[1] + 1)
            assert _fired_for(kind, interval, head, *operands) == expected, (kind, operands)
        assert time.perf_counter() - started < 1.0


def test_criterion_4_head_balancing_and_forced_failure():
    with criterion(4, "head balancing yields (1,3,5,1); forcing head 2 breaks equivalence"):
        started = time.perf_counter()
        root = plan(F.parse(FIG_FORMULA))
        heads = {n.em_index: n.head for n in bfs_order(root)}
        assert heads == {1: 1, 2: 3, 3: 5, 4: 1}

        # ap2 stays low so the or cannot mask the left operand; ap1
        # alternates so consecutive left verdicts differ
        pattern = [1, 1, 0]
        trace = make_trace([[0, pattern[t % 3], 0, 0] for t in range(30)])
        good = check_formula(FIG_FORMULA, FIG_CFG, trace)
        assert good.ok

        bad = check_formula(FIG_FORMULA, FIG_CFG, trace, forced_heads={2: 2})
        assert bad.mismatches
        # with head 2 the disjunction receives the left verdict one step
        # early; predict the first divergence from the brute-force streams
        left = oracle_verdicts(F.parse("F[0,1] !ap1"), trace)
        right = oracle_verdicts(F.parse("F[1,4] ap2"), trace)
        predicted = next(
            t for t in range(len(right) - 1)
            if (left[t + 1] or right[t]) != (left[t] or right[t])
        )
        assert bad.mismatches[0][0] == predicted == 0
        assert time.perf_counter() - started < 1.0


def test_criterion_5_component_programming_table():
    with criterion(5, "compiled example matches the component programming table"):
        started = time.perf_counter()
        program = allocate(plan(F.parse(FIG_FORMULA)), FIG_CFG)
        assert program.pes[:4] == (
            PeConfig(True, False, False, "not", 0, (0, 0), (0, 0)),
            PeConfig(True, False, False, "wire", 1, (1, 4), (4, 4)),
            PeConfig(True, True, False, "wire", 2, (0, 1), (1, 1)),
            PeConfig(True, True, True, "or", 3, (0, 0), (0, 0)),
        )
        assert all(not pe.is_active for pe in program.pes[4:])
        assert program.qs[:4] == (
            QConfig(True, False, 2, 0, 1),
            QConfig(True, False, 3, 1, 5),
            QConfig(True, False, 3, 0, 3),
            QConfig(True, True, 0, 0, 1),
        )
        assert all(not q.is_active for q in program.qs[4:])
        assert program.routes[:2] == ((1, 0), (2, 0))
        # every modification of this example is unconditional, so no empty
        # sentinel interval appears anywhere
        for pe in program.pes[:4]:
            assert pe.top_interval[0] <= pe.top_interval[1]
            assert pe.bot_interval[0] <= pe.bot_interval[1]
        assert time.perf_counter() - started < 1.0


def test_criterion_6_bit_width_formulas():
    with criterion(6, "bitstream widths equal the closed-form counts on the grid"):
        started = time.perf_counter()
        probe = F.parse("!ap0")  # fits every grid point
        for n in (2, 4, 8, 16):
            for q_sz in (4, 16, 64, 256):
                cfg = FabricConfig(n, n, 16, q_sz)
                pe_bits = n * (6 + ceil_log2(n) + 4 * ceil_log2(q_sz))
                q_bits = n * (3 + ceil_log2(n) + ceil_log2(q_sz))
                route_bits = n * 2 * ceil_log2(16)
                assert cfg.body_bits == pe_bits + q_bits + route_bits
                body = encode_program(compile_formula(probe, cfg))
                assert len(body) == (cfg.body_bits + 7) // 8
        assert time.perf_counter() - started < 1.0


def test_criterion_7_randomized_equivalence():
    with criterion(7, "1000 random formulas: fabric equals brute force, no faults"):
        started = time.perf_counter()
        summary = run_fuzz(seed=1, count=1000, max_depth=4, max_t2=8, trace_len=64)
        elapsed = time.perf_counter() - started
        assert summary.passes == 1000, summary.failures[:3]
        assert summary.throughput_violations == 0
        assert summary.reprogram_divergences == 0
        assert elapsed < 60.0, f"fuzz took {elapsed:.1f}s"


def test_criterion_8_runtime_reprogramming():
    with criterion(8, "mid-run reprogramming matches brute force and a fresh fabric"):
        started = time.perf_counter()
        cfg = FabricConfig(4, 4, 8, 16)
        rng = random.Random(2024)
        first = F.parse("ap0 -> X ap1")
        second = F.parse("ap0 | F[1,3] ap1")
        first_prog = compile_formula(first, cfg)
        second_prog = compile_formula(second, cfg)

        fabric = Fabric(cfg)
        fabric.load(encode_program(first_prog))
        head_trace = random_trace(rng, 50, cfg.n_ap)
        head_verdicts = stream_trace(fabric, head_trace)
        assert not diff_verdicts(
            head_verdicts, oracle_verdicts(first, head_trace),
            expected_emission(50, first_prog.latency),
        )

        fabric.begin_reprogram()
        fabric.load(encode_program(second_prog))
        tail_trace = random_trace(rng, 50, cfg.n_ap)
        tail_verdicts = stream_trace(fabric, tail_trace)
        assert not diff_verdicts(
            tail_verdicts, oracle_verdicts(second, tail_trace),
            expected_emission(50, second_prog.latency),
        )
        fresh_verdicts, _ = run_program(second_prog, tail_trace)
        assert tail_verdicts == fresh_verdicts
        assert time.perf_counter() - started < 1.0


def test_criterion_9_throughput_after_warmup():
    with criterion(9, "one verdict per step once the pipeline is warm"):
        rng = random.Random(99)
        from mtlmon.toolchain import DEFAULT_CONFIG, random_fitting_formula

        for _ in range(50):
            f, program = random_fitting_formula(rng, 4, 8, DEFAULT_CONFIG)
            trace = random_trace(rng, 64, DEFAULT_CONFIG.n_ap)
            verdicts, _ = run_program(program, trace)
            times = [t for t, _ in verdicts]
            assert times == list(range(0, 64 - program.latency + 1)), F.pretty(f)
