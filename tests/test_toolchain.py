import hashlib
import random

import pytest

from mtlmon import formula as F
from mtlmon.compiler import compile_formula
from mtlmon.errors import ParseError, TraceError
from mtlmon.program import FabricConfig, resolve_operands
from mtlmon.toolchain import (
    DEFAULT_CONFIG,
    check_formula,
    diff_verdicts,
    expected_emission,
    random_formula,
    random_trace,
    run_fuzz,
    run_program,
)
from mtlmon.trace import Trace


def test_depth_one_draws_single_operator_formulas():
    rng = random.Random(8)
    for _ in range(100):
        f = random_formula(rng, 1, 4)
        assert not isinstance(f, F.AP)
        for child in F.children(f):
            assert isinstance(child, F.AP)


def test_random_formula_draws_are_pinned():
    # The printed draws over a grid of seeds, depths and t2, and the state
    # each generator is left in, as when this pin was recorded.
    digest = hashlib.sha256()
    for seed in range(10):
        rng = random.Random(seed)
        for depth in range(7):
            for t2 in (0, 1, 3, 9):
                digest.update(F.pretty(random_formula(rng, depth, t2)).encode() + b"\n")
        digest.update(repr(rng.random()).encode() + b"\n")
    assert digest.hexdigest() == "94fa9c77598d176e72e17881c3908e36e0c940129049f10060bb74b927171c4f"


def test_default_config_matches_largest_design():
    assert (DEFAULT_CONFIG.n_pe, DEFAULT_CONFIG.n_q) == (16, 16)
    assert (DEFAULT_CONFIG.n_ap, DEFAULT_CONFIG.q_sz) == (16, 256)


def _child_ques(program):
    # the two negations read ap0/ap1 from the AP bus; queue ids follow
    by_ap = {
        program.routes[pid][0]: pe.r_qid
        for pid, pe in enumerate(program.pes)
        if pe.is_active and pe.opcode == "not"
    }
    return by_ap[0], by_ap[1]


def test_until_group_operand_resolution():
    # que-sourced until: wire machines carry the named ports, the or machine
    # taps them
    f = F.Until(F.Not(F.AP(0)), F.Not(F.AP(1)), 1, 2)
    program = compile_formula(f, FabricConfig(8, 8, 4, 16))
    sources = resolve_operands(program.pes, program.qs)
    left_q, right_q = _child_ques(program)
    assert sources[(2, 0)] == left_q   # wire alpha0
    assert sources[(3, 0)] == right_q  # wire alpha1
    assert sources[(4, 0)] == left_q   # or taps both
    assert sources[(4, 1)] == right_q


def test_until_from_zero_group_resolution():
    f = F.Until(F.Not(F.AP(0)), F.Not(F.AP(1)), 0, 2)
    program = compile_formula(f, FabricConfig(8, 8, 4, 16))
    sources = resolve_operands(program.pes, program.qs)
    left_q, right_q = _child_ques(program)
    assert sources[(2, 0)] == left_q   # or reads alpha0 directly
    assert sources[(2, 1)] == right_q  # ... and taps the wire for alpha1
    assert sources[(3, 0)] == right_q  # wire alpha1


def test_expected_emission_window():
    assert list(expected_emission(10, 3)) == list(range(8))
    assert list(expected_emission(2, 5)) == []


# The reference is defined at times 0..3; a monitor is expected at 0..2.
REFERENCE = [True, False, True, False]
AGREEING = [(0, True), (1, False), (2, True)]


@pytest.mark.parametrize("emitted,expected_times,mismatches", [
    (AGREEING, range(3), []),
    # a wrong value
    ([(0, True), (1, True), (2, True)], range(3), [(1, True, False)]),
    # times outside the schedule, with and without a reference verdict
    (AGREEING + [(3, False)], range(3), [(3, False, False)]),
    ([(-1, True)] + AGREEING + [(4, False)], range(3), [(-1, True, None), (4, False, None)]),
    # a duplicate time, even with the right value
    (AGREEING[:2] + [(1, False)] + AGREEING[2:], range(3), [(1, False, False)]),
    # an expected time where the reference is undefined
    (AGREEING + [(3, False), (4, True)], range(5), [(4, True, None)]),
    # expected times that never arrived, with and without a reference verdict
    (AGREEING[:1], range(3), [(1, None, False), (2, None, True)]),
    (AGREEING, range(6), [(3, None, False), (4, None, None), (5, None, None)]),
    # a schedule that starts late: each time reads its own reference verdict
    ([(1, True), (2, False), (3, True)], range(1, 4),
     [(1, True, False), (2, False, True), (3, True, False)]),
])
def test_diff_verdicts_names_each_kind_of_mismatch(emitted, expected_times, mismatches):
    assert diff_verdicts(emitted, REFERENCE, expected_times) == mismatches


def test_check_report_shape():
    rng = random.Random(1)
    trace = random_trace(rng, 30, 16)
    report = check_formula("G[0,2] ap0 -> ap1", DEFAULT_CONFIG, trace)
    assert report.ok
    assert report.programming_cycles == DEFAULT_CONFIG.body_bytes
    assert report.run_cycles == 30
    assert [t for t, _ in report.verdicts] == list(range(30 - report.latency + 1))


def test_check_at_the_nesting_limit():
    # Every pass, from the parser to the fabric and the oracle, at the
    # deepest formula the limit admits; one level more fails in the parser,
    # before any pass runs.
    n = F.MAX_NESTING
    cfg = FabricConfig(128, 128, 4, 16)
    trace = random_trace(random.Random(4), 2 * n + 10, cfg.n_ap)
    report = check_formula("!(" * n + "ap0" + ")" * n, cfg, trace)
    assert report.ok and len(report.verdicts) == 11
    with pytest.raises(ParseError, match="operators deep"):
        check_formula("!" + "!(" * n + "ap0" + ")" * n, cfg, trace)


def test_random_trace_without_rows_keeps_its_width():
    trace = random_trace(random.Random(1), 0, 16)
    assert len(trace) == 0
    assert trace.width == 16


def test_run_checks_width_before_stepping():
    program = compile_formula(F.parse("!ap0"), DEFAULT_CONFIG)
    with pytest.raises(TraceError, match="trace width 2 != n_ap 16"):
        run_program(program, Trace((), width=2))
    verdicts, _ = run_program(program, Trace((), width=16))
    assert verdicts == []


def test_fuzz_hundred_clean():
    summary = run_fuzz(seed=1, count=100, max_depth=4, max_t2=8)
    assert summary.passes == 100
    assert summary.ok


def test_fuzz_summary_is_reproducible():
    first = run_fuzz(seed=7, count=10, max_depth=3, max_t2=5).render()
    second = run_fuzz(seed=7, count=10, max_depth=3, max_t2=5).render()
    assert first == second
