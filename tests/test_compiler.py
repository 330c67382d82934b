import random

import pytest

from mtlmon import formula as F
from mtlmon.bitstream import decode_program, encode_program
from mtlmon.compiler import (
    EmNode,
    allocate,
    bfs_order,
    compile_formula,
    compute_heads,
    force_heads,
    plan,
)
from mtlmon.errors import AllocationError, ParseError
from mtlmon.oracle import oracle_verdicts
from mtlmon.program import FabricConfig, PeConfig, QConfig, derive_latency
from mtlmon.toolchain import (
    diff_verdicts,
    expected_emission,
    random_formula,
    random_trace,
    run_program,
)

FIG_FORMULA = F.parse("F[0,1] !ap1 | F[1,4] ap2")
TABLE7_CFG = FabricConfig(8, 8, 4, 16)


# -- balancing wires -----------------------------------------------------------

def shape(node):
    """A planned evaluator tree as nested (kind, interval, operands)."""
    return (node.kind, node.interval,
            [shape(op) if isinstance(op, EmNode) else op for op in node.operands])


def test_wire_wraps_lone_ap_operand():
    f = F.Implies(F.AP(0), F.Next(F.AP(1)))
    assert shape(plan(f)) == ("implies", None, [("wire", None, [0]), ("next", None, [1])])


def test_no_wire_when_both_operands_are_aps():
    f = F.And(F.AP(0), F.AP(1))
    assert shape(plan(f)) == ("and", None, [0, 1])


def test_no_wire_when_both_operands_are_subtrees():
    assert shape(plan(FIG_FORMULA)) == ("or", None, [
        ("diamond", (0, 1), [("not", None, [1])]),
        ("diamond", (1, 4), [2]),
    ])


def test_unwired_operand_misaligns_the_fabric():
    """The reason the wire exists: without it the binary node reads the raw
    AP at the current cycle next to a que verdict for an earlier time."""
    unbalanced = EmNode("implies", None, [0, EmNode("next", None, [1])])
    compute_heads(unbalanced)
    program = allocate(unbalanced, TABLE7_CFG)
    # alternate ap0 so the misalignment is visible
    rows = [[t % 2, (t + 1) % 2, 0, 0] for t in range(24)]
    from mtlmon.trace import make_trace

    trace = make_trace(rows)
    f = F.Implies(F.AP(0), F.Next(F.AP(1)))
    verdicts, _ = run_program(program, trace)
    mism = diff_verdicts(
        verdicts, oracle_verdicts(f, trace), expected_emission(24, program.latency)
    )
    assert mism, "unwired operand should disagree with the brute force"

    balanced = compile_formula(f, TABLE7_CFG)
    verdicts, _ = run_program(balanced, trace)
    assert not diff_verdicts(
        verdicts, oracle_verdicts(f, trace), expected_emission(24, balanced.latency)
    )


# -- head balancing ------------------------------------------------------------

def test_heads_of_the_running_example():
    root = plan(FIG_FORMULA)
    heads = {n.em_index: n.head for n in bfs_order(root)}
    assert heads == {1: 1, 2: 3, 3: 5, 4: 1}
    assert root.height == 8


def test_single_negation_plan():
    root = plan(F.Not(F.AP(0)))
    assert (root.head, root.height) == (1, 2)


def test_lone_box_plan():
    root = plan(F.Box(F.AP(0), 1, 4))
    assert (root.head, root.height) == (5, 6)


def test_binary_children_balanced_everywhere():
    rng = random.Random(21)
    for _ in range(200):
        root = plan(random_formula(rng, 4, 6))

        def check(node):
            assert node.head >= node.min_head
            kids = node.children()
            if len(kids) == 2:
                assert kids[0].height == kids[1].height
            for kid in kids:
                check(kid)

        check(root)


def test_force_heads_validation():
    root = plan(FIG_FORMULA)
    with pytest.raises(AllocationError):
        force_heads(root, {9: 3})
    with pytest.raises(AllocationError):
        force_heads(root, {3: 1})  # below the diamond's minimum


def _assert_heights_add_up(root):
    for node in bfs_order(root):
        tallest = max((kid.height for kid in node.children()), default=0)
        assert node.height == node.head + 1 + tallest


def test_the_planned_height_is_the_latency_with_and_without_forced_heads():
    # Every node's height is head + 1 + its tallest child's, after plan and
    # after force_heads, and the root's is the latency that the records,
    # compiled or decoded, derive. Every other formula has 1-3 forced heads.
    cfg = FabricConfig(256, 256, 16, 4096)
    rng = random.Random(26)
    for i in range(400):
        f = random_formula(rng, rng.randint(1, 6), 8)
        root = plan(f)
        _assert_heights_add_up(root)
        forced = {}
        if i % 2:
            order = bfs_order(root)
            for node in rng.sample(order, min(len(order), rng.randint(1, 3))):
                forced[node.em_index] = node.min_head + rng.randint(0, 6)
            force_heads(root, forced)
            _assert_heights_add_up(root)
        program = compile_formula(f, cfg, forced)
        assert program.latency == root.height == derive_latency(program.pes, program.qs)
        assert decode_program(encode_program(program), cfg).latency == program.latency


# -- allocation ------------------------------------------------------------------

def test_allocation_reproduces_the_example_monitor():
    program = allocate(plan(FIG_FORMULA), TABLE7_CFG)
    assert program.latency == 8
    assert program.pes[:4] == (
        PeConfig(True, False, False, "not", 0, (0, 0), (0, 0)),
        PeConfig(True, False, False, "wire", 1, (1, 4), (4, 4)),
        PeConfig(True, True, False, "wire", 2, (0, 1), (1, 1)),
        PeConfig(True, True, True, "or", 3, (0, 0), (0, 0)),
    )
    assert all(not pe.is_active for pe in program.pes[4:])
    # AP routes; que-sourced slots carry the canonical zero
    assert program.routes[:4] == ((1, 0), (2, 0), (0, 0), (0, 0))
    assert program.qs[:4] == (
        QConfig(True, False, 2, 0, 1),
        QConfig(True, False, 3, 1, 5),
        QConfig(True, False, 3, 0, 3),
        QConfig(True, True, 0, 0, 1),
    )
    assert all(not q.is_active for q in program.qs[4:])


def test_pe_exhaustion_by_pigeonhole():
    f = F.AP(0)
    for _ in range(17):
        f = F.Not(f)
    with pytest.raises(AllocationError, match="PE exhaustion"):
        compile_formula(f, FabricConfig(16, 32, 4, 256))


def test_until_needs_three_pes():
    with pytest.raises(AllocationError, match="PE exhaustion"):
        compile_formula(F.Until(F.AP(0), F.AP(1), 1, 2), FabricConfig(2, 4, 4, 16))
    assert not isinstance(
        compile_formula(F.Until(F.AP(0), F.AP(1), 1, 2), FabricConfig(3, 4, 4, 16)), bool
    )


def test_until_from_zero_needs_two_pes():
    assert not isinstance(
        compile_formula(F.Until(F.AP(0), F.AP(1), 0, 2), FabricConfig(2, 4, 4, 16)), bool
    )


def test_compile_checks_the_nesting_of_built_formulas():
    f = F.AP(0)
    for _ in range(F.MAX_NESTING):
        f = F.Not(f)
    assert compile_formula(f, FabricConfig(128, 128, 4, 16)).latency == 2 * F.MAX_NESTING
    with pytest.raises(ParseError, match="operators deep"):
        compile_formula(F.Not(f), FabricConfig(128, 128, 4, 16))


def test_q_exhaustion():
    with pytest.raises(AllocationError, match="Q exhaustion"):
        compile_formula(F.And(F.Not(F.AP(0)), F.Not(F.AP(1))), FabricConfig(8, 2, 4, 16))


def test_head_beyond_que_size_reports_node():
    with pytest.raises(AllocationError, match="head"):
        compile_formula(F.Box(F.AP(0), 0, 20), FabricConfig(4, 4, 4, 16))


@pytest.mark.parametrize("q_sz", [4, 5])
def test_a_head_equal_to_the_que_size_is_an_allocation_error(q_sz):
    # G[0,t2] needs head t2 + 1, which must stay below the que size.
    cfg = FabricConfig(4, 4, 2, q_sz)
    with pytest.raises(AllocationError) as err:
        compile_formula(F.parse(f"G[0,{q_sz - 1}] ap0"), cfg)
    assert str(err.value) == f"node 1 (box) needs head {q_sz}, que size is {q_sz}"
    assert compile_formula(F.parse(f"G[0,{q_sz - 2}] ap0"), cfg).latency == q_sz


def test_ap_out_of_range():
    with pytest.raises(AllocationError, match="ap9"):
        compile_formula(F.Not(F.AP(9)), FabricConfig(4, 4, 4, 16))


def test_bare_ap_becomes_a_wire_monitor():
    program = compile_formula(F.AP(2), TABLE7_CFG)
    assert program.latency == 2
    from mtlmon.trace import make_trace

    trace = make_trace([[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 1, 0]])
    verdicts, _ = run_program(program, trace)
    assert verdicts == [(0, True), (1, False)]


def test_allocation_is_deterministic():
    rng = random.Random(77)
    for _ in range(50):
        f = random_formula(rng, 3, 5)
        try:
            first = compile_formula(f, TABLE7_CFG)
        except AllocationError:
            continue
        second = compile_formula(f, TABLE7_CFG)
        assert encode_program(first) == encode_program(second)


def test_constant_formula_short_circuits():
    assert compile_formula(F.TrueConst(), TABLE7_CFG) is True
    assert compile_formula(F.Not(F.TrueConst()), TABLE7_CFG) is False


def test_compiled_random_formulas_agree_with_brute_force():
    rng = random.Random(13)
    cfg = FabricConfig(16, 16, 8, 64)
    done = 0
    while done < 60:
        f = random_formula(rng, 3, 5)
        try:
            program = compile_formula(f, cfg)
        except AllocationError:
            continue
        trace = random_trace(rng, 48, cfg.n_ap)
        verdicts, _ = run_program(program, trace)
        assert not diff_verdicts(
            verdicts, oracle_verdicts(f, trace), expected_emission(48, program.latency)
        ), F.pretty(f)
        done += 1
