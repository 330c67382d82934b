import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import formulas, random_mixed_formula
from mtlmon import formula as F
from mtlmon.errors import TraceError
from mtlmon.oracle import oracle_verdicts, satisfies
from mtlmon.toolchain import random_trace
from mtlmon.trace import make_trace


def test_negation_verdicts():
    f = F.Not(F.AP(0))
    tr = make_trace([[1], [0], [0]])
    assert oracle_verdicts(f, tr) == [False, True, True]


def test_until_verdicts_match_worked_example():
    f = F.Until(F.AP(0), F.AP(1), 1, 2)
    tr = make_trace([(0, 0), (1, 0), (1, 0), (0, 1), (1, 1)])
    verdicts = oracle_verdicts(f, tr)
    assert verdicts[0] is False
    assert verdicts[1] is True
    assert len(verdicts) == 3  # lookahead 2 over 5 events


def test_true_is_everywhere_true():
    tr = make_trace([[0], [1], [0], [1]])
    assert oracle_verdicts(F.TrueConst(), tr) == [True] * 4


def test_width_must_cover_ap_indices():
    with pytest.raises(TraceError):
        oracle_verdicts(F.AP(3), make_trace([[0, 1]]))


def test_satisfies_rejects_aps_and_times_the_trace_does_not_cover():
    with pytest.raises(TraceError, match="trace width 1 does not cover ap5"):
        satisfies(F.AP(5), make_trace([[1]]), 0)
    for f, rows, i in ((F.Next(F.AP(0)), [[1]], 0), (F.AP(0), [[1]], 3),
                       (F.AP(0), [[1], [0]], -1)):
        with pytest.raises(TraceError, match=f"time {i} is outside"):
            satisfies(f, make_trace(rows), i)


def test_defined_range_shrinks_with_lookahead():
    f = F.Box(F.AP(0), 0, 3)
    tr = make_trace([[1]] * 10)
    assert len(oracle_verdicts(f, tr)) == 7
    assert oracle_verdicts(f, make_trace([[1]] * 3)) == []


@given(formulas(max_aps=3), st.integers(0, 2**40 - 1))
@settings(max_examples=300)
def test_bitmask_agrees_with_textbook_recursion(f, bits):
    rows = [[(bits >> (3 * t + k)) & 1 for k in range(3)] for t in range(12)]
    tr = make_trace(rows)
    verdicts = oracle_verdicts(f, tr)
    for i, v in enumerate(verdicts):
        assert v == satisfies(f, tr, i)


def test_verdict_ignores_events_beyond_lookahead():
    rng = random.Random(11)
    for _ in range(200):
        f = random_mixed_formula(rng, depth=3, true_prob=0.0)
        n = F.semantic_future(f)
        tr = random_trace(rng, n + 6, 4)
        verdicts = oracle_verdicts(f, tr)
        for i in (0, len(verdicts) - 1):
            prefix = tr.events[: i + n + 1]
            # everything after i+n is fair game
            mutated = make_trace(
                list(prefix)
                + [[rng.random() < 0.5 for _ in range(4)] for _ in range(4)]
            )
            assert oracle_verdicts(f, mutated)[i] == verdicts[i]


def test_fold_preserves_verdicts_on_defined_range():
    rng = random.Random(5)
    for _ in range(1000):
        f = random_mixed_formula(rng, depth=3)
        tr = random_trace(rng, 24, 4)
        reference = oracle_verdicts(f, tr)
        folded = F.constant_fold(f)
        if isinstance(folded, bool):
            assert reference == [folded] * len(reference)
        else:
            assert oracle_verdicts(folded, tr)[: len(reference)] == reference


def test_bitmask_agrees_with_textbook_recursion_on_a_long_trace():
    rng = random.Random(24)
    tr = random_trace(rng, 3000, 3)
    for text in ("ap0 U[2,5] (ap1 | X ap2)", "G[0,3] (ap0 -> F[1,6] !ap2)"):
        f = F.parse(text)
        verdicts = oracle_verdicts(f, tr)
        assert len(verdicts) == 3000 - F.semantic_future(f)
        assert all(type(v) is bool for v in verdicts)
        assert verdicts == [satisfies(f, tr, i) for i in range(len(verdicts))]
        assert 0 < sum(verdicts) < len(verdicts)
