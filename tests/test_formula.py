import collections
import dataclasses
import hashlib
import random
import re
import sys

import pytest
from hypothesis import given, settings

from conftest import formulas
from mtlmon import formula as F
from mtlmon.compiler import compile_formula
from mtlmon.errors import IntervalError, ParseError
from mtlmon.oracle import oracle_verdicts, satisfies
from mtlmon.program import FabricConfig
from mtlmon.toolchain import random_formula
from mtlmon.trace import make_trace


def test_parse_box_atom():
    assert F.parse("G[1,4] ap2") == F.Box(F.AP(2), 1, 4)


def test_parse_disjunction_of_diamonds():
    # the running example formula of the docs
    assert F.parse("F[0,1] !ap1 | F[1,4] ap2") == F.Or(
        F.Diamond(F.Not(F.AP(1)), 0, 1), F.Diamond(F.AP(2), 1, 4)
    )


def test_parse_rejects_backwards_interval():
    with pytest.raises(IntervalError):
        F.parse("ap0 U[2,1] ap1")


@pytest.mark.parametrize("text", [
    "", "ap", "ap0 &", "(ap0", "G[1] ap0", "G[a,b] ap0", "xyzzy",
    "ap0 ap1", "U[1,2] ap0", "!?",
])
def test_parse_rejects_garbage(text):
    with pytest.raises(ParseError):
        F.parse(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        F.parse("ap0 | zzz")
    assert err.value.position == 6


_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<punct>[!&|()\[\],])|(?P<num>\d+)|(?P<word>[A-Za-z_][A-Za-z_0-9]*))"
)


def reference_tokenize(text):
    """The tokenizer as one anchored match per token, the reference for
    the one-pass tokenizer."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup == "arrow":
            tokens.append(("->", "->", m.start("arrow")))
        elif m.lastgroup == "punct":
            tokens.append((m.group("punct"), m.group("punct"), m.start("punct")))
        elif m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        else:
            tokens.append(("word", m.group("word"), m.start("word")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as err:
        return str(err), err.position


# Unicode whitespace (a file separator, a no-break space), a letter and a
# digit outside ASCII, and pieces of every token kind.
_TEXT_PIECES = [" ", "\t", "\n", "\x1c", "\xa0", "\u00e9", "\u0663", "ap12", "U[", "->",
                "-", ">", "!", "&", "|", "(", ")", "[", "]", ",", "0", "42", "ap0", "true",
                "G", "F", "X", "_x", "?"]


def test_the_tokenizer_matches_the_match_loop_reference():
    rng = random.Random(22)
    outcomes = collections.Counter()
    for _ in range(20_000):
        text = "".join(rng.choice(_TEXT_PIECES) for _ in range(rng.randint(0, 10)))
        got = _tokens_or_error(F._tokenize, text)
        assert got == _tokens_or_error(reference_tokenize, text), repr(text)
        outcomes[isinstance(got, list)] += 1
    assert min(outcomes.values()) > 2_000  # both outcomes are well exercised


@given(formulas())
@settings(max_examples=300)
def test_top_ap_is_the_largest_ap_index(f):
    # dataclasses.replace builds a new node, which computes its own top_ap.
    if isinstance(f, F.AP):
        replaced = dataclasses.replace(f, index=f.index + 3)
    elif isinstance(f, F.TrueConst):
        replaced = f
    else:
        side = "child" if len(F.children(f)) == 1 else "right"
        replaced = dataclasses.replace(f, **{side: F.AP(9)})
    for g in (f, replaced):
        assert g.top_ap == max(F.ap_indices(g), default=-1)


N = F.MAX_NESTING


@pytest.mark.parametrize("nest", [
    lambda n: "!" * n + "ap0",
    lambda n: "X " * n + "ap0",
    lambda n: "G[0,1] " * n + "ap0",
    lambda n: " -> ".join(["ap0"] * (n + 1)),
    lambda n: " & ".join(["ap0"] * (n + 1)),
    lambda n: " U[0,1] ".join(["ap0"] * (n + 1)),
], ids=["not", "next", "box", "implies", "and", "until"])
def test_operator_nesting_limit(nest):
    F.parse(nest(N))
    with pytest.raises(ParseError, match=f"more than {N} operators deep"):
        F.parse(nest(N + 1))


def test_parenthesis_nesting_limit():
    assert F.parse("(" * N + "ap0" + ")" * N) == F.AP(0)
    F.parse("!(" * N + "ap0" + ")" * N)  # both limits at once
    with pytest.raises(ParseError, match=f"more than {N} nested parentheses") as err:
        F.parse("(" * (N + 1) + "ap0" + ")" * (N + 1))
    assert err.value.position == N


def _tower(build):
    f = F.AP(0)
    for _ in range(N):
        f = build(f)
    return f


# One builder per operator class and operand side: each puts f one level
# deeper.
_LEVEL = {
    "not": F.Not,
    "next": F.Next,
    "box": lambda f: F.Box(f, 0, 1),
    "diamond": lambda f: F.Diamond(f, 0, 1),
    "and-left": lambda f: F.And(f, F.AP(1)),
    "and-right": lambda f: F.And(F.AP(1), f),
    "or-left": lambda f: F.Or(f, F.AP(1)),
    "or-right": lambda f: F.Or(F.AP(1), f),
    "implies-left": lambda f: F.Implies(f, F.AP(1)),
    "implies-right": lambda f: F.Implies(F.AP(1), f),
    "until-left": lambda f: F.Until(f, F.AP(1), 0, 1),
    "until-right": lambda f: F.Until(F.AP(1), f, 0, 1),
}


def test_building_past_the_nesting_limit_raises():
    for name, level in _LEVEL.items():
        f = _tower(level)
        assert f.depth == N, name
        with pytest.raises(ParseError, match=f"more than {N} operators deep"):
            level(f)
    at_limit = _tower(F.Not)
    until = F.Until(F.AP(0), F.AP(1), 0, 1)
    for node, side in ((F.Not(F.AP(0)), "child"), (until, "left"), (until, "right")):
        with pytest.raises(ParseError, match=f"more than {N} operators deep"):
            dataclasses.replace(node, **{side: at_limit})


def test_bad_leaves_and_intervals_raise_when_built():
    with pytest.raises(IntervalError, match=r"bad interval \[3,1\]"):
        F.Box(F.AP(0), 3, 1)
    with pytest.raises(IntervalError):
        dataclasses.replace(F.Until(F.AP(0), F.AP(1), 0, 2), lo=-1)
    with pytest.raises(ParseError, match="negative AP index -1"):
        F.AP(-1)


@pytest.mark.parametrize("level", _LEVEL)
@pytest.mark.parametrize("operand", [None, 0, "ap0"])
def test_an_operand_that_is_not_a_formula_raises_when_built(level, operand):
    with pytest.raises(TypeError, match=f"^not a formula: {operand!r}$"):
        _LEVEL[level](operand)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_recursive_passes_fit_the_recursion_budget():
    # Every recursive pass on the deepest towers the limit admits, and the
    # parser on the most parentheses, with 700 frames to spare: about 100
    # per pass, 300 for compile_formula and for satisfies on Box and Until,
    # and 620 for the parentheses.
    cfg = FabricConfig(512, 512, 1, 512)
    trace = make_trace([[1]] * (N + 2))
    towers = [(_tower(F.Not), 0), (_tower(lambda f: F.Box(f, 1, 1)), N),
              (_tower(lambda f: F.Until(F.AP(0), f, 0, 1)), N)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 700)
    try:
        for f, future in towers:
            assert F.ap_indices(f) == {0}
            assert F.semantic_future(f) == future
            assert F.constant_fold(f) == f
            assert F.parse(F.pretty(f)) == f
            assert len(oracle_verdicts(f, trace)) == len(trace) - future
            assert satisfies(f, trace, 0) == oracle_verdicts(f, trace)[0]
            assert compile_formula(f, cfg).latency > 0
        assert F.parse("(" * N + "ap0" + ")" * N) == F.AP(0)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("text, position", [
    ("G[0," + "9" * 5000 + "] ap0", 4),
    ("ap" + "9" * 5000, 0),
    ("ap0 U[" + "9" * 4301 + ",1] ap1", 6),
], ids=["bound", "ap", "until_bound"])
def test_huge_integer_literals_are_parse_errors(text, position):
    with pytest.raises(ParseError, match="digits is too long") as err:
        F.parse(text)
    assert err.value.position == position


def test_precedence():
    f = F.parse("!ap0 & ap1 | ap2 -> X ap3")
    assert f == F.Implies(
        F.Or(F.And(F.Not(F.AP(0)), F.AP(1)), F.AP(2)), F.Next(F.AP(3))
    )


def test_until_binds_tighter_than_and():
    assert F.parse("ap0 U[0,2] ap1 & ap2") == F.And(
        F.Until(F.AP(0), F.AP(1), 0, 2), F.AP(2)
    )


def test_implies_right_associative():
    f = F.parse("ap0 -> ap1 -> ap2")
    assert f == F.Implies(F.AP(0), F.Implies(F.AP(1), F.AP(2)))


def test_and_and_or_associate_to_the_left():
    a, b, c = F.AP(0), F.AP(1), F.AP(2)
    assert F.parse("ap0 & ap1 & ap2") == F.And(F.And(a, b), c)
    assert F.parse("ap0 | ap1 | ap2") == F.Or(F.Or(a, b), c)
    assert F.pretty(F.And(a, F.And(b, c))) == "ap0 & (ap1 & ap2)"
    assert F.pretty(F.Or(a, F.Or(b, c))) == "ap0 | (ap1 | ap2)"


def test_until_associates_to_the_right():
    a, b, c = F.AP(0), F.AP(1), F.AP(2)
    assert F.parse("ap0 U[0,1] ap1 U[0,2] ap2") == F.Until(a, F.Until(b, c, 0, 2), 0, 1)
    assert F.pretty(F.Until(F.Until(a, b, 0, 1), c, 0, 2)) == "(ap0 U[0,1] ap1) U[0,2] ap2"


# Characters an edit inserts or writes over: every token's characters, the
# digits, the letters of the names, a space and one character outside the
# grammar.
_EDIT_CHARS = "()[],!&|->U0123456789apXGFtrue ?"


def _edited(rng, text):
    """text with 1-3 random one-character insertions, deletions or overwrites."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars) + 1)
        how = rng.randrange(3)
        if how == 0 or at == len(chars):
            chars.insert(at, rng.choice(_EDIT_CHARS))
        elif how == 1:
            del chars[at]
        else:
            chars[at] = rng.choice(_EDIT_CHARS)
    return "".join(chars)


def test_parse_outcomes_are_pinned():
    # 10,080 printed random formulas over depths 0-6 and t2 0-9, every other
    # one edited: each parses to the same tree, or fails with the same error
    # class, message and position, as when this pin was recorded.
    rng = random.Random(29)
    digest, errors = hashlib.sha256(), 0
    for depth in range(7):
        for t2 in range(10):
            for k in range(144):
                text = F.pretty(random_formula(rng, depth, t2))
                try:
                    outcome = repr(F.parse(_edited(rng, text) if k % 2 else text))
                except ParseError as err:
                    outcome = f"{type(err).__name__}: {err} {err.position}"
                    errors += 1
                digest.update(outcome.encode() + b"\n")
    assert errors == 4714
    assert digest.hexdigest() == "3f569105790713fa3ddcc2d71a648d9a0a149d30a7b681f9a6c8858c031b98d7"


def test_semantic_future_examples():
    assert F.semantic_future(F.AP(0)) == 0
    assert F.semantic_future(F.Next(F.AP(0))) == 1
    assert F.semantic_future(F.Until(F.AP(0), F.AP(1), 1, 2)) == 2


def test_until_lookahead_is_tight():
    # brute force: the verdict at i is a function of events i..i+2 only
    from itertools import product

    from mtlmon.oracle import satisfies
    from mtlmon.trace import make_trace

    f = F.Until(F.AP(0), F.AP(1), 1, 2)
    for window in product([0, 1], repeat=6):
        rows = [(window[2 * k], window[2 * k + 1]) for k in range(3)]
        base = satisfies(f, make_trace(rows), 0)
        for suffix in product([0, 1], repeat=2):
            assert satisfies(f, make_trace(rows + [suffix]), 0) == base


@given(formulas())
@settings(max_examples=300)
def test_pretty_parse_roundtrip(f):
    assert F.parse(F.pretty(f)) == f


def test_fold_identity_of_and():
    assert F.constant_fold(F.And(F.TrueConst(), F.AP(3))) == F.AP(3)


def test_fold_whole_formula_constant():
    assert F.constant_fold(F.TrueConst()) is True
    assert F.constant_fold(F.Not(F.TrueConst())) is False
    assert F.constant_fold(F.Diamond(F.TrueConst(), 1, 4)) is True
    # the diamond fold confirmed by brute force over an arbitrary trace
    import random

    from mtlmon.oracle import oracle_verdicts
    from mtlmon.trace import make_trace

    rng = random.Random(1)
    tr = make_trace([[rng.randint(0, 1)] for _ in range(12)])
    assert all(oracle_verdicts(F.Diamond(F.TrueConst(), 1, 4), tr))


def test_fold_mixed_until():
    assert F.constant_fold(F.Until(F.AP(0), F.TrueConst(), 2, 5)) == F.Box(F.AP(0), 0, 1)
    assert F.constant_fold(F.Until(F.AP(0), F.TrueConst(), 0, 5)) is True
    assert F.constant_fold(F.Until(F.TrueConst(), F.AP(1), 1, 3)) == F.Diamond(F.AP(1), 1, 3)
    assert F.constant_fold(F.Until(F.Not(F.TrueConst()), F.AP(1), 0, 3)) == F.AP(1)
    assert F.constant_fold(F.Until(F.Not(F.TrueConst()), F.AP(1), 1, 3)) is False


@pytest.mark.parametrize("text", [
    "ap0", "!ap0", "ap0 & ap1", "ap0 | ap1", "ap0 -> ap1", "X ap0", "G[1,3] ap0",
    "F[0,2] ap0", "ap0 U[1,4] ap1", "G[0,3] (ap0 U[1,4] (X ap1 | F[0,2] !(ap2 & ap3)))",
])
def test_fold_gives_a_constant_free_formula_back_itself(text):
    f = F.parse(text)
    assert F.constant_fold(f) is f


def test_fold_keeps_a_subtree_with_nothing_to_fold():
    f = F.parse("(true -> ap0) & G[1,2] (ap1 | X ap2)")
    folded = F.constant_fold(f)
    assert folded == F.And(F.AP(0), f.right)
    assert folded.left is f.left.right and folded.right is f.right


@given(formulas())
@settings(max_examples=300)
def test_fold_leaves_no_constants(f):
    folded = F.constant_fold(f)
    if isinstance(folded, bool):
        return

    def scan(node):
        assert not isinstance(node, F.TrueConst)
        for child in F.children(node):
            scan(child)

    scan(folded)
