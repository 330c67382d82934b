"""Bounded discrete-time MTL formulas: AST, parser, printer, constant
folding, and the semantic lookahead the reference evaluator needs.

Concrete syntax
---------------
    atoms       ap<k>, true
    unary       !p, X p, G[a,b] p, F[a,b] p
    binary      p U[a,b] q, p & q, p | q, p -> q
    precedence  {!, X, G, F}  >  U  >  &  >  |  >  ->
    grouping    ( ... );  -> and U associate to the right

Interval bounds are non-negative integers with a <= b (b finite). A node
checks itself when it is built: a child that is not a Formula is a
TypeError, a bad interval an IntervalError, and a negative AP index or an
atom more than ``MAX_NESTING`` operators below the node a ParseError. No
such tree can exist, so every recursive pass stays well inside Python's
default limit of 1000 frames; the parser also allows at most MAX_NESTING
open parentheses. ``semantic_future`` counts how many future events a
verdict depends on; it defines the range of trace positions on which a
verdict is determined. The operator minimum heads and the monitor latency
belong to the hardware and live in ``machine.min_head`` and
``program.derive_latency``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import IntervalError, ParseError

MAX_NESTING = 100


@dataclass(frozen=True)
class Formula:
    """Base class for AST nodes. Nodes are immutable and compare by value.

    ``depth`` is the most operators above any atom of the node: 0 for an
    atom, otherwise 1 + its deepest child's.
    """

    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        depth = 0
        for kid in children(self):
            if not isinstance(kid, Formula):
                raise TypeError(f"not a formula: {kid!r}")
            if kid.depth >= depth:
                depth = kid.depth + 1
        if depth > MAX_NESTING:
            raise ParseError(f"formula nests more than {MAX_NESTING} operators deep")
        if isinstance(self, TEMPORAL):
            _check_interval(self.lo, self.hi)
        elif isinstance(self, AP) and self.index < 0:
            raise ParseError(f"negative AP index {self.index}")
        object.__setattr__(self, "depth", depth)


@dataclass(frozen=True)
class TrueConst(Formula):
    pass


@dataclass(frozen=True)
class AP(Formula):
    index: int


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    child: Formula


@dataclass(frozen=True)
class Box(Formula):
    child: Formula
    lo: int
    hi: int


@dataclass(frozen=True)
class Diamond(Formula):
    child: Formula
    lo: int
    hi: int


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula
    lo: int
    hi: int


TEMPORAL = (Box, Diamond, Until)


def _check_interval(lo: int, hi: int, pos: int | None = None) -> None:
    if lo < 0 or hi < 0 or lo > hi:
        raise IntervalError(f"bad interval [{lo},{hi}]: need 0 <= lo <= hi", pos)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (TrueConst, AP)):
        return ()
    if isinstance(f, (Not, Next, Box, Diamond)):
        return (f.child,)
    return (f.left, f.right)


def ap_indices(f: Formula) -> set[int]:
    out: set[int] = set()
    if isinstance(f, AP):
        out.add(f.index)
    for child in children(f):
        out |= ap_indices(child)
    return out


# ---------------------------------------------------------------------------
# Semantic lookahead
# ---------------------------------------------------------------------------

def semantic_future(f: Formula) -> int:
    """Number of future events a verdict at time i depends on.

    The verdict for time i is fully determined by events i .. i+N.
    """
    if isinstance(f, (TrueConst, AP)):
        return 0
    if isinstance(f, Not):
        return semantic_future(f.child)
    if isinstance(f, (And, Or, Implies)):
        return max(semantic_future(f.left), semantic_future(f.right))
    if isinstance(f, Next):
        return 1 + semantic_future(f.child)
    if isinstance(f, Until):
        return f.hi + max(semantic_future(f.left), semantic_future(f.right))
    if isinstance(f, (Box, Diamond)):
        return f.hi + semantic_future(f.child)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

def constant_fold(f: Formula) -> Formula | bool:
    """Eliminate every constant node, or reduce the whole formula to a bool.

    The fabric has no constant-input source, so allocation requires a
    constant-free tree. Mixed constant/formula temporal cases rewrite to the
    equivalent residual operator (e.g. ``p U[t1,t2] true`` needs p to hold
    up to the start of the window, i.e. ``G[0,t1-1] p``). A node with
    nothing to fold below it comes back as it is, the same object.
    """
    if isinstance(f, TrueConst):
        return True
    if isinstance(f, AP):
        return f
    if isinstance(f, Not):
        c = constant_fold(f.child)
        return (not c) if isinstance(c, bool) else f if c is f.child else Not(c)
    if isinstance(f, And):
        l, r = constant_fold(f.left), constant_fold(f.right)
        if isinstance(l, bool):
            return r if l else False
        if isinstance(r, bool):
            return l if r else False
        return f if l is f.left and r is f.right else And(l, r)
    if isinstance(f, Or):
        l, r = constant_fold(f.left), constant_fold(f.right)
        if isinstance(l, bool):
            return True if l else r
        if isinstance(r, bool):
            return True if r else l
        return f if l is f.left and r is f.right else Or(l, r)
    if isinstance(f, Implies):
        l, r = constant_fold(f.left), constant_fold(f.right)
        if isinstance(l, bool):
            return r if l else True
        if isinstance(r, bool):
            return True if r else Not(l)
        return f if l is f.left and r is f.right else Implies(l, r)
    if isinstance(f, Next):
        c = constant_fold(f.child)
        return c if isinstance(c, bool) else f if c is f.child else Next(c)
    if isinstance(f, Box):
        c = constant_fold(f.child)
        return c if isinstance(c, bool) else f if c is f.child else Box(c, f.lo, f.hi)
    if isinstance(f, Diamond):
        c = constant_fold(f.child)
        return c if isinstance(c, bool) else f if c is f.child else Diamond(c, f.lo, f.hi)
    if isinstance(f, Until):
        l, r = constant_fold(f.left), constant_fold(f.right)
        if isinstance(r, bool) and not r:
            return False  # no witness position can ever satisfy r
        if isinstance(l, bool) and isinstance(r, bool):
            # r is True here; l=True holds everywhere, l=False only if the
            # window starts immediately.
            return True if l else f.lo == 0
        if isinstance(r, bool):  # r is True
            return True if f.lo == 0 else Box(l, 0, f.lo - 1)
        if isinstance(l, bool):
            if l:
                return Diamond(r, f.lo, f.hi)
            return r if f.lo == 0 else False  # witness must be at offset 0
        return f if l is f.left and r is f.right else Until(l, r, f.lo, f.hi)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

# Binding strength; higher binds tighter. Unary operators are prefix and
# tighter than everything binary.
_PREC = {Implies: 1, Or: 2, And: 3, Until: 4}
_UNARY_PREC = 5


def pretty(f: Formula) -> str:
    """Render with the minimum parentheses the grammar needs."""
    return _pretty(f, 0)


def _pretty(f: Formula, parent_prec: int) -> str:
    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, AP):
        return f"ap{f.index}"
    if isinstance(f, Not):
        return "!" + _pretty(f.child, _UNARY_PREC)
    if isinstance(f, Next):
        return "X " + _pretty(f.child, _UNARY_PREC)
    if isinstance(f, Box):
        return f"G[{f.lo},{f.hi}] " + _pretty(f.child, _UNARY_PREC)
    if isinstance(f, Diamond):
        return f"F[{f.lo},{f.hi}] " + _pretty(f.child, _UNARY_PREC)
    prec = _PREC[type(f)]
    sym = {And: "&", Or: "|", Implies: "->"}.get(type(f))
    right_assoc = isinstance(f, (Implies, Until))
    if isinstance(f, Until):
        sym = f"U[{f.lo},{f.hi}]"
    # A chain re-parses without parens only on its associative side; the
    # other side must bind strictly tighter.
    lp = prec + 1 if right_assoc else prec
    rp = prec if right_assoc else prec + 1
    text = f"{_pretty(f.left, lp)} {sym} {_pretty(f.right, rp)}"
    if prec < parent_prec:
        return "(" + text + ")"
    return text


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<punct>[!&|()\[\],])|(?P<num>\d+)|(?P<word>[A-Za-z_][A-Za-z_0-9]*))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
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


def _int(digits: str, pos: int) -> int:
    """A decimal literal; ParseError past Python's int-conversion digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"number of {len(digits)} digits is too long", pos) from None


_PREFIX = {"!": Not, "X": Next, "G": Box, "F": Diamond}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.parens = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def interval(self) -> tuple[int, int]:
        _, _, pos = self.expect("[")
        lo = _int(*self.expect("num")[1:])
        self.expect(",")
        hi = _int(*self.expect("num")[1:])
        self.expect("]")
        _check_interval(lo, hi, pos)
        return lo, hi

    # Operator chains are loops: the parser recurses only into parentheses.
    def implies(self) -> Formula:
        terms = [self.disjunction()]
        while self.peek()[0] == "->":
            self.next()
            terms.append(self.disjunction())
        f = terms.pop()
        for left in reversed(terms):
            f = Implies(left, f)
        return f

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek()[0] == "|":
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.until()
        while self.peek()[0] == "&":
            self.next()
            f = And(f, self.until())
        return f

    def until(self) -> Formula:
        lefts = []
        f = self.unary()
        while self.peek()[:2] == ("word", "U"):
            self.next()
            lefts.append((f, self.interval()))
            f = self.unary()
        for left, (lo, hi) in reversed(lefts):
            f = Until(left, f, lo, hi)
        return f

    def unary(self) -> Formula:
        prefixes = []
        while self.peek()[1] in _PREFIX:
            op = _PREFIX[self.next()[1]]
            prefixes.append((op, self.interval() if op in (Box, Diamond) else ()))
        f = self.atom()
        for op, interval in reversed(prefixes):
            f = op(f, *interval)
        return f

    def atom(self) -> Formula:
        kind, value, pos = self.next()
        if kind == "(":
            self.parens += 1
            if self.parens > MAX_NESTING:
                raise ParseError(f"more than {MAX_NESTING} nested parentheses", pos)
            f = self.implies()
            self.expect(")")
            self.parens -= 1
            return f
        if kind == "word":
            if value == "true":
                return TrueConst()
            m = re.fullmatch(r"ap(\d+)", value)
            if m:
                return AP(_int(m.group(1), pos))
            raise ParseError(f"unknown name {value!r}", pos)
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)


def parse(text: str) -> Formula:
    """Parse the concrete syntax described in the module docstring."""
    p = _Parser(text)
    f = p.implies()
    kind, value, pos = p.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {value!r}", pos)
    return f
