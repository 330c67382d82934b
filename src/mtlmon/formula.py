"""Bounded discrete-time MTL formulas: AST, parser, printer, constant
folding, and the semantic lookahead the reference evaluator needs.

Concrete syntax
---------------
    atoms       ap<k>, true
    unary       !p, X p, G[a,b] p, F[a,b] p
    binary      p U[a,b] q, p & q, p | q, p -> q
    precedence  {!, X, G, F}  >  U  >  &  >  |  >  ->
    grouping    ( ... );  -> and U associate to the right

The table ``BINARY`` is the one statement of the binary operators' tokens,
precedence and grouping; the parser and the printer both read it.

Interval bounds are non-negative integers with a <= b (b finite). A node
checks itself when it is built: a child that is not a Formula is a
TypeError, a bad interval an IntervalError, and a negative AP index or an
atom more than ``MAX_NESTING`` operators below the node a ParseError. No
such tree can exist, so every recursive pass stays well inside Python's
default limit of 1000 frames; the parser also allows at most MAX_NESTING
open parentheses. Each node records its nesting ``depth`` and its largest
AP index ``top_ap`` as it checks itself. ``semantic_future`` counts how
many future events a verdict depends on; it defines the range of trace
positions on which a verdict is determined. The operator minimum heads
belong to the hardware and live in ``machine.min_head``. A compiled
program's latency is the height of its planned root (``compiler.plan``);
``program.derive_latency`` recomputes it from the records when a body is
decoded.
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
    atom, otherwise 1 + its deepest child's. ``top_ap`` is the largest AP
    index in the node, -1 if it has none.
    """

    depth: int = field(init=False, repr=False, compare=False)
    top_ap: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        depth = 0
        top_ap = self.index if isinstance(self, AP) else -1
        for kid in children(self):
            if not isinstance(kid, Formula):
                raise TypeError(f"not a formula: {kid!r}")
            if kid.depth >= depth:
                depth = kid.depth + 1
            if kid.top_ap > top_ap:
                top_ap = kid.top_ap
        if depth > MAX_NESTING:
            raise ParseError(f"formula nests more than {MAX_NESTING} operators deep")
        if isinstance(self, TEMPORAL):
            _check_interval(self.lo, self.hi)
        elif isinstance(self, AP) and self.index < 0:
            raise ParseError(f"negative AP index {self.index}")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "top_ap", top_ap)


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

# The binary operators, loosest first: (token, node class, groups right).
# A row's binding strength is its number from 1; the unary prefixes bind
# tighter than every row.
BINARY = (("->", Implies, True), ("|", Or, False), ("&", And, False), ("U", Until, True))
_LAST = len(BINARY) - 1
_BINARY_PREC = {op: (prec, token, right) for prec, (token, op, right) in enumerate(BINARY, 1)}
_UNARY_PREC = len(BINARY) + 1


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
    prec, sym, right = _BINARY_PREC[type(f)]
    if isinstance(f, Until):
        sym = f"U[{f.lo},{f.hi}]"
    # A chain re-parses without parens only on its associative side; the
    # other side must bind strictly tighter.
    lp = prec + 1 if right else prec
    rp = prec if right else prec + 1
    text = f"{_pretty(f.left, lp)} {sym} {_pretty(f.right, rp)}"
    if prec < parent_prec:
        return "(" + text + ")"
    return text


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(->|[!&|()\[\],])|(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\S)")
_AP_RE = re.compile(r"ap(\d+)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, then ("eof", "", len(text)). No group
    matches whitespace, so finditer skips it; the last group is any other
    character, reported as unexpected at the end of the token before it."""
    tokens = []
    end = 0
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        value = m[group]
        if group == 4:
            raise ParseError(f"unexpected character {value!r}", end)
        tokens.append((value if group == 1 else "num" if group == 2 else "word",
                       value, m.start()))
        end = m.end()
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

    def binary(self, level: int = 0) -> Formula:
        """A chain of row ``level``'s operator over chains of the next row,
        or over unary terms below the last. One frame per row, none per
        operator: the chain is a loop, folded to the right or the left as
        the row says, so the parser recurses only into parentheses."""
        token, op, right = BINARY[level]
        f = self.binary(level + 1) if level < _LAST else self.unary()
        if self.tokens[self.i][1] != token:
            return f  # most operands are not chains; return before the loop
        lefts = []
        while self.tokens[self.i][1] == token:
            self.i += 1
            interval = self.interval() if op is Until else ()
            g = self.binary(level + 1) if level < _LAST else self.unary()
            if right:
                lefts.append((f, interval))
                f = g
            else:
                f = op(f, g, *interval)
        for left, interval in reversed(lefts):
            f = op(left, f, *interval)
        return f

    def unary(self) -> Formula:
        prefixes = []
        while self.tokens[self.i][1] in _PREFIX:
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
            f = self.binary()
            self.expect(")")
            self.parens -= 1
            return f
        if kind == "word":
            if value == "true":
                return TrueConst()
            m = _AP_RE.fullmatch(value)
            if m:
                return AP(_int(m.group(1), pos))
            raise ParseError(f"unknown name {value!r}", pos)
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)


def parse(text: str) -> Formula:
    """Parse the concrete syntax described in the module docstring."""
    p = _Parser(text)
    f = p.binary()
    kind, value, pos = p.tokens[p.i]
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {value!r}", pos)
    return f
