"""Seeded inputs for the benchmark workloads: formula text and trace rows.

The generator belongs to the benchmark, not to the library, so the workloads
stay put when the library's own random helpers change. Formulas are drawn to
fit their fabric by the resource rule the compiler documents (one que per
operator node; one PE per node except until, which takes 3 PEs when its
window starts after 0 and 2 otherwise; one extra PE and que for a wire
around a bare AP beside an operator operand) and, where asked, by the
documented latency (the height of the root). No input therefore depends on
the compiler under test: a formula the compiler refuses, or whose latency
differs, is a failed job, not a redraw.
"""

from __future__ import annotations

import random

# Operator draw weights: Boolean connectives 40 %, next, box, diamond and
# until 15 % each (half of the untils start their window at 0, so both until
# realizations are exercised).
_OPERATORS = (
    ("not",) * 10 + ("and",) * 10 + ("or",) * 10 + ("implies",) * 10
    + ("next",) * 15 + ("box",) * 15 + ("diamond",) * 15 + ("until",) * 15
)
_SYMBOL = {"and": "&", "or": "|", "implies": "->"}


def random_tree(rng: random.Random, depth: int, max_t2: int, ap_pool: int) -> tuple:
    """Operator tree of nesting depth at most `depth` whose root is an operator.

    Nodes are ("ap", k), (op, child), (op, lo, hi, child) for box/diamond,
    (op, left, right) for Boolean connectives and ("until", lo, hi, l, r).
    """

    def leaf() -> tuple:
        return ("ap", rng.randrange(ap_pool))

    def gen(d: int) -> tuple:
        if d == 0:
            return leaf()

        def child() -> tuple:
            return leaf() if d > 1 and rng.random() < 0.25 else gen(d - 1)

        kind = rng.choice(_OPERATORS)
        if kind in ("not", "next"):
            return (kind, child())
        if kind in _SYMBOL:
            return (kind, child(), child())
        hi = rng.randint(0, max_t2)
        if kind == "until":
            lo = rng.randint(1, hi) if hi >= 1 and rng.random() < 0.5 else 0
            return (kind, lo, hi, child(), child())
        return (kind, rng.randint(0, hi), hi, child())

    return gen(depth)


def _operands(node: tuple) -> tuple:
    if node[0] == "ap":
        return ()
    if node[0] in ("box", "diamond", "until"):
        return node[3:]
    return node[1:]


def resources(node: tuple) -> tuple[int, int]:
    """(PEs, ques) the documented allocation rule charges for the tree."""
    if node[0] == "ap":
        return 0, 0
    kids = _operands(node)
    pes = 1 if node[0] != "until" else (3 if node[1] >= 1 else 2)
    ques = 1
    for kid in kids:
        p, q = resources(kid)
        pes, ques = pes + p, ques + q
    if len(kids) == 2 and (kids[0][0] == "ap") != (kids[1][0] == "ap"):
        pes, ques = pes + 1, ques + 1
    return pes, ques


# Minimum que head per operator; interval operators need hi + 1.
_MIN_HEAD = {"not": 1, "and": 1, "or": 1, "implies": 1, "next": 2}


def latency(node: tuple) -> int:
    """Height of the tree: each operator adds its minimum head plus one to
    its tallest operand (head balancing raises only the shorter side)."""
    if node[0] == "ap":
        return 0
    head = _MIN_HEAD.get(node[0]) or node[2] + 1
    return head + 1 + max(latency(kid) for kid in _operands(node))


def render(node: tuple) -> str:
    """Concrete syntax with every operator subterm parenthesized."""
    kind = node[0]
    if kind == "ap":
        return f"ap{node[1]}"
    if kind == "not":
        return f"(!{render(node[1])})"
    if kind == "next":
        return f"(X {render(node[1])})"
    if kind in _SYMBOL:
        return f"({render(node[1])} {_SYMBOL[kind]} {render(node[2])})"
    lo, hi = node[1], node[2]
    if kind == "until":
        return f"({render(node[3])} U[{lo},{hi}] {render(node[4])})"
    return f"({'G' if kind == 'box' else 'F'}[{lo},{hi}] {render(node[3])})"


def fitting_formula(
    rng: random.Random, depth: int, max_t2: int, ap_pool: int,
    pe_range: tuple[int, int], n_q: int, max_latency: int | None = None,
) -> str:
    """Draw trees until one needs pe_range PEs, at most n_q ques and, if
    given, has a latency of at most max_latency; return its text."""
    while True:
        tree = random_tree(rng, depth, max_t2, ap_pool)
        pes, ques = resources(tree)
        if (pe_range[0] <= pes <= pe_range[1] and ques <= n_q
                and (max_latency is None or latency(tree) <= max_latency)):
            return render(tree)


def random_rows(rng: random.Random, length: int, width: int) -> list[tuple[int, ...]]:
    """`length` events of `width` fair random AP bits, as 0/1 tuples."""
    return [
        tuple((bits >> k) & 1 for k in range(width))
        for bits in (rng.getrandbits(width) for _ in range(length))
    ]
