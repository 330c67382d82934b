"""Compile a constant-free formula into a fully programmed monitor.

Pipeline: build the evaluator tree, one node per operator plus a wire node
around a bare AP root and each lone AP operand of a binary operator (so both
operands of every binary evaluator arrive with equal delay); balance que
heads bottom-up; then assign PEs and ques in reverse breadth-first order and
lower the machines of each node's ``machine.em_shape`` to records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import formula as F
from .errors import AllocationError
from .machine import em_shape, min_head
from .program import (
    FabricConfig,
    INACTIVE_PE,
    INACTIVE_Q,
    INACTIVE_ROUTE,
    MonitorProgram,
    PeConfig,
    QConfig,
)

# ---------------------------------------------------------------------------
# Evaluator tree with heads and heights
# ---------------------------------------------------------------------------

_KIND = {
    F.Not: "not",
    F.And: "and",
    F.Or: "or",
    F.Implies: "implies",
    F.Next: "next",
    F.Box: "box",
    F.Diamond: "diamond",
    F.Until: "until",
}


@dataclass
class EmNode:
    """One evaluator machine in the monitor plan.

    operands are AP indices (int) or child EmNodes; em_index numbers the
    nodes breadth-first from the root starting at 1, which is also the
    reverse of PE/que assignment order. height is head + 1 + the tallest
    child's height; the root's is the monitor's latency.
    """

    kind: str
    interval: tuple[int, int] | None
    operands: list
    head: int = 0
    height: int = 0
    em_index: int = 0
    pe_ids: list[int] = field(default_factory=list)
    q_id: int = -1

    @property
    def min_head(self) -> int:
        return min_head(self.kind, self.interval)

    def children(self) -> list["EmNode"]:
        return [op for op in self.operands if isinstance(op, EmNode)]


def build_em_tree(f: F.Formula) -> EmNode:
    """Convert a constant-free formula to evaluator nodes.

    A bare AP root becomes a wire node: its verdict stream is the AP delayed
    by the wire's que. So does a lone AP operand of a binary operator whose
    other operand is a subtree, whose verdicts leave its que with a delay:
    unbuffered, the binary node would combine operands from different times.
    """
    node = _to_node(f)
    return EmNode("wire", None, [node]) if isinstance(node, int) else node


def _to_node(f: F.Formula) -> EmNode | int:
    if isinstance(f, F.AP):
        return f.index
    if isinstance(f, F.TrueConst):
        raise AllocationError("constant node reached allocation; fold first")
    operands = [_to_node(child) for child in F.children(f)]
    if len(operands) == 2 and isinstance(operands[0], int) != isinstance(operands[1], int):
        operands = [EmNode("wire", None, [op]) if isinstance(op, int) else op for op in operands]
    interval = (f.lo, f.hi) if isinstance(f, F.TEMPORAL) else None
    return EmNode(_KIND[type(f)], interval, operands)


def compute_heads(node: EmNode) -> int:
    """Assign each node its que head and height bottom-up; return the height.

    A node's height is head + 1 + its tallest child's height (0 when all
    its operands are APs). A binary node first equalizes its children: the
    shorter child's head is raised by the height difference, so both
    operand streams reach this node with identical delay.
    """
    node.head = node.min_head
    kids = node.children()
    heights = [compute_heads(kid) for kid in kids]
    tallest = max(heights, default=0)
    for kid, height in zip(kids, heights):
        kid.head += tallest - height
        kid.height = tallest
    node.height = node.head + 1 + tallest
    return node.height


def bfs_order(root: EmNode) -> list[EmNode]:
    """Level order from the root; assigns em_index 1, 2, ... as it goes."""
    order = [root]
    i = 0
    while i < len(order):
        order.extend(order[i].children())
        i += 1
    for n, node in enumerate(order, start=1):
        node.em_index = n
    return order


def force_heads(root: EmNode, forced: dict[int, int]) -> None:
    """Override chosen heads by em_index (debugging aid for mis-balanced
    monitors), then re-measure every height bottom-up, so that the root's
    height stays the latency. Nothing is rebalanced. Every entry is checked
    before any head changes."""
    order = bfs_order(root)
    nodes = {node.em_index: node for node in order}
    for em_index, head in forced.items():
        if em_index not in nodes:
            raise AllocationError(f"no evaluator node {em_index}")
        floor = nodes[em_index].min_head
        if head < floor:
            raise AllocationError(
                f"forced head {head} below minimum {floor} for node {em_index}"
            )
    for node in reversed(order):
        node.head = forced.get(node.em_index, node.head)
        node.height = node.head + 1 + max((kid.height for kid in node.children()), default=0)


def plan(f: F.Formula) -> EmNode:
    """Build the evaluator tree, balance heads, and number the nodes."""
    root = build_em_tree(f)
    compute_heads(root)
    bfs_order(root)
    return root


# ---------------------------------------------------------------------------
# Allocation and lowering
# ---------------------------------------------------------------------------

def allocate(root: EmNode, cfg: FabricConfig) -> MonitorProgram:
    """Assign PEs/ques and lower to records in one reverse breadth-first pass.

    Each node takes the next free que and one consecutive PE per machine
    of its ``em_shape``, in that order. Children come before their parent,
    so a child's que id is known when the parent is lowered. Each PE
    record takes its machine's intervals unchanged: they end below the
    node's head, which is below the que size. The root que is the verdict
    que. Operand routes carry the AP index, which ``compile_formula`` has
    checked against the fabric, or the child's que id; a child que's reader
    fields name the first port of its stream in the shape's ports, and the
    fabric derives the taps.

    The latency is the root's height, which ``compute_heads`` and
    ``force_heads`` keep equal to the height of the verdict que. The
    program carries its active ids; only the decoder resolves which que
    feeds each port, for the fabric.
    """
    order = bfs_order(root)
    lowering = [(n, *em_shape(n.kind, n.interval)) for n in reversed(order)]
    total_pes = sum(len(ams) for _, ams, _ in lowering)
    if total_pes > cfg.n_pe:
        raise AllocationError(
            f"PE exhaustion: formula needs {total_pes} PEs, fabric has {cfg.n_pe}"
        )
    if len(order) > cfg.n_q:
        raise AllocationError(
            f"Q exhaustion: formula needs {len(order)} ques, fabric has {cfg.n_q}"
        )

    pes: list[PeConfig] = [INACTIVE_PE] * cfg.n_pe
    qs: list[QConfig] = [INACTIVE_Q] * cfg.n_q
    routes: list[tuple[int, int]] = [INACTIVE_ROUTE] * cfg.n_pe
    next_pe = 0
    for q_id, (node, ams, streams) in enumerate(lowering):
        if node.head >= cfg.q_sz:
            raise AllocationError(
                f"node {node.em_index} ({node.kind}) needs head {node.head}, "
                f"que size is {cfg.q_sz}"
            )
        node.q_id = q_id
        node.pe_ids = list(range(next_pe, next_pe + len(ams)))
        next_pe += len(ams)
        for operand, ports in zip(node.operands, streams):
            if isinstance(operand, EmNode):
                m, slot = ports[0]
                qs[operand.q_id] = QConfig._make((True, False, node.pe_ids[m], slot, operand.head))
        for am, pe_id in zip(ams, node.pe_ids):
            op0 = node.operands[am.op0]
            op1 = 0 if am.op1 is None else node.operands[am.op1]  # slot 1 of a unary PE: route 0
            que0, que1 = isinstance(op0, EmNode), isinstance(op1, EmNode)
            pes[pe_id] = PeConfig._make((True, que0, que1, am.opcode, q_id,
                                         am.top_interval, am.bot_interval))
            routes[pe_id] = (0 if que0 else op0, 0 if que1 else op1)
    qs[root.q_id] = QConfig._make((True, True, 0, 0, root.head))

    return MonitorProgram(cfg, tuple(pes), tuple(qs), tuple(routes), root.height,
                          (tuple(range(next_pe)), tuple(range(len(order))), None))


def compile_formula(
    f: F.Formula, cfg: FabricConfig, forced_heads: dict[int, int] | None = None
) -> MonitorProgram | bool:
    """Full pipeline from a parsed formula to a monitor program.

    Returns a bool when the formula folds to a constant: there is nothing
    to program, the verdict stream is that constant. Every AP the formula
    names must be on the fabric, even one that folding drops.
    """
    if f.top_ap >= cfg.n_ap:
        raise AllocationError(f"ap{f.top_ap} out of range for n_ap={cfg.n_ap}")
    folded = F.constant_fold(f)
    if isinstance(folded, bool):
        return folded
    root = plan(folded)
    if forced_heads:
        force_heads(root, forced_heads)
    return allocate(root, cfg)
