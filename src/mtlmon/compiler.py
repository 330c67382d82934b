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
    derive_latency,
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
    reverse of PE/que assignment order.
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


def compute_heads(node: EmNode) -> tuple[int, int]:
    """Assign each node its que head and subtree height, bottom-up.

    A leaf (all operands APs) has height head+1. A unary node adds its
    child's height. A binary node first equalizes its children: the
    shorter child's head is raised by the height difference, so both
    operand streams reach this node with identical delay.
    """
    node.head = node.min_head
    kids = node.children()
    if not kids:
        node.height = node.head + 1
    elif len(kids) == 1:
        _, child_height = compute_heads(kids[0])
        node.height = node.head + 1 + child_height
    else:
        lh = compute_heads(kids[0])[1]
        rh = compute_heads(kids[1])[1]
        if lh < rh:
            kids[0].head += rh - lh
            kids[0].height = rh
        elif rh < lh:
            kids[1].head += lh - rh
            kids[1].height = lh
        node.height = node.head + 1 + max(lh, rh)
    return node.head, node.height


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
    monitors). Nothing is rebalanced, and the node heights keep their
    balanced values: ``allocate`` derives the latency from the records."""
    nodes = {node.em_index: node for node in bfs_order(root)}
    for em_index, head in forced.items():
        if em_index not in nodes:
            raise AllocationError(f"no evaluator node {em_index}")
        node = nodes[em_index]
        if head < node.min_head:
            raise AllocationError(
                f"forced head {head} below minimum {node.min_head} for node {em_index}"
            )
        node.head = head


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
    """Assign PEs/ques in reverse breadth-first order and lower to records.

    Each node takes the next free que and one consecutive PE per machine
    of its ``em_shape``, in that order. Each PE record takes its
    machine's intervals unchanged: they end below the node's head, which is
    below the que size. The root que is the verdict que. Operand routes
    carry the AP index, which ``compile_formula`` has checked against the
    fabric, or the child's que id; a child que's reader fields
    name the first port of its stream in the shape's ports, and the fabric
    derives the taps.

    As it lowers, it records the que of every que-fed port: each port
    the shape lists for an operand stream reads that operand's que,
    which is what ``resolve_operands`` would find in the records. So the
    latency is derived from those sources, with no resolution, and the
    program carries them with its active ids.
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

    next_pe = 0
    next_q = 0
    for node, ams, _ in lowering:
        if node.head >= cfg.q_sz:
            raise AllocationError(
                f"node {node.em_index} ({node.kind}) needs head {node.head}, "
                f"que size is {cfg.q_sz}"
            )
        node.q_id = next_q
        next_q += 1
        node.pe_ids = list(range(next_pe, next_pe + len(ams)))
        next_pe += len(ams)

    pes: list[PeConfig] = [INACTIVE_PE] * cfg.n_pe
    qs: list[QConfig] = [INACTIVE_Q] * cfg.n_q
    routes: list[tuple[int, int]] = [INACTIVE_ROUTE] * cfg.n_pe
    qs[root.q_id] = QConfig(True, True, 0, 0, root.head)
    sources: dict[tuple[int, int], int] = {}

    for node, ams, streams in lowering:
        for operand, ports in zip(node.operands, streams):
            if isinstance(operand, EmNode):
                m, slot = ports[0]
                qs[operand.q_id] = QConfig(True, False, node.pe_ids[m], slot, operand.head)
                for m, slot in ports:
                    sources[(node.pe_ids[m], slot)] = operand.q_id
        for am, pe_id in zip(ams, node.pe_ids):
            op0 = node.operands[am.op0]
            op1 = 0 if am.op1 is None else node.operands[am.op1]  # slot 1 of a unary PE: route 0
            que0, que1 = isinstance(op0, EmNode), isinstance(op1, EmNode)
            pes[pe_id] = PeConfig(True, que0, que1, am.opcode, node.q_id,
                                  am.top_interval, am.bot_interval)
            routes[pe_id] = (0 if que0 else op0, 0 if que1 else op1)

    pes_t, qs_t = tuple(pes), tuple(qs)
    pe_ids, q_ids = tuple(range(next_pe)), tuple(range(next_q))
    latency = derive_latency(pes_t, qs_t, sources, pe_ids, q_ids)
    return MonitorProgram(cfg, pes_t, qs_t, tuple(routes), latency, (pe_ids, q_ids, sources))


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
