"""Compile a constant-free formula into a fully programmed monitor.

Pipeline: wrap bare-AP operands of binary operators in synthetic wire nodes
(so both operands of every binary evaluator arrive with equal delay), then
balance que heads bottom-up, then assign PEs and ques in reverse
breadth-first order and lower each node's machine programming to hardware
records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import formula as F
from .errors import AllocationError
from .machine import EvaluatorMachine, em_build, min_head
from .program import (
    EMPTY_INTERVAL,
    FabricConfig,
    INACTIVE_PE,
    INACTIVE_Q,
    MonitorProgram,
    PeConfig,
    QConfig,
    derive_latency,
    is_empty,
)


@dataclass(frozen=True)
class Wire(F.Formula):
    """Synthetic pass-through node; semantically the identity on its child.

    Inserted around a bare AP that feeds a binary operator whose other
    operand is an operator subtree: the subtree's verdicts leave its que
    with a delay, so the raw AP must be buffered through a que of its own
    or the binary node would combine operands from different times.
    """

    child: F.Formula


def insert_wires(f: F.Formula) -> F.Formula:
    """Wrap mismatched bare-AP operands of binary operators in Wire nodes."""
    if isinstance(f, (F.AP, F.TrueConst)):
        return f
    if isinstance(f, (F.Not, F.Next, F.Box, F.Diamond, Wire)):
        return type(f)(insert_wires(f.child), *_interval_args(f))
    left, right = insert_wires(f.left), insert_wires(f.right)
    if isinstance(left, F.AP) != isinstance(right, F.AP):
        if isinstance(left, F.AP):
            left = Wire(left)
        else:
            right = Wire(right)
    if isinstance(f, F.Until):
        return F.Until(left, right, f.lo, f.hi)
    return type(f)(left, right)


def _interval_args(f: F.Formula) -> tuple:
    return (f.lo, f.hi) if isinstance(f, (F.Box, F.Diamond)) else ()


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
    Wire: "wire",
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
    """Convert a wire-inserted, constant-free formula to evaluator nodes.

    A bare AP at the root has no operator to evaluate it, so it is wrapped
    in a wire node (its verdict stream is the AP delayed by the wire's que).
    """
    if isinstance(f, F.AP):
        f = Wire(f)
    return _to_node(f)


def _to_node(f: F.Formula) -> EmNode:
    if isinstance(f, F.TrueConst):
        raise AllocationError("constant node reached allocation; fold first")
    kind = _KIND[type(f)]
    interval = (f.lo, f.hi) if isinstance(f, (F.Box, F.Diamond, F.Until)) else None
    subs = F.children(f) if not isinstance(f, Wire) else (f.child,)
    operands = [
        op.index if isinstance(op, F.AP) else _to_node(op) for op in subs
    ]
    mixed = len(operands) == 2 and (
        isinstance(operands[0], EmNode) != isinstance(operands[1], EmNode)
    )
    assert not mixed, "wire insertion must remove mixed AP/node operands"
    return EmNode(kind, interval, operands)


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
    """Wire-insert, build the evaluator tree, and balance heads."""
    root = build_em_tree(insert_wires(f))
    compute_heads(root)
    bfs_order(root)
    return root


# ---------------------------------------------------------------------------
# Allocation and lowering
# ---------------------------------------------------------------------------

def node_machine(node: EmNode) -> EvaluatorMachine:
    return em_build(node.kind, node.head, node.interval)


def pe_cost(node: EmNode) -> int:
    if node.kind == "until":
        return 3 if node.interval[0] >= 1 else 2
    return 1


def allocate(root: EmNode, cfg: FabricConfig) -> MonitorProgram:
    """Assign PEs/ques in reverse breadth-first order and lower to records.

    Each node takes the next free que; until takes 2-3 consecutive PEs (its
    machines in programming-table order), everything else one. The root que
    is the verdict que. Operand routes carry the AP index or the child's
    que id; a child que's reader fields name its lowest-numbered reading PE.
    """
    order = bfs_order(root)
    total_pes = sum(pe_cost(n) for n in order)
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
    for node in reversed(order):
        if node.head >= cfg.q_sz:
            raise AllocationError(
                f"node {node.em_index} ({node.kind}) needs head {node.head}, "
                f"que size is {cfg.q_sz}"
            )
        node.q_id = next_q
        next_q += 1
        node.pe_ids = list(range(next_pe, next_pe + pe_cost(node)))
        next_pe += pe_cost(node)

    pes: list[PeConfig] = [INACTIVE_PE] * cfg.n_pe
    qs: list[QConfig] = [INACTIVE_Q] * cfg.n_q
    routes: list[tuple[int, int]] = [(0, 0)] * cfg.n_pe
    # child q_id -> (pe, slot) its reader fields will name. In a
    # multi-machine until the wire machine's port is the named one; the or
    # machine's taps are implied by the group shape (see resolve_operands).
    primary: dict[int, tuple[int, int]] = {}

    for node in reversed(order):
        machine = node_machine(node)
        for am, pe_id in zip(machine.ams, node.pe_ids):
            slots = [am.op0] + ([am.op1] if am.op1 is not None else [])
            from_que = [False, False]
            route = [0, 0]
            for slot, operand_index in enumerate(slots):
                operand = node.operands[operand_index]
                if isinstance(operand, EmNode):
                    from_que[slot] = True
                    if operand.q_id not in primary or am.opcode == "wire":
                        primary[operand.q_id] = (pe_id, slot)
                else:
                    if operand >= cfg.n_ap:
                        raise AllocationError(
                            f"ap{operand} out of range for n_ap={cfg.n_ap}"
                        )
                    route[slot] = operand
            top = am.top_interval if am.mod_top and not is_empty(am.top_interval) else EMPTY_INTERVAL
            bot = am.bot_interval if am.mod_bot and not is_empty(am.bot_interval) else EMPTY_INTERVAL
            for name, (lo, hi) in (("top", top), ("bot", bot)):
                if (lo, hi) != EMPTY_INTERVAL and hi >= cfg.q_sz:
                    raise AllocationError(
                        f"node {node.em_index} {name} interval [{lo},{hi}] "
                        f"exceeds que size {cfg.q_sz}"
                    )
            pes[pe_id] = PeConfig(
                True, from_que[0], from_que[1], am.opcode, node.q_id, top, bot
            )
            routes[pe_id] = (route[0], route[1])

    for node in order:
        if node is root:
            qs[node.q_id] = QConfig(True, True, 0, 0, node.head)
        else:
            reader_pe, inp_no = primary[node.q_id]
            qs[node.q_id] = QConfig(True, False, reader_pe, inp_no, node.head)

    pes_t, qs_t = tuple(pes), tuple(qs)
    return MonitorProgram(cfg, pes_t, qs_t, tuple(routes), derive_latency(pes_t, qs_t))


def compile_formula(
    f: F.Formula, cfg: FabricConfig, forced_heads: dict[int, int] | None = None
) -> MonitorProgram | bool:
    """Full pipeline from a parsed formula to a monitor program.

    Returns a bool when the formula folds to a constant: there is nothing
    to program, the verdict stream is that constant.
    """
    F.validate(f)
    folded = F.constant_fold(f)
    if isinstance(folded, bool):
        return folded
    root = plan(folded)
    if forced_heads:
        force_heads(root, forced_heads)
    return allocate(root, cfg)
