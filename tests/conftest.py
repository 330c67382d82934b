import dataclasses
import random

from hypothesis import strategies as st

from mtlmon import formula as F
from mtlmon.bitstream import encode_program
from mtlmon.compiler import compile_formula
from mtlmon.errors import AllocationError
from mtlmon.program import FabricConfig, MonitorProgram, PeConfig, QConfig

MAX_T2 = 6

# n_q = 6 is not a power of two, so the 3-bit que-id fields can name ques
# the fabric does not have.
HOSTILE_CFG = FabricConfig(5, 6, 3, 12)

# Programs whose bodies, with a few bits flipped, seed the hostile-body corpus.
SEED_FORMULAS = (
    "!ap0", "ap0 & ap1", "X X ap1", "ap0 U[0,2] ap1", "ap1 U[1,3] !ap0",
    "F[0,1] !ap1 | F[1,4] ap0", "G[0,3] (ap0 -> X ap1)",
)


def random_bodies(rng: random.Random, cfg: FabricConfig, count: int):
    """Seeded bodies for cfg, in turn: uniform random bytes, sparse random
    bits (most records inactive), and compiled bodies with 1-3 bits flipped.
    Half of the random ones get their padding cleared, so they reach the
    record checks behind it."""
    seeds = []
    for text in SEED_FORMULAS:
        try:
            seeds.append(encode_program(compile_formula(F.parse(text), cfg)))
        except AllocationError:
            pass
    pad = cfg.body_bytes * 8 - cfg.body_bits
    for i in range(count):
        if i % 3 == 2:
            body = bytearray(rng.choice(seeds))
            for _ in range(rng.randint(1, 3)):
                bit = rng.randrange(cfg.body_bits)
                body[bit // 8] ^= 0x80 >> (bit % 8)
        else:
            p = 0.5 if i % 3 == 0 else 0.04
            body = bytearray(
                sum((rng.random() < p) << b for b in range(8)) for _ in range(cfg.body_bytes)
            )
            if pad and rng.random() < 0.5:
                body[-1] &= 0xFF << pad & 0xFF
        yield bytes(body)


def interval_strategy():
    return st.tuples(st.integers(0, MAX_T2), st.integers(0, MAX_T2)).map(
        lambda ab: (min(ab), max(ab))
    )


def formulas(max_aps: int = 4) -> st.SearchStrategy:
    """Random well-formed formulas, including constants."""
    atoms = st.one_of(
        st.builds(F.AP, st.integers(0, max_aps - 1)),
        st.just(F.TrueConst()),
    )

    def extend(children):
        iv = interval_strategy()
        return st.one_of(
            st.builds(F.Not, children),
            st.builds(F.Next, children),
            st.builds(F.And, children, children),
            st.builds(F.Or, children, children),
            st.builds(F.Implies, children, children),
            st.tuples(children, iv).map(lambda t: F.Box(t[0], *t[1])),
            st.tuples(children, iv).map(lambda t: F.Diamond(t[0], *t[1])),
            st.tuples(children, children, iv).map(
                lambda t: F.Until(t[0], t[1], *t[2])
            ),
        )

    return st.recursive(atoms, extend, max_leaves=8)


def random_mixed_formula(rng: random.Random, depth: int, max_t2: int = 4,
                         true_prob: float = 0.2) -> F.Formula:
    """Seeded-random formula with occasional constant leaves, for the
    folding property runs that need an exact iteration count."""
    from mtlmon.toolchain import random_formula

    f = random_formula(rng, depth, max_t2)

    def sprinkle(node: F.Formula) -> F.Formula:
        if isinstance(node, F.AP):
            return F.TrueConst() if rng.random() < true_prob else node
        kids = F.children(node)
        if not kids:
            return node
        if isinstance(node, (F.Not, F.Next)):
            return type(node)(sprinkle(kids[0]))
        if isinstance(node, (F.Box, F.Diamond)):
            return type(node)(sprinkle(kids[0]), node.lo, node.hi)
        if isinstance(node, F.Until):
            return F.Until(sprinkle(kids[0]), sprinkle(kids[1]), node.lo, node.hi)
        return type(node)(sprinkle(kids[0]), sprinkle(kids[1]))

    return sprinkle(f)


def second_verdict_body() -> bytes:
    """The body of !ap0 on HOSTILE_CFG with que 1 also marked active and verdict."""
    cfg = HOSTILE_CFG
    body = bytearray(encode_program(compile_formula(F.parse("!ap0"), cfg)))
    q1 = cfg.n_pe * cfg.pe_bits + cfg.q_bits  # first bit of que record 1
    for bit in (q1, q1 + 1):  # isActive, isVerdict
        body[bit // 8] |= 0x80 >> (bit % 8)
    return bytes(body)


def stray_writer_body() -> bytes:
    """The body of !ap0 on HOSTILE_CFG with PE0 writing que 7 (n_q is 6)."""
    program = compile_formula(F.parse("!ap0"), HOSTILE_CFG)
    pes = (program.pes[0]._replace(r_qid=7),) + program.pes[1:]
    return encode_program(dataclasses.replace(program, pes=pes))


def faulting_body() -> bytes:
    """The body of G[0,4] ap0 on HOSTILE_CFG with its verdict que's head
    lowered to 0: it loads, then deletes an unresolved cell on the first
    event with ap0 set."""
    program = compile_formula(F.parse("G[0,4] ap0"), HOSTILE_CFG)
    vq = next(qid for qid, q in enumerate(program.qs) if q.is_active and q.is_verdict)
    qs = list(program.qs)
    qs[vq] = qs[vq]._replace(head=0)
    return encode_program(dataclasses.replace(program, qs=tuple(qs)))


def gap_body() -> bytes:
    """The body of ap0 U[2,4] ap1 on HOSTILE_CFG with PE0's bottom interval
    cut to (0, 0): it loads, then its bottom offers leave cell 1 uncovered
    on the first event with ap0 and ap1 both clear."""
    program = compile_formula(F.parse("ap0 U[2,4] ap1"), HOSTILE_CFG)
    pes = (program.pes[0]._replace(bot_interval=(0, 0)),) + program.pes[1:]
    return encode_program(dataclasses.replace(program, pes=pes))


def two_faults_body() -> bytes:
    """The body of G[0,4] ap0 & G[0,4] ap1 on HOSTILE_CFG with both child
    heads lowered to 0 and their ques swapped, so that PE0 writes Q1 and PE1
    writes Q0: it loads, then both child ques delete an unresolved cell on
    the first event with ap0 and ap1 set."""
    program = compile_formula(F.parse("G[0,4] ap0 & G[0,4] ap1"), HOSTILE_CFG)
    q0, q1 = (q._replace(head=0) for q in program.qs[:2])
    p0, p1 = program.pes[:2]
    pes = (p0._replace(r_qid=p1.r_qid), p1._replace(r_qid=p0.r_qid))
    return encode_program(dataclasses.replace(
        program, pes=pes + program.pes[2:], qs=(q1, q0) + program.qs[2:]))


def wire_chain_program(stages: int) -> MonitorProgram:
    """ap0 through ``stages`` chained wire stages on
    FabricConfig(stages, stages, 1, 4): PE i writes Q i, each que has head 1
    and feeds PE i+1, and the last que is the verdict. Each stage delays ap0
    by two cycles, so the latency is 2 * stages and the verdict is ap0."""
    cfg = FabricConfig(stages, stages, 1, 4)
    pes = tuple(PeConfig(True, i > 0, False, "wire", i, (0, 0), (0, 0)) for i in range(stages))
    qs = tuple(QConfig(True, i == stages - 1, (i + 1) % stages, 0, 1) for i in range(stages))
    return MonitorProgram(cfg, pes, qs, ((0, 0),) * stages, 2 * stages)
