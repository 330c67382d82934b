"""Check ``machine.que_peek`` on the running interpreter, without pytest.

Run it as ``PYTHONPATH=src python tests/peek_check.py`` (it takes no flags;
the seed and sizes are fixed below). ``que_peek`` reads a suspended
``que_run`` generator's frame locals, and how a frame exposes its locals
differs between Python versions (PEP 667 changed it in 3.13), so this
script runs on every interpreter the package supports, stdlib only.

It drives 3,000 seeded offer streams (heads 1-12, offers that settle every
cell, leave cells Maybe, gap or clash) and peeks after every ``send``. Each
peek must equal the triple a one-phase reference rule computes, and a que
restarted from the peek must delete the same value and peek alike after the
next offer, or raise the same fault. It prints the outcome counts and
``mismatches 0``, and exits 1 on any mismatch. pytest does not collect this
file; ``test_machine.py`` holds the same checks in smaller form.
"""

from __future__ import annotations

import collections
import random
import sys

from mtlmon.errors import HardFault
from mtlmon.machine import QueState, interval_mask, que_offer, que_peek, que_run

STREAMS = 3000
SEED = 27


def reference_cycle(head, que, bot, top):
    """One cycle of the que rule in one phase: the (que, deleted) after it."""
    occ, unknown, value = que
    cell = 1 << head
    unknown = unknown << 1 | 1
    clash = top & bot & unknown
    if clash:
        raise HardFault(f"top and bot offers both settle cell {(clash & -clash).bit_length() - 1}")
    value = value << 1 | top & unknown
    unknown &= ~(top | bot)
    if occ < head:
        return (occ + 1, unknown, value), None
    if unknown & cell:
        raise HardFault(f"deleted unresolved cell at head {head}: misprogrammed head")
    return (head, unknown, value & ~cell), value >= cell


def random_offer(rng, head):
    full = (1 << head + 1) - 1
    kind = rng.random()
    if kind < 0.75:  # settle every cell, some true and the rest false
        split = rng.randint(0, head + 1)
        return full - (1 << split) + 1, (1 << split) - 1
    if kind < 0.9:  # one run above cell 0, or none: cells stay Maybe
        return 0, interval_mask((rng.randint(1, head + 1), head))
    return rng.getrandbits(head + 1), rng.getrandbits(head + 1)  # gaps, clashes


def outcome(run, offer):
    try:
        return run.send(offer)
    except HardFault as fault:
        return str(fault)


def main() -> int:
    rng = random.Random(SEED)
    seen = collections.Counter()
    mismatches = 0
    for _ in range(STREAMS):
        head = rng.randint(1, 12)
        que = (0, 0, 0)
        run = que_run(head)
        next(run)
        for _ in range(rng.randint(1, 4 * head)):
            peek = que_peek(run)
            restarted = que_run(head, (peek.occupancy, peek.unknown, peek.value))
            next(restarted)
            bot, top = random_offer(rng, head)
            offer = que_offer(bot, top)
            try:
                que_after, expected = reference_cycle(head, que, bot, top)
            except HardFault as fault:
                que_after, expected = None, str(fault)
            got = outcome(run, offer), outcome(restarted, offer)
            ok = peek == QueState(*que) and got == (expected, expected)
            if ok and que_after is not None:
                ok = que_peek(run) == que_peek(restarted) == QueState(*que_after)
            if not ok:
                mismatches += 1
                print(f"mismatch: head {head} que {que} offer {(bot, top)} got {got}")
                break
            seen[expected if que_after is not None else expected.split(" cell")[0]] += 1
            if que_after is None:
                break
            que = que_after
    for key, count in sorted(seen.items(), key=str):
        print(f"{key!s:32} {count}")
    print(f"python {sys.version.split()[0]} streams {STREAMS} mismatches {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
