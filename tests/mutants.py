"""Mutation check of ``machine``'s two rules (the offer rule and the que
rule), of ``formula``'s table of binary operators, and of the passes that
unpack PE and que records by position: the bitstream codec, the latency
derivation and the fabric's latch checks.

Run it as ``python3 tests/mutants.py`` from the repository root (it takes no
flags). It copies ``src``, ``tests`` and ``pyproject.toml`` to a temporary
directory, then for each mutant below replaces one exact piece of source
text there, runs ``pytest -x -q`` over the test modules that the mutant's
target names, and restores the file. It prints one line per mutant: killed,
survived, or equivalent with the reason it cannot be killed (those are not
run). It exits 1 if any mutant survives, or if a mutant's text no longer
occurs exactly once in its file.

A survivor is mended by adding a test that kills it, never by dropping the
mutant from the list (DeMillo, Lipton and Sayward, "Hints on Test Data
Selection", IEEE Computer 1978). pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A target: the mutated file and the test modules its mutants run against.
MACHINE = ("src/mtlmon/machine.py",
           ("tests/test_machine.py", "tests/test_fabric.py", "tests/test_acceptance.py"))
FORMULA = ("src/mtlmon/formula.py", ("tests/test_formula.py",))
BITSTREAM = ("src/mtlmon/bitstream.py", ("tests/test_bitstream.py",))
PROGRAM = ("src/mtlmon/program.py", ("tests/test_bitstream.py", "tests/test_fabric.py"))
FABRIC = ("src/mtlmon/fabric.py", ("tests/test_fabric.py",))

# (target, exact source text, replacement, None or the reason it is equivalent)
MUTANTS = [
    # que_run: the start and the warm-up phase
    (MACHINE, "    occ, unknown, value = que\n", "    occ, value, unknown = que\n", None),
    (MACHINE, "    cell = 1 << head\n", "    cell = 1 << head + 1\n", None),
    (MACHINE, "    cell = 1 << head\n    deleted = None\n", "    cell = 1 << head\n    deleted = False\n",
     "the value yielded to the priming next() is discarded by every caller"),
    (MACHINE, "    while occ < head:\n", "    while occ <= head:\n", None),
    (MACHINE, "        occ += 1\n", "        occ += 2\n", None),
    (MACHINE, "        occ += 1\n        unknown = unknown << 1 | 1\n",
     "        occ += 1\n        unknown = unknown << 1\n", None),
    (MACHINE, "        occ += 1\n        unknown = unknown << 1 | 1\n        if both & unknown:\n",
     "        occ += 1\n        unknown = unknown << 1 | 1\n        if both:\n", None),
    (MACHINE, "            raise _clash(both & unknown)\n        value = value << 1 | top & unknown\n"
     "        unknown &= rest\n        deleted = None\n",
     "            raise _clash(both)\n        value = value << 1 | top & unknown\n"
     "        unknown &= rest\n        deleted = None\n", None),
    (MACHINE, "        value = value << 1 | top & unknown\n        unknown &= rest\n        deleted = None\n",
     "        value = value << 1 | top\n        unknown &= rest\n        deleted = None\n", None),
    (MACHINE, "        unknown &= rest\n        deleted = None\n",
     "        deleted = None\n", None),
    (MACHINE, "        unknown &= rest\n        deleted = None\n",
     "        unknown &= rest\n        deleted = False\n", None),
    # que_run: the full phase
    (MACHINE, "    keep = cell - 1\n", "    keep = cell\n", None),
    (MACHINE, "        top, both, rest = yield deleted\n        unknown = unknown << 1 | 1\n",
     "        top, both, rest = yield deleted\n        unknown = unknown << 1\n", None),
    (MACHINE, "        unknown = unknown << 1 | 1\n        if both & unknown:\n            raise _clash(both & unknown)\n"
     "        value = value << 1 | top & unknown\n        unknown &= rest\n        if",
     "        unknown = unknown << 1 | 1\n        if both & unknown:\n            raise _clash(both)\n"
     "        value = value << 1 | top & unknown\n        unknown &= rest\n        if", None),
    (MACHINE, "        value = value << 1 | top & unknown\n        unknown &= rest\n        if unknown & cell:\n",
     "        value = value << 1 | top\n        unknown &= rest\n        if unknown & cell:\n", None),
    (MACHINE, "        unknown &= rest\n        if unknown & cell:\n", "        if unknown & cell:\n", None),
    (MACHINE, "        if unknown & cell:\n", "        if unknown & keep:\n", None),
    (MACHINE, "        deleted = value >= cell\n", "        deleted = value > cell\n", None),
    (MACHINE, "        value &= keep\n", "", None),
    # que_peek
    (MACHINE, 'QueState(local["occ"], local["unknown"], local["value"])',
     'QueState(local["occ"], local["value"], local["unknown"])', None),
    (MACHINE, 'QueState(local["occ"], local["unknown"], local["value"])',
     'QueState(local["head"], local["unknown"], local["value"])', None),
    # group_offer (the first two are the scratch mutants its reference test killed)
    (MACHINE, "        offer[res] |= masks[res]\n", "        offer[not res] |= masks[res]\n", None),
    (MACHINE, "        if v0 is None or v1 is None:\n", "        if v1 is None:\n", None),
    (MACHINE, "        res = table[bool(v0) + 2 * bool(v1)]\n", "        res = table[2 * bool(v0) + bool(v1)]\n", None),
    (MACHINE, "        res = table[bool(v0) + 2 * bool(v1)]\n", "        res = table[v0 + 2 * v1]\n", None),
    (MACHINE, "    if offer is None:\n        return None\n    check_offers(*offer)\n",
     "    if offer is None:\n        return que_offer(0, 0)\n    check_offers(*offer)\n", None),
    (MACHINE, "    check_offers(*offer)\n    return que_offer(*offer)\n", "    return que_offer(*offer)\n", None),
    (MACHINE, "    return que_offer(*offer)\n", "    return que_offer(*offer[::-1])\n", None),
    # check_offers
    (MACHINE, "    if top & (top + (top & -top)) or bot & (bot + (bot & -bot)):\n",
     "    if top & (top + (top & -top)):\n", None),
    (MACHINE, "            carry = mask + (mask & -mask)", "            carry = mask + 1", None),
    (MACHINE, "            if mask & carry:\n", "            if carry:\n", None),
    (MACHINE, "                gap = (carry & -carry).bit_length() - 1\n",
     "                gap = (carry & -carry).bit_length()\n", None),
    (MACHINE, '        for mask, polarity in ((top, "top"), (bot, "bot")):\n',
     '        for mask, polarity in ((bot, "bot"), (top, "top")):\n', None),
    # que_offer
    (MACHINE, "    return top, top & bot, ~(top | bot)\n", "    return top, top & bot, ~top\n", None),
    (MACHINE, "    return top, top & bot, ~(top | bot)\n", "    return top, top | bot, ~(top | bot)\n", None),
    (MACHINE, "    return top, top & bot, ~(top | bot)\n", "    return bot, top & bot, ~(top | bot)\n", None),
    # interval_mask
    (MACHINE, "    return 0 if is_empty(interval) else (1 << (hi + 1)) - (1 << lo)\n",
     "    return 0 if is_empty(interval) else (1 << hi) - (1 << lo)\n", None),
    (MACHINE, "    return 0 if is_empty(interval) else (1 << (hi + 1)) - (1 << lo)\n",
     "    return (1 << (hi + 1)) - (1 << lo)\n", None),
    # formula: the table of binary operators, its grouping flags and row order
    (FORMULA, '("->", Implies, True)', '("->", Implies, False)', None),
    (FORMULA, '("|", Or, False)', '("|", Or, True)', None),
    (FORMULA, '("&", And, False)', '("&", And, True)', None),
    (FORMULA, '("U", Until, True)', '("U", Until, False)', None),
    (FORMULA, '("->", Implies, True), ("|", Or, False)', '("|", Or, False), ("->", Implies, True)', None),
    (FORMULA, '("|", Or, False), ("&", And, False)', '("&", And, False), ("|", Or, False)', None),
    (FORMULA, '("&", And, False), ("U", Until, True)', '("U", Until, True), ("&", And, False)', None),
    (FORMULA, "_LAST = len(BINARY) - 1\n", "_LAST = len(BINARY) - 2\n", None),
    (FORMULA, "_LAST = len(BINARY) - 1\n", "_LAST = len(BINARY)\n", None),
    (FORMULA, "_UNARY_PREC = len(BINARY) + 1\n", "_UNARY_PREC = len(BINARY)\n", None),
    # formula: the printer
    (FORMULA, "    lp = prec + 1 if right else prec\n", "    lp = prec if right else prec\n", None),
    (FORMULA, "    rp = prec if right else prec + 1\n", "    rp = prec if right else prec\n", None),
    (FORMULA, "    if prec < parent_prec:\n", "    if prec <= parent_prec:\n", None),
    # formula: the chain parser
    (FORMULA, "        if self.tokens[self.i][1] != token:\n            return f",
     "        if self.tokens[self.i][0] != token:\n            return f", None),
    (FORMULA, "        if self.tokens[self.i][1] != token:\n            return f  "
     "# most operands are not chains; return before the loop\n", "",
     "the loop's own test is the same, so without it only speed changes"),
    (FORMULA, "        while self.tokens[self.i][1] == token:\n",
     "        while self.tokens[self.i][0] == token:\n", None),
    (FORMULA, "            interval = self.interval() if op is Until else ()\n",
     "            interval = ()\n", None),
    (FORMULA, "                f = op(f, g, *interval)\n", "                f = op(g, f, *interval)\n", None),
    (FORMULA, "        for left, interval in reversed(lefts):\n",
     "        for left, interval in lefts:\n", None),
    # bitstream: the encoder's and the decoder's unpacking, and the padding check
    (BITSTREAM, "    active, src0, src1, opcode, r_qid, (top_lo, top_hi), (bot_lo, bot_hi) = pe\n",
     "    active, src1, src0, opcode, r_qid, (top_lo, top_hi), (bot_lo, bot_hi) = pe\n", None),
    (BITSTREAM, "    active, src0, src1, opcode, r_qid, (top_lo, top_hi), (bot_lo, bot_hi) = pe\n",
     "    active, src0, src1, opcode, r_qid, (bot_lo, bot_hi), (top_lo, top_hi) = pe\n", None),
    (BITSTREAM, "    active, src0, src1, opcode, r_qid, (top_lo, top_hi), (bot_lo, bot_hi) = pe\n",
     "    active, src0, src1, opcode, r_qid, (top_hi, top_lo), (bot_lo, bot_hi) = pe\n", None),
    (BITSTREAM, "    active, src0, src1, opcode, r_qid, (top_lo, top_hi), (bot_lo, bot_hi) = pe\n",
     "    active, src0, src1, opcode, r_qid, (top_lo, top_hi), (bot_hi, bot_lo) = pe\n", None),
    (BITSTREAM, "    active, src0, src1, opcode, r_qid, top_lo, top_hi, bot_lo, bot_hi = v\n",
     "    active, src1, src0, opcode, r_qid, top_lo, top_hi, bot_lo, bot_hi = v\n", None),
    (BITSTREAM, "    active, src0, src1, opcode, r_qid, top_lo, top_hi, bot_lo, bot_hi = v\n",
     "    active, src0, src1, opcode, r_qid, bot_lo, bot_hi, top_lo, top_hi = v\n", None),
    (BITSTREAM, "    active, src0, src1, opcode, r_qid, top_lo, top_hi, bot_lo, bot_hi = v\n",
     "    active, src0, src1, opcode, r_qid, top_hi, top_lo, bot_lo, bot_hi = v\n", None),
    (BITSTREAM, "    active, src0, src1, opcode, r_qid, top_lo, top_hi, bot_lo, bot_hi = v\n",
     "    active, src0, src1, opcode, r_qid, top_lo, top_hi, bot_hi, bot_lo = v\n", None),
    (BITSTREAM, "    active, verdict, reader_pe, inp_no, head = v\n",
     "    verdict, active, reader_pe, inp_no, head = v\n", None),
    (BITSTREAM, "    active, verdict, reader_pe, inp_no, head = v\n",
     "    active, verdict, inp_no, reader_pe, head = v\n", None),
    (BITSTREAM, '    if "1" in bits[pos:]:\n', '    if "1" in bits[pos + 1:]:\n', None),
    (BITSTREAM, '    if "1" in bits[pos:]:\n        raise BitstreamError("nonzero padding bits")\n', "", None),
    # program.derive_latency
    (PROGRAM, "        _, src0, src1, opcode, r_qid, _, _ = pes[pid]\n        if src0:\n",
     "        _, src1, src0, opcode, r_qid, _, _ = pes[pid]\n        if src0:\n", None),
    (PROGRAM, "        if src1 and OPCODE_ARITY[opcode] == 2:\n", "        if src1:\n", None),
    (PROGRAM, "        depth = above + qs[qid].head + 1\n", "        depth = above + qs[qid].head\n", None),
    # fabric._latch: its unpacking and each of its >= bounds
    (FABRIC, "            _, src0, src1, opcode, r_qid, top, bot = pes[pid]\n",
     "            _, src1, src0, opcode, r_qid, top, bot = pes[pid]\n", None),
    (FABRIC, "            _, src0, src1, opcode, r_qid, top, bot = pes[pid]\n",
     "            _, src0, src1, opcode, r_qid, bot, top = pes[pid]\n", None),
    (FABRIC, '            for name, (lo, hi) in (("top", top), ("bot", bot)):\n',
     '            for name, (hi, lo) in (("top", top), ("bot", bot)):\n', None),
    (FABRIC, "            _, is_verdict, pid, slot, head = qs[qid]\n",
     "            is_verdict, _, pid, slot, head = qs[qid]\n", None),
    (FABRIC, "            _, is_verdict, pid, slot, head = qs[qid]\n",
     "            _, is_verdict, slot, pid, head = qs[qid]\n", None),
    (FABRIC, "            if r_qid >= cfg.n_q:\n", "            if r_qid > cfg.n_q:\n", None),
    (FABRIC, "                if lo <= hi and hi >= cfg.q_sz:\n",
     "                if lo <= hi and hi > cfg.q_sz:\n", None),
    (FABRIC, "            if head >= cfg.q_sz:\n", "            if head > cfg.q_sz:\n", None),
    (FABRIC, "                if ap >= n_ap:\n", "                if ap > n_ap:\n", None),
]


def describe(old: str, new: str) -> str:
    """The first line the mutant changes, before and after."""
    olds, news = old.splitlines(), new.splitlines()
    for i, line in enumerate(olds):
        if i >= len(news) or news[i] != line:
            after = "(deleted)" if len(news) < len(olds) else news[i].strip()
            return f"{line.strip()!r} -> {after!r}"
    return "(no change)"


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        pytest = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        every_test = sorted({test for (_, tests), *_ in MUTANTS for test in tests})
        # The copy must be what the tests import, and it must pass unmutated.
        where = subprocess.run([sys.executable, "-c", "import mtlmon; print(mtlmon.__file__)"],
                               cwd=tree, env=env, capture_output=True, text=True).stdout
        if not Path(where.strip()).resolve().is_relative_to(tree.resolve()):
            print(f"the tests import mtlmon from {where.strip()!r}, not the copy")
            return 1
        if subprocess.run(pytest + every_test, cwd=tree, env=env, capture_output=True).returncode:
            print("the tests fail without a mutant")
            return 1
        for number, ((name, tests), old, new, equivalent) in enumerate(MUTANTS, 1):
            path = tree / name
            source = path.read_text()
            label = f"{number:2} {name}: {describe(old, new)}"
            if source.count(old) != 1:
                print(f"{label} STALE: the text occurs {source.count(old)} times")
                bad += 1
                continue
            if equivalent:
                print(f"{label} equivalent: {equivalent}")
                continue
            path.write_text(source.replace(old, new))
            try:
                start = time.perf_counter()
                run = subprocess.run(pytest + list(tests), cwd=tree, env=env,
                                     capture_output=True, text=True)
                took = time.perf_counter() - start
            finally:
                path.write_text(source)
            if run.returncode == 0:
                print(f"{label} SURVIVED ({took:.1f} s)")
                bad += 1
            else:
                print(f"{label} killed ({took:.1f} s)")
    print(f"{len(MUTANTS)} mutants, {bad} survived or stale")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
