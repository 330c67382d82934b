#!/usr/bin/env python3
"""Re-measure the informal baseline figures listed in ROADMAP.md.

    python3 perfbench/baseline.py

Each figure is the best of several repeats (host time) and is printed next
to the ROADMAP value with "reproduced" when it falls inside the ROADMAP
range, or within 25 % of a single ROADMAP value, and "differs" otherwise.
These are one-off numbers for reconciliation; the benchmark is run.py.
"""

from __future__ import annotations

import random
import sys
from time import perf_counter

from run import load_mtlmon
from inputs import random_rows

REPEATS = 5


def best(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return min(times)


def report(label: str, value: float, roadmap, unit: str) -> None:
    """roadmap is a (low, high) range or a single figure (taken as +-25 %)."""
    lo, hi = roadmap if isinstance(roadmap, tuple) else (roadmap * 0.75, roadmap * 1.25)
    shown = f"{roadmap[0]:g}-{roadmap[1]:g}" if isinstance(roadmap, tuple) else f"{roadmap:g}"
    verdict = "reproduced" if lo <= value <= hi else "differs"
    print(f"{label:58s} ROADMAP {shown:>6s} {unit:8s} now {value:8.3f}  {verdict}")


def step_us(M, text: str, cfg, cycles: int) -> float:
    body = M.encode_program(M.compile_formula(M.parse(text), cfg))
    events = M.make_trace(random_rows(random.Random(1), cycles, cfg.n_ap)).events
    times = []
    for _ in range(3):
        fabric = M.Fabric(cfg)
        fabric.load(body)
        t0 = perf_counter()
        for row in events:
            fabric.step(row)
        times.append(perf_counter() - t0)
    return min(times) / cycles * 1e6


def main() -> int:
    load_mtlmon()
    import mtlmon as M
    small = M.DEFAULT_CONFIG
    big = M.FabricConfig(256, 256, 16, 4096)

    fuzz_s = best(lambda: M.run_fuzz(1, 300, 4, 8), 3)
    report("run_fuzz(seed 1, 300, depth 4, t2 8)", fuzz_s, 2.6, "s")

    # 2 to 9 operator nodes on the default 16-PE fabric.
    texts = ["!(ap0 & ap1)", "F[0,3] (ap0 & !ap1)", "G[0,4] (ap0 -> F[1,3] ap1)",
             "(ap0 U[1,4] ap1) | X (ap2 & !ap3)",
             "G[0,2] (ap0 -> (ap1 U[0,3] (ap2 & X ap3))) & F[0,5] !ap1"]
    per_cycle = [step_us(M, t, small, 2000) for t in texts]
    report("Fabric.step, 16 PE / q_sz 256, min over 2-9 op nodes", min(per_cycle), (7, 34), "us/cycle")
    report("Fabric.step, 16 PE / q_sz 256, max over 2-9 op nodes", max(per_cycle), (7, 34), "us/cycle")
    wide = "G[0,2000] (ap0 -> F[0,1000] ap1)"
    report("Fabric.step, G[0,2000] (ap0 -> F[0,1000] ap1), 256/4096",
           step_us(M, wide, big, 8000), (65, 72), "us/cycle")

    for cfg, figures in ((small, (0.35, 0.29, 0.55)), (big, (13, 10, 17))):
        prog = M.compile_formula(M.parse("F[0,1] !ap1 | F[1,4] ap2"), cfg)
        body = M.encode_program(prog)
        times = (best(lambda: M.encode_program(prog)),
                 best(lambda: M.decode_program(body, cfg)),
                 best(lambda: M.Fabric(cfg).load(body)))
        for name, value, figure in zip(("encode", "decode", "load"), times, figures):
            report(f"{name} of a {len(body)}-byte body", value * 1e3, figure, "ms")

    trace = M.make_trace(random_rows(random.Random(2), 20000, 2))
    oracle_s = best(lambda: M.oracle_verdicts(M.parse(wide), trace))
    report(f"oracle_verdicts({wide}) on 20,000 steps", oracle_s * 1e3, 25, "ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
