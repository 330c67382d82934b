"""Parity sweep: what the codec and the fabric make of many seeded bodies.

Run it as ``python3 tests/sweep.py`` (it takes no flags; sizes and seeds are
fixed below). For each fabric it prints the outcome counts and a sha256 over
one outcome line per body, in two parts:

- decode: ``decode_program`` of ``conftest.random_bodies``, the program
  re-encoded with its latency, or the error class and message;
- run: ``Fabric.load`` and 30 seeded events, the verdicts, or the index of
  the event that raised (-1 at load) with the error class and message.

A change that claims to keep the bitstream contract and the fabric's
behaviour must leave the output byte-identical. pytest does not collect this
file; the pinned tests in ``test_bitstream.py`` and ``test_fabric.py`` are
smaller versions of the same two checks.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import HOSTILE_CFG, random_bodies
from mtlmon.bitstream import decode_program, encode_program
from mtlmon.fabric import Fabric
from mtlmon.program import FabricConfig
from mtlmon.toolchain import DEFAULT_CONFIG

DECODE_SEED = 1501
DECODE_FABRICS = (
    (HOSTILE_CFG, 20_000),
    (FabricConfig(8, 8, 4, 16), 20_000),
    (FabricConfig(3, 3, 2, 5), 20_000),
    (DEFAULT_CONFIG, 20_000),
    (FabricConfig(12, 10, 3, 24), 20_000),
    (FabricConfig(256, 256, 16, 4096), 1_000),
)
RUN_SEEDS = (1502, 78)
RUN_FABRICS = tuple(cfg for cfg, _ in DECODE_FABRICS[:4])
RUN_BODIES = 2_000
RUN_EVENTS = 30


def name(cfg: FabricConfig) -> str:
    return f"{cfg.n_pe}/{cfg.n_q}/{cfg.n_ap}/{cfg.q_sz}"


def decode_sweep() -> None:
    rng = random.Random(DECODE_SEED)
    for cfg, count in DECODE_FABRICS:
        digest, decoded = hashlib.sha256(), 0
        for body in random_bodies(rng, cfg, count):
            try:
                p = decode_program(body, cfg)
            except Exception as exc:  # record whatever escapes, whatever its class
                outcome = f"{type(exc).__name__}: {exc}"
            else:
                outcome = f"{encode_program(p).hex()} {p.latency}"
                decoded += 1
            digest.update(outcome.encode() + b"\n")
        print(f"decode seed {DECODE_SEED} {name(cfg)}: {count} bodies, {decoded} decoded, "
              f"{count - decoded} errors, sha256 {digest.hexdigest()}")


def run_sweep(seed: int) -> None:
    rng = random.Random(seed)
    for cfg in RUN_FABRICS:
        digest = hashlib.sha256()
        counts = [0, 0, 0]  # load errors, clean runs, mid-run faults
        for body in random_bodies(rng, cfg, RUN_BODIES):
            bits = rng.getrandbits(RUN_EVENTS * cfg.n_ap)
            events = [[bits >> (t * cfg.n_ap + k) & 1 for k in range(cfg.n_ap)]
                      for t in range(RUN_EVENTS)]
            fabric = Fabric(cfg)
            verdicts, index = [], -1
            try:
                fabric.load(body)
                for index, event in enumerate(events):
                    verdicts.append(fabric.step(event))
            except Exception as exc:  # record whatever escapes, whatever its class
                outcome = f"{index} {type(exc).__name__}: {exc}"
                counts[0 if index < 0 else 2] += 1
            else:
                outcome = repr(verdicts)
                counts[1] += 1
            digest.update(outcome.encode() + b"\n")
        print(f"run seed {seed} {name(cfg)}: {RUN_BODIES} bodies, {counts[0]} load errors, "
              f"{counts[1]} clean runs, {counts[2]} faults, sha256 {digest.hexdigest()}")


def main() -> None:
    decode_sweep()
    for seed in RUN_SEEDS:
        run_sweep(seed)


if __name__ == "__main__":
    main()
