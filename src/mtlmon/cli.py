"""Command-line front end.

Subcommands:
  compile   formula -> bitstream file (prints latency and bit counts)
  run       bitstream + trace -> verdict rows on stdout
  check     formula + trace -> fabric vs brute-force diff
  fuzz      randomized equivalence run, incl. mid-run reprogramming

Exit codes: 0 ok, 2 formula parse error or bad flag, 3 allocation/fit error, 4
I/O or file-format error, 5 verdict mismatch (fuzz: an iteration failed), 6 hard
fault (a bitstream faulted; fuzz: an iteration faulted).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from . import formula as F
from .bitstream import decode_file, encode_file
from .compiler import compile_formula
from .errors import AllocationError, BitstreamError, HardFault, ParseError, TraceError
from .program import FabricConfig
from .toolchain import (
    DEFAULT_CONFIG,
    check_formula,
    run_fuzz,
    run_program,
)
from .trace import read_trace

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ALLOC = 3
EXIT_IO = 4
EXIT_MISMATCH = 5
EXIT_FAULT = 6


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--npe", type=int, default=DEFAULT_CONFIG.n_pe, help="number of PEs")
    p.add_argument("--nq", type=int, default=DEFAULT_CONFIG.n_q, help="number of ques")
    p.add_argument("--nap", type=int, default=DEFAULT_CONFIG.n_ap, help="number of APs")
    p.add_argument("--qsz", type=int, default=DEFAULT_CONFIG.q_sz, help="que depth")


def _config(args) -> FabricConfig:
    return FabricConfig(args.npe, args.nq, args.nap, args.qsz)


def _natural(text: str, limit: int | None = None) -> int:
    """argparse type: an integer in 0..limit."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {value}")
    if limit is not None and value > limit:
        raise argparse.ArgumentTypeError(f"must be at most {limit}, not {value}")
    return value


def _forced_head(text: str) -> tuple[int, int]:
    """argparse type: one --force-head entry, <node>=<head>."""
    node, _, head = text.partition("=")
    try:
        return int(node), int(head)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad entry {text!r}; want <node>=<head>") from None


def cmd_compile(args) -> int:
    config = _config(args)
    compiled = compile_formula(F.parse(args.formula), config)
    if isinstance(compiled, bool):
        print(f"constant formula: verdict always {int(compiled)}")
        return EXIT_OK
    with open(args.output, "wb") as fh:
        fh.write(encode_file(compiled))
    print(f"latency: {compiled.latency}")
    print(f"pe bits: {config.n_pe * config.pe_bits} ({config.n_pe} x {config.pe_bits})")
    print(f"q bits: {config.n_q * config.q_bits} ({config.n_q} x {config.q_bits})")
    print(f"route bits: {config.n_pe * config.route_bits} ({config.n_pe} x {config.route_bits})")
    print(f"body: {config.body_bits} bits, {config.body_bytes} bytes "
          f"({config.body_bytes} programming cycles)")
    return EXIT_OK


def cmd_run(args) -> int:
    with open(args.prog, "rb") as fh:
        program = decode_file(fh.read())
    trace = read_trace(args.trace)
    verdicts, fabric = run_program(program, trace)
    for t, v in verdicts:
        print(f"{t},{int(v)}")
    print(
        f"latency: {fabric.latency}; programming cycles: {fabric.programming_cycles}; "
        f"run cycles: {len(trace)}; verdicts: {len(verdicts)}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_check(args) -> int:
    report = check_formula(
        F.parse(args.formula), _config(args), read_trace(args.trace),
        forced_heads=dict(args.force_head or ()),
    )
    if report.constant is not None:
        print(f"constant formula: verdict always {int(report.constant)}", file=sys.stderr)
    print(
        f"latency: {report.latency}; verdicts: {len(report.verdicts)}; "
        f"mismatches: {len(report.mismatches)}",
        file=sys.stderr,
    )
    if report.mismatches:
        for t, got, want in report.mismatches[:20]:
            print(f"mismatch at time {t}: fabric={_tri(got)} oracle={_tri(want)}")
        return EXIT_MISMATCH
    return EXIT_OK


def _tri(v: bool | None) -> str:
    return "-" if v is None else str(int(v))


def cmd_fuzz(args) -> int:
    summary = run_fuzz(
        seed=args.seed,
        count=args.count,
        max_depth=args.max_depth,
        max_t2=args.max_t2,
        config=_config(args),
        trace_len=args.trace_len,
    )
    print(summary.render())
    if summary.hard_faults:
        return EXIT_FAULT
    return EXIT_OK if summary.ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtlmon",
        description="Compile bounded-MTL formulas to monitor bitstreams and "
                    "simulate the programmable fabric cycle by cycle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a formula to a bitstream file")
    p.add_argument("--formula", required=True)
    _add_config_args(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="run a bitstream over a trace")
    p.add_argument("--prog", required=True)
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check", help="compile+run and diff against brute force")
    p.add_argument("--formula", required=True)
    _add_config_args(p)
    p.add_argument("--trace", required=True)
    p.add_argument(
        "--force-head", action="append", type=_forced_head, metavar="NODE=HEAD",
        help="override the head of evaluator NODE (breadth-first index, root=1)",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fuzz", help="randomized fabric-vs-brute-force run")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=_natural, required=True)
    p.add_argument("--max-depth", type=partial(_natural, limit=F.MAX_NESTING), default=4)
    p.add_argument("--max-t2", type=_natural, default=8)
    p.add_argument("--trace-len", type=_natural, default=64)
    _add_config_args(p)
    p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:  # includes IntervalError
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AllocationError as exc:
        print(f"allocation error: {exc}", file=sys.stderr)
        return EXIT_ALLOC
    except (OSError, TraceError, BitstreamError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except HardFault as exc:
        print(f"hard fault: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
