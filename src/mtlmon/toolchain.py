"""End-to-end pipeline helpers: compile a formula, drive the fabric over a
trace, diff the emitted verdicts against the brute-force evaluation, and the
deterministic random harness built on top of that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import formula as F
from .bitstream import encode_program
from .compiler import compile_formula
from .errors import AllocationError, HardFault, TraceError
from .fabric import Fabric
from .oracle import oracle_verdicts
from .program import FabricConfig, MonitorProgram
from .trace import Trace, make_trace

DEFAULT_CONFIG = FabricConfig(n_pe=16, n_q=16, n_ap=16, q_sz=256)

# (time, fabric verdict or None if missing, reference verdict or None if
# the reference is undefined there)
Mismatch = tuple[int, bool | None, bool | None]


@dataclass
class RunReport:
    latency: int
    verdicts: list[tuple[int, bool]]
    mismatches: list[Mismatch]
    programming_cycles: int
    run_cycles: int
    constant: bool | None = None

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_program(program: MonitorProgram, trace: Trace) -> tuple[list[tuple[int, bool]], Fabric]:
    """Program a fresh fabric in one load of the body and step it over the trace."""
    fabric = Fabric(program.config)
    fabric.load(encode_program(program))
    return stream_trace(fabric, trace), fabric


def _require_width(trace: Trace, config: FabricConfig) -> None:
    """Reject a trace whose width is not the fabric's n_ap, rows or not."""
    if trace.width != config.n_ap:
        raise TraceError(f"trace width {trace.width} != n_ap {config.n_ap}")


def stream_trace(fabric: Fabric, trace: Trace) -> list[tuple[int, bool]]:
    _require_width(trace, fabric.config)
    verdicts = []
    for row in trace.events:
        emitted = fabric.step(row)
        if emitted is not None:
            verdicts.append(emitted)
    return verdicts


def diff_verdicts(
    emitted: list[tuple[int, bool]], reference: list[bool], expected_times: range
) -> list[Mismatch]:
    """Mismatches between the fabric stream and the reference.

    Flags wrong values, verdicts at unexpected times (including duplicates
    or times the reference leaves undefined), and expected times that never
    arrived. Empty result == exact agreement with one verdict per step
    after warm-up.
    """
    if expected_times == range(len(emitted)) and emitted == list(zip(expected_times, reference)):
        return []  # the common case, exact agreement, in one comparison
    mismatches: list[Mismatch] = []
    seen: dict[int, bool] = {}
    for t, v in emitted:
        ref = reference[t] if 0 <= t < len(reference) else None
        if t not in expected_times or t in seen:
            mismatches.append((t, v, ref))
        elif ref is None or v != ref:
            mismatches.append((t, v, ref))
        seen.setdefault(t, v)
    for t in expected_times:
        if t not in seen:
            mismatches.append((t, None, reference[t] if t < len(reference) else None))
    return sorted(mismatches)


def expected_emission(n_events: int, latency: int) -> range:
    """Times a warmed-up monitor emits over n events: 0 .. n - latency."""
    return range(0, max(0, n_events - latency + 1))


def _diff_program(
    verdicts: list[tuple[int, bool]], reference: list[bool], n_events: int, latency: int
) -> list[Mismatch]:
    """Mismatches of a monitor's stream over n events against the reference,
    on the schedule a monitor of this latency must emit."""
    return diff_verdicts(verdicts, reference, expected_emission(n_events, latency))


def check_formula(
    f: F.Formula | str,
    config: FabricConfig,
    trace: Trace,
    forced_heads: dict[int, int] | None = None,
) -> RunReport:
    """Compile, run, and diff against the brute-force evaluation. Compiling
    comes first, so an AP the fabric lacks is an AllocationError."""
    _require_width(trace, config)
    parsed = F.parse(f) if isinstance(f, str) else f
    compiled = compile_formula(parsed, config, forced_heads)
    reference = oracle_verdicts(parsed, trace)
    if isinstance(compiled, bool):
        times = range(len(reference))
        verdicts = [(t, compiled) for t in times]
        mism = diff_verdicts(verdicts, reference, times)
        return RunReport(0, verdicts, mism, 0, len(trace), constant=compiled)
    verdicts, fabric = run_program(compiled, trace)
    mism = _diff_program(verdicts, reference, len(trace), compiled.latency)
    return RunReport(compiled.latency, verdicts, mism, fabric.programming_cycles, len(trace))


# ---------------------------------------------------------------------------
# Deterministic random harness
# ---------------------------------------------------------------------------

# Operator draw weights: Boolean connectives 40% (split evenly), next 15%,
# box 15%, diamond 15%, until 15% (t1 = 0 for half the untils, exercising
# both of its machine realizations). The binary classes are the rows of the
# formula table; the connectives come tightest first.
_BINARY = tuple(op for _, op, _ in F.BINARY)
_OPERATORS = (
    (F.Not,) * 10 + tuple(op for op in reversed(_BINARY) if op is not F.Until for _ in range(10))
    + (F.Next,) * 15 + (F.Box,) * 15 + (F.Diamond,) * 15 + (F.Until,) * 15
)

_AP_POOL = 4  # random formulas draw their atoms from ap0 .. ap3


def random_formula(rng: random.Random, max_depth: int, max_t2: int) -> F.Formula:
    """One random formula with operator nesting depth exactly bounded by
    max_depth and a root that is always an operator. A node draws its
    class, then its interval, then its operands."""

    def gen(depth: int) -> F.Formula:
        # Subtrees may stop early so sizes vary, but never at the root.
        if depth == 0 or depth < max_depth and rng.random() < 0.25:
            return F.AP(rng.randrange(_AP_POOL))
        op = rng.choice(_OPERATORS)
        interval = ()
        if op in F.TEMPORAL:
            hi = rng.randint(0, max_t2)
            if op is not F.Until:
                interval = (rng.randint(0, hi), hi)
            else:
                interval = (rng.randint(1, hi) if hi >= 1 and rng.random() < 0.5 else 0, hi)
        return op(*[gen(depth - 1) for _ in range(1 + (op in _BINARY))], *interval)

    return gen(max_depth)


def random_fitting_formula(
    rng: random.Random, max_depth: int, max_t2: int, config: FabricConfig
) -> tuple[F.Formula, MonitorProgram]:
    """Draw formulas until one fits the fabric (PE/Q/que-size limits).

    Redraws consume the generator stream, so a fixed seed still yields a
    fixed sequence of accepted formulas. The leaves are APs, so a draw
    never folds to a constant and always compiles to a program.
    """
    for _ in range(1000):
        f = random_formula(rng, max_depth, max_t2)
        try:
            return f, compile_formula(f, config)
        except AllocationError:
            continue
    raise AllocationError(
        f"no formula of depth {max_depth} fits the fabric after 1000 draws"
    )


def random_trace(rng: random.Random, length: int, width: int) -> Trace:
    return make_trace(
        [[rng.random() < 0.5 for _ in range(width)] for _ in range(length)], width
    )


@dataclass
class FuzzSummary:
    iterations: int
    passes: int
    failures: list[str] = field(default_factory=list)
    throughput_violations: int = 0
    reprogram_divergences: int = 0
    hard_faults: int = 0

    @property
    def ok(self) -> bool:
        return self.passes == self.iterations

    def render(self) -> str:
        lines = [
            f"iterations: {self.iterations}",
            f"passes: {self.passes}",
            f"failures: {self.iterations - self.passes}",
            f"throughput violations: {self.throughput_violations}",
            f"reprogram divergences: {self.reprogram_divergences}",
            f"hard faults: {self.hard_faults}",
        ]
        lines.extend(self.failures[:20])
        return "\n".join(lines)


def _throughput_ok(verdicts: list[tuple[int, bool]], n_events: int, latency: int) -> bool:
    return [t for t, _ in verdicts] == list(expected_emission(n_events, latency))


def _run(fabric: Fabric, program: MonitorProgram, trace: Trace) -> list[tuple[int, bool]] | str:
    """Load the program and step the fabric over the trace: the verdicts, or
    the HardFault that stopped it as "hard fault at event i: message"."""
    fabric.load(encode_program(program))
    try:
        return stream_trace(fabric, trace)
    except HardFault as fault:
        return f"hard fault at event {fabric.run_cycle}: {fault}"


def run_fuzz(
    seed: int,
    count: int,
    max_depth: int,
    max_t2: int,
    config: FabricConfig = DEFAULT_CONFIG,
    trace_len: int = 64,
) -> FuzzSummary:
    """Random formulas and traces against the brute-force evaluation.

    Every iteration also reprograms the fabric mid-run with a second
    formula and requires the post-reprogram behavior to be byte-identical
    to a freshly programmed fabric. A HardFault fails its iteration and
    ends only that formula's run; the reprogram and the later iterations
    go on.
    """
    rng = random.Random(seed)
    summary = FuzzSummary(iterations=count, passes=0)
    for it in range(count):
        problems: list[str] = []
        fabric = Fabric(config)
        for reprogrammed in (False, True):
            f, program = random_fitting_formula(rng, max_depth, max_t2, config)
            trace = random_trace(rng, trace_len, config.n_ap)
            name = f"iter {it}: {F.pretty(f)}"
            if reprogrammed:
                fabric.begin_reprogram()
            verdicts = _run(fabric, program, trace)
            if reprogrammed and verdicts != _run(Fabric(config), program, trace):
                summary.reprogram_divergences += 1
                problems.append(f"{name}: reprogram differs from fresh fabric")
            if isinstance(verdicts, str):
                summary.hard_faults += 1
                problems.append(f"{name}: {verdicts}")
                continue
            mism = _diff_program(verdicts, oracle_verdicts(f, trace), trace_len, program.latency)
            if mism:
                problems.append(f"{name}: first mismatch {mism[0]}")
            if not _throughput_ok(verdicts, trace_len, program.latency):
                summary.throughput_violations += 1
                problems.append(f"{name}: broken emission schedule")

        if problems:
            summary.failures.extend(problems)
        else:
            summary.passes += 1
    return summary
