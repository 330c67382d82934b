#!/usr/bin/env python3
"""The mtlmon benchmark: seeded, single-process, closed-loop workloads.

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py                  # every workload, seed 1, 45 s each

A job takes one formula from text to verdicts diffed against the
brute-force oracle. Each run makes its inputs from --seed, sets up (fresh
import of src/mtlmon, input generation, one warm-up job), then runs whole
passes over the inputs, each job after the previous one has finished, until
--seconds have passed. After every pass it sets up again, so that set-up is
sampled across the run like the jobs, and runs each input's ready path
(text to a latched fabric) alone a few more times. Each timed part of an
input's job is taken at its fastest run. With --trace 0 it prints the
end-to-end metrics; with --trace 1 it runs every job untraced and then
traced, back to back, and prints the per-layer metrics. The last line of standard output is one JSON object. The
exit code is 1 when a job failed its correctness gate and 2 when the
library cannot be found. See
perfbench/README.md for the workloads, metrics and their mapping.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from inputs import fitting_formula, random_rows
from layers import LAYERS, Tracer, instrument, step_cost, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("formula", "compiler", "bitstream", "program", "fabric", "oracle",
           "toolchain", "trace")
WORKLOADS = ("fuzz", "stream", "reprogram")
WIDTHS = (1, 16, 256, 2000)
SMALL_PE = 8  # active PEs at or below this are the pe_small bucket

BIG = (256, 256, 16, 4096)  # n_pe, n_q, n_ap, q_sz: a 2,976-byte body
FUZZ_CFG = (16, 16, 16, 256)  # the library's default fabric, 130 bytes
FUZZ_JOBS, REPROGRAM_JOBS = 200, 48
REPROGRAM_PES = (8, 24)  # active PEs of a reprogrammed formula
REPROGRAM_LATENCY = 160  # at most, so that a burst stays short
REPROGRAM_BURST = 128  # verdicts checked per reprogrammed formula
CHUNK = 8  # events per separately timed piece of a step burst


class JobFailure(Exception):
    pass


def load_mtlmon() -> SimpleNamespace:
    """Import the library afresh from this checkout's src/ directory."""
    if not (SRC / "mtlmon" / "__init__.py").is_file():
        raise FileNotFoundError(f"no mtlmon package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "mtlmon" or n.startswith("mtlmon.")]:
        del sys.modules[name]
    package = importlib.import_module("mtlmon")
    if Path(package.__file__).resolve().parent != SRC / "mtlmon":
        raise FileNotFoundError(f"mtlmon imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"mtlmon.{m}") for m in MODULES})


# ---------------------------------------------------------------------------
# Inputs. Jobs receive formula text and trace rows only.
# ---------------------------------------------------------------------------

def _small_monitor(w: int, a: int, b: int) -> str:
    return f"G[0,{w}] (ap{a} -> F[0,{w // 2}] ap{b})"


# Seven more subterms (29 PEs) that lift a small monitor to ~33 active PEs.
_LARGE_REST = (
    "({0} U[1,3] {1})", "G[0,4] ({2} | !{3})", "F[2,6] ({4} & {5})",
    "(X {6} -> F[0,2] {7})", "({8} U[0,5] !{9})", "G[1,3] ({10} -> X {11})",
    "F[0,8] ({12} | {13})",
)


def fuzz_inputs(rng: random.Random, smoke: bool) -> list:
    n_pe, n_q, n_ap, _ = FUZZ_CFG
    jobs = []
    for _ in range(6 if smoke else FUZZ_JOBS):
        pair = []
        for _ in range(2):
            pair.append(fitting_formula(rng, 4, 8, 4, (1, n_pe), n_q))
            pair.append(random_rows(rng, 64, n_ap))
        jobs.append(tuple(pair))
    return jobs


def stream_inputs(rng: random.Random, smoke: bool) -> list:
    jobs = []
    for w in WIDTHS:
        for large in (False, True):
            aps = rng.sample(range(BIG[2]), BIG[2])
            text = _small_monitor(w, aps[0], aps[1])
            if large:
                rest = [f"ap{k}" for k in aps[2:]]
                text = " & ".join([text] + [t.format(*rest) for t in _LARGE_REST])
            # Latency is about 1.5 w + 6 (+14 large), so a full trace is
            # at least four latencies long; the smoke trace just passes it.
            length = 8 * w // 5 + 64 if smoke else max(2048, 6 * w) + rng.randrange(32)
            jobs.append((text, random_rows(rng, length, BIG[2]), w))
    return jobs


def reprogram_inputs(rng: random.Random, smoke: bool) -> list:
    _, n_q, n_ap, _ = BIG
    jobs = []
    for _ in range(4 if smoke else REPROGRAM_JOBS):
        depth = rng.choice((6, 7, 8))
        text = fitting_formula(rng, depth, 64, n_ap, REPROGRAM_PES, n_q, REPROGRAM_LATENCY)
        # The job steps latency + REPROGRAM_BURST - 1 of these rows.
        jobs.append((text, random_rows(rng, REPROGRAM_LATENCY + REPROGRAM_BURST, n_ap)))
    return jobs


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def ready(lib, fabric, text: str, out: SimpleNamespace):
    """Formula text to a latched fabric; the reprogramming latency. Timed in
    two parts: text to bytes, and loading the bytes."""
    t0 = perf_counter()
    f = lib.formula.parse(text)
    prog = lib.compiler.compile_formula(f, fabric.config)
    if isinstance(prog, bool):
        raise JobFailure(f"{text} folded to a constant")
    body = lib.bitstream.encode_program(prog)
    t1 = perf_counter()
    fabric.begin_reprogram()
    fabric.load(body)
    out.ready.append((t1 - t0, perf_counter() - t1))
    if fabric.program != prog:
        raise JobFailure(f"{text}: decode_program(encode_program(p)) != p")
    out.bodies.append(body)
    return f, prog, body


def burst(fabric, events, tr, out, tag: str = "") -> list:
    """Step the fabric over every event: one span for the whole burst, one
    timed piece per CHUNK events."""
    span = tr.open("fabric.step", len(events), tag) if tr else None
    try:
        step = fabric.step
        verdicts = []
        for start in range(0, len(events), CHUNK):
            t0 = perf_counter()
            for row in events[start:start + CHUNK]:
                emitted = step(row)
                if emitted is not None:
                    verdicts.append(emitted)
            out.pieces.append(perf_counter() - t0)
    finally:
        if tr:
            tr.close(span)
    out.run_cycles += len(events)
    out.idle_cycles += len(events) - len(verdicts)
    return verdicts


def checked_run(lib, fabric, f, prog, rows, tr, out, tag: str = ""):
    """Run a trace and diff it against the oracle and the emission schedule."""
    trace = lib.trace.make_trace(rows)
    verdicts = burst(fabric, trace.events, tr, out, tag)
    t0 = perf_counter()
    expected = lib.toolchain.expected_emission(len(trace), prog.latency)
    mismatches = lib.toolchain.diff_verdicts(
        verdicts, lib.oracle.oracle_verdicts(f, trace), expected)
    out.pieces.append(perf_counter() - t0)
    if mismatches:
        raise JobFailure(f"{lib.formula.pretty(f)}: first mismatch {mismatches[0]}")
    if [t for t, _ in verdicts] != list(expected):
        raise JobFailure(f"{lib.formula.pretty(f)}: broken emission schedule")
    out.streams.append(verdicts)
    out.events += len(verdicts)
    return trace, verdicts


def fuzz_job(lib, state, job, tr, out) -> None:
    """Acceptance criterion 7's shape: run, reprogram mid-run, compare the
    second formula with a fresh fabric and with the oracle."""
    text1, rows1, text2, rows2 = job
    fabric = lib.fabric.Fabric(state.cfg)
    f1, p1, _ = ready(lib, fabric, text1, out)
    checked_run(lib, fabric, f1, p1, rows1, tr, out)
    f2, p2, body2 = ready(lib, fabric, text2, out)
    trace2, after = checked_run(lib, fabric, f2, p2, rows2, tr, out)
    fresh = lib.fabric.Fabric(state.cfg)
    fresh.load(body2)
    if burst(fresh, trace2.events, tr, out) != after:
        raise JobFailure(f"{text2}: reprogrammed fabric differs from a fresh one")
    out.sim_cycles += fabric.total_cycles + fresh.total_cycles


def stream_job(lib, state, job, tr, out) -> None:
    text, rows, width = job
    fabric = lib.fabric.Fabric(state.cfg)
    f, prog, _ = ready(lib, fabric, text, out)
    active = sum(pe.is_active for pe in prog.pes)
    tag = f"w{width}.pe_{'small' if active <= SMALL_PE else 'large'}"
    checked_run(lib, fabric, f, prog, rows, tr, out, tag)
    out.sim_cycles += fabric.total_cycles


def reprogram_job(lib, state, job, tr, out) -> None:
    text, rows = job
    fabric = state.fabric
    before = fabric.total_cycles
    f, prog, _ = ready(lib, fabric, text, out)
    n = prog.latency + REPROGRAM_BURST - 1
    if n > len(rows):
        raise JobFailure(f"{text}: latency {prog.latency} exceeds the generated rows")
    checked_run(lib, fabric, f, prog, rows[:n], tr, out)
    out.sim_cycles += fabric.total_cycles - before


def ready_probe(texts):
    """A job function that runs only the ready paths of a job, on a fabric
    of their own: more samples of the reprogramming latency than the jobs
    give. `texts` picks the formula texts out of a job's input."""
    def probe(lib, state, job, tr, out) -> None:
        fabric = lib.fabric.Fabric(state.cfg)
        for text in texts(job):
            ready(lib, fabric, text, out)
    return probe


def prepare(lib, cfg) -> SimpleNamespace:
    """Per-run state: the fabric configuration and the long-lived fabric
    that reprogram_job reuses."""
    config = lib.program.FabricConfig(*cfg)
    return SimpleNamespace(cfg=config, fabric=lib.fabric.Fabric(config))


# probes: how many times each input's ready paths run alone after every
# pass. Stream gets most: it has few inputs and long passes.
SPECS = {
    "fuzz": SimpleNamespace(cfg=FUZZ_CFG, inputs=fuzz_inputs, job=fuzz_job, probes=1,
                            probe=ready_probe(lambda job: job[0::2])),
    "stream": SimpleNamespace(cfg=BIG, inputs=stream_inputs, job=stream_job, probes=8,
                              probe=ready_probe(lambda job: job[:1])),
    "reprogram": SimpleNamespace(cfg=BIG, inputs=reprogram_inputs, job=reprogram_job,
                                 probes=2, probe=ready_probe(lambda job: job[:1])),
}


# ---------------------------------------------------------------------------
# Driving the closed loop
# ---------------------------------------------------------------------------

def _stream_digest(verdicts: list) -> bytes:
    # The schedule check pins the times to 0..n-1, so the values say it all.
    return len(verdicts).to_bytes(4, "big") + bytes(v for _, v in verdicts)


def attempt(run, lib, state, job, tr) -> SimpleNamespace:
    """Run one job (`run` is a job function). A job that raises is counted as
    failed, not fatal."""
    out = SimpleNamespace(ready=[], pieces=[], bodies=[], streams=[], events=0,
                          run_cycles=0, idle_cycles=0, sim_cycles=0, error=None)
    span = tr.open("job") if tr else None
    t0 = perf_counter()
    try:
        run(lib, state, job, tr, out)
    except Exception as exc:  # every failure is reported, then the run goes on
        out.error = f"{type(exc).__name__}: {exc}"
    out.seconds = perf_counter() - t0
    if tr:
        tr.close(span)
    digest = hashlib.sha256()
    for body in out.bodies:
        digest.update(body)
    for verdicts in out.streams:
        digest.update(_stream_digest(verdicts))
    out.digest = digest.digest()
    out.bodies = out.streams = None
    return out


def closed_loop(jobs: list, seconds: float, run_one, between=None) -> int:
    """Whole passes over the inputs, each job after the previous one, until
    `seconds` have passed; `between` runs after each pass. `run_one` takes
    (input index, input). Returns the number of passes."""
    passes = 0
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        for k, job in enumerate(jobs):
            run_one(k, job)
        passes += 1
        if between:
            between()
    return passes


def setup(spec, seed: int, smoke: bool):
    lib = load_mtlmon()
    jobs = spec.inputs(random.Random(seed), smoke)
    state = prepare(lib, spec.cfg)
    warm = attempt(spec.job, lib, state, jobs[0], None)
    return lib, jobs, state, warm


def _fastest(best: dict, k: int, parts: list) -> None:
    best[k] = [min(a, b) for a, b in zip(best.get(k, parts), parts)]


class Record:
    """What a run keeps of its outcomes, in memory that does not grow with
    the number of passes (so that peak_rss_mb does not follow host speed):
    per input, its first good outcome, its first digest and the fastest
    time of each timed part; and the count of runs and of failed ones.

    Host speed on a shared machine drifts by tens of percent over seconds;
    the fastest of an input's runs, spread over the whole run, is the
    figure that drift disturbs least, and the shorter the piece timed, the
    surer a clean run of it is. So a job is taken in parts, each at its own
    fastest pass, and the parts are summed: each CHUNK-event piece of a step
    burst, each oracle check, the two parts of each ready path (text to
    bytes, load), and the rest. The ready parts also take the ready probes'
    runs of the same input, which do the same work.
    """

    def __init__(self, digests: dict | None = None):
        self.digests = {} if digests is None else digests  # per input, of jobs
        self.probe_digests: dict = {}
        self.first: dict = {}
        self.rest: dict = {}
        self.pieces: dict = {}
        self.ready: dict = {}
        self.runs = self.failed = 0

    def gate(self, k: int, out, digests: dict | None = None) -> bool:
        """Count a run; False, with the reason on stderr, when it raised or
        its output differs from the first run of the same input."""
        digests = self.digests if digests is None else digests
        self.runs += 1
        if out.error:
            reason = out.error
        elif digests.setdefault(k, out.digest) != out.digest:
            reason = "output differs from its first run"
        else:
            return True
        self.failed += 1
        print(f"FAILED job {k}: {reason}", file=sys.stderr)
        return False

    def job(self, k: int, out) -> None:
        if not self.gate(k, out):
            return
        self.first.setdefault(k, out)
        other = out.seconds - sum(out.pieces) - sum(a + b for a, b in out.ready)
        self.rest[k] = min(self.rest.get(k, other), other)
        _fastest(self.pieces, k, out.pieces)
        _fastest(self.ready, k, [part for pair in out.ready for part in pair])

    def probe(self, k: int, out) -> None:
        if self.gate(k, out, self.probe_digests):
            _fastest(self.ready, k, [part for pair in out.ready for part in pair])

    def best(self) -> tuple[dict, dict]:
        """Per input with a good job: its best job seconds, and its fastest
        ready seconds, one per ready call."""
        ready = {k: [a + b for a, b in zip(parts[0::2], parts[1::2])]
                 for k, parts in self.ready.items() if k in self.rest}
        return {k: self.rest[k] + sum(self.pieces[k]) + sum(ready[k]) for k in self.rest}, ready

    def passed(self) -> list:
        """The first good outcome of each input, in input order."""
        return [self.first[k] for k in sorted(self.first)]


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "mtlmon").glob("*.py")))


def _workload_digest(digests: dict, n_jobs: int) -> str:
    if len(digests) < n_jobs:
        return "incomplete"
    return hashlib.sha256(b"".join(digests[k] for k in range(n_jobs))).hexdigest()


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(name: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, int, int]:
    spec = SPECS[name]
    setups = []
    # No collection inside a timed part: with the same allocations in every
    # pass, a collection would land in the same part of the same input each
    # time, and its fastest run would include it. A full collection runs
    # before each set-up, between passes.
    gc.disable()

    def timed_setup():
        gc.collect()  # start each set-up from the same heap state
        t0 = perf_counter()
        made = setup(spec, seed, smoke)
        setups.append(perf_counter() - t0)
        return made

    lib, jobs, state, warm = timed_setup()
    record = Record()
    record.gate(0, warm)

    def between():
        # Further set-ups, timed but unused, spread the set-up samples over
        # the run as the job samples are; then the ready probes.
        timed_setup()
        for _ in range(spec.probes):
            for k, job in enumerate(jobs):
                record.probe(k, attempt(spec.probe, lib, state, job, None))

    passes = closed_loop(
        jobs, seconds, lambda k, job: record.job(k, attempt(spec.job, lib, state, job, None)),
        between)
    job_s, ready = record.best()
    if not job_s:
        raise RuntimeError("every job failed")
    job_ms = [s * 1e3 for s in job_s.values()]
    ready_ms = [s * 1e3 for times in ready.values() for s in times]
    first = record.passed()
    events = sum(o.events for o in first)
    metrics = {
        "events_per_s": (events / sum(job_s.values()), "1/s"),
        "job_ms_p50": (statistics.median(job_ms), "ms"),
        "job_ms_p95": (percentile(job_ms, 95), "ms"),
        "ready_ms_p50": (statistics.median(ready_ms), "ms"),
        "ready_ms_p95": (percentile(ready_ms, 95), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_cycles_per_event": (sum(o.sim_cycles for o in first) / max(events, 1),
                                 "cycles/event"),
    }
    for label, samples, runs in (("job_ms", job_ms, passes),
                                 ("ready_ms", ready_ms, passes * (1 + spec.probes))):
        note = "" if len(samples) >= 200 else ": fewer than the 200 that put 10 beyond p95"
        print(f"samples {label} n={len(samples)}, best of about {runs} runs each{note}")
    failed, attempted = record.failed, record.runs
    print(f"failed_frac {failed / attempted} frac ({failed} of {attempted} jobs and probes)")
    print(f"digest {_workload_digest(record.digests, len(jobs))}")
    return metrics, attempted, failed


def traced(name: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, int, int]:
    spec = SPECS[name]
    gc.disable()  # as in end_to_end: collections run between passes
    lib, jobs, state, warm = setup(spec, seed, smoke)
    tr = Tracer()
    plain = Record()
    spanned = Record(plain.digests)  # traced runs must give the same outputs
    plain.gate(0, warm)

    def pair(k, job):
        # Untraced, then traced, back to back: both see the same host load.
        plain.job(k, attempt(spec.job, lib, state, job, None))
        restore = instrument(lib, tr)
        try:
            spanned.job(k, attempt(spec.job, lib, state, job, tr))
        finally:
            restore()

    closed_loop(jobs, seconds, pair, gc.collect)
    failed, attempted = plain.failed + spanned.failed, plain.runs + spanned.runs

    if name == "stream":
        matrix = tr
    else:
        # The width x PE matrix is a property of Fabric.step measured on
        # the stream monitors; other workloads take one traced pass of them.
        stream = SPECS["stream"]
        matrix = Tracer()
        m_state = prepare(lib, stream.cfg)
        m_record = Record()
        restore = instrument(lib, matrix)
        try:
            closed_loop(stream.inputs(random.Random(seed), smoke), 0,
                        lambda k, job: m_record.job(
                            k, attempt(stream.job, lib, m_state, job, matrix)))
        finally:
            restore()
        failed, attempted = failed + m_record.failed, attempted + m_record.runs

    base, slow = plain.best()[0], spanned.best()[0]
    overhead = sum(slow.values()) / sum(base[k] for k in slow) - 1
    metrics = per_layer(tr, matrix, plain.passed(), overhead)
    print(f"failed_frac {failed / attempted} frac ({failed} of {attempted} jobs)")
    print(f"digest {_workload_digest(plain.digests, len(jobs))}")
    return metrics, attempted, failed


def per_layer(tr: Tracer, matrix: Tracer, passed: list, overhead: float) -> dict:
    s = summarize(tr)
    loads = s["fabric.load"]["calls"]
    job_time = s["job"]["total"]

    def per_size(name: str, key: str = "total") -> float:
        return s[name][key] / s[name]["size"] * 1e6

    def per_call(name: str) -> float:
        return s[name]["total"] / s[name]["calls"] * 1e6

    m = {"fabric.step.us_per_cycle": (per_size("fabric.step"), "us/cycle")}
    cost = step_cost(matrix)
    groups = [f"w{w}" for w in WIDTHS] + ["pe_small", "pe_large"]
    for group in groups:
        sec = sum(v[0] for tag, v in cost.items() if group in tag.split("."))
        cyc = sum(v[1] for tag, v in cost.items() if group in tag.split("."))
        m[f"fabric.step.us_per_cycle.{group}"] = (sec / cyc * 1e6, "us/cycle")
    for tag in sorted(cost):
        sec, cyc = cost[tag]
        print(f"matrix fabric.step {tag} {sec / cyc * 1e6:.2f} us/cycle over {int(cyc)} cycles")
    run_cycles = sum(o.run_cycles for o in passed)
    prog_cycles = sum(o.sim_cycles for o in passed) - run_cycles
    m["fabric.warmup_frac"] = (sum(o.idle_cycles for o in passed) / run_cycles, "frac")
    m["fabric.load.us_per_byte"] = (per_size("fabric.load"), "us/byte")
    m["fabric.load.self_us_per_byte"] = (per_size("fabric.load", "self"), "us/byte")
    m["bitstream.encode_program.us_per_byte"] = (per_size("bitstream.encode_program"), "us/byte")
    m["bitstream.decode_program.us_per_byte"] = (per_size("bitstream.decode_program"), "us/byte")
    for name in ("program.derive_latency", "program.resolve_operands"):
        m[f"{name}.calls_per_load"] = (s[name]["in_load"] / loads, "calls")
    m["program.body_bits.calls_per_load"] = (tr.body_bits_in_load / loads, "calls")
    for name in ("formula.parse", "formula.constant_fold", "compiler.plan", "compiler.allocate"):
        m[f"{name}.us_per_call"] = (per_call(name), "us/call")
    m["oracle.oracle_verdicts.us_per_event"] = (per_size("oracle.oracle_verdicts"), "us/event")
    m["toolchain.diff_verdicts.us_per_verdict"] = (per_size("toolchain.diff_verdicts"), "us/verdict")
    for layer in LAYERS:
        own = sum(row["self"] for name, row in s.items() if name.split(".")[0] == layer)
        m[f"{layer}.share"] = (own / job_time, "frac")
    m["remainder.share"] = (s["job"]["self"] / job_time, "frac")
    m["fabric.programming_cycles"] = (prog_cycles, "cycles")
    m["fabric.run_cycles"] = (run_cycles, "cycles")
    m["trace.overhead_frac"] = (overhead, "frac")
    return m


def run_all(argv: list[str]) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        args = [sys.executable, str(Path(__file__).resolve()), "--workload", name] + argv
        worst = max(worst, subprocess.run(args, check=False).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few small inputs per workload, for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        return run_all(rest)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} src_lines {src_lines()} (informational)")
    try:
        if args.trace:
            metrics, attempted, failed = traced(args.workload, args.seed, args.seconds, args.smoke)
        else:
            metrics, attempted, failed = end_to_end(
                args.workload, args.seed, args.seconds, args.smoke)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
