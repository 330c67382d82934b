"""The traced run: in-memory spans around each layer's public entry points.

`instrument` wraps every function on a job's path at the place it is looked
up (fabric.py imports decode_program, resolve_operands and derive_latency by
name, so those are patched in fabric as well as in their home modules) and
returns an undo function. The library's source is not touched.

A span is [name, start, end, parent, size, tag]; `size` is the work it did
in the unit its metric is reported in (bytes, events, verdicts, cycles) and
`tag` names the width and PE bucket of a step burst. A span's
self time is its duration minus the durations of its direct children. The
layer of a span is the module prefix of its name; the benchmark's own
per-job bookkeeping runs in the "job" span and is reported as the
remainder.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

LAYERS = ("formula", "compiler", "bitstream", "program", "fabric", "oracle",
          "toolchain", "trace")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.loading = 0  # open fabric.load spans
        self.body_bits_in_load = 0

    def open(self, name: str, size: float = 0, tag: str = "") -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, size, tag])
        self.stack.append(index)
        if name == "fabric.load":
            self.loading += 1
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        self.stack.pop()
        if span[0] == "fabric.load":
            self.loading -= 1


def instrument(lib, tr: Tracer):
    """Patch the layer entry points of `lib` to record spans into `tr`."""
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap(owner, attr, name, size=None):
        fn = owner.__dict__[attr]

        def traced(*args, **kwargs):
            # Recursive layers (constant_fold) count their outermost call.
            if tr.stack and tr.spans[tr.stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = tr.open(name, size(args) if size else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.close(index)

        patch(owner, attr, traced)

    wrap(lib.formula, "parse", "formula.parse")
    wrap(lib.formula, "constant_fold", "formula.constant_fold")
    wrap(lib.compiler, "compile_formula", "compiler.compile_formula")
    wrap(lib.compiler, "plan", "compiler.plan")
    wrap(lib.compiler, "allocate", "compiler.allocate")
    wrap(lib.bitstream, "encode_program", "bitstream.encode_program",
         lambda a: a[0].config.body_bytes)
    for owner in (lib.bitstream, lib.fabric):
        wrap(owner, "decode_program", "bitstream.decode_program", lambda a: len(a[0]))
    for owner in (lib.program, lib.fabric):
        wrap(owner, "resolve_operands", "program.resolve_operands")
    for owner in (lib.bitstream, lib.fabric):
        wrap(owner, "derive_latency", "program.derive_latency")
    wrap(lib.fabric.Fabric, "load", "fabric.load", lambda a: len(a[1]))
    wrap(lib.oracle, "oracle_verdicts", "oracle.oracle_verdicts", lambda a: len(a[1]))
    wrap(lib.toolchain, "diff_verdicts", "toolchain.diff_verdicts", lambda a: len(a[0]))
    wrap(lib.trace, "make_trace", "trace.make_trace")

    # FabricConfig widths are recomputed on every programmed byte; count
    # the calls made while a load is open (a span each would swamp the load).
    body_bits = lib.program.FabricConfig.__dict__["body_bits"]

    def counted(cfg):
        if tr.loading:
            tr.body_bits_in_load += 1
        return body_bits.fget(cfg)

    patch(lib.program.FabricConfig, "body_bits", property(counted))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def summarize(tr: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, summed size, and calls
    made inside a fabric.load span."""
    child = [0.0] * len(tr.spans)
    for name, start, end, parent, _, _ in tr.spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total": 0.0, "self": 0.0, "size": 0.0, "in_load": 0})
    for i, (name, start, end, parent, size, _) in enumerate(tr.spans):
        row = out[name]
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += end - start - child[i]
        row["size"] += size
        p = parent
        while p >= 0 and tr.spans[p][0] != "fabric.load":
            p = tr.spans[p][3]
        row["in_load"] += p >= 0
    return out


def step_cost(tr: Tracer) -> dict[str, list[float]]:
    """Per step-burst tag: [seconds, cycles]."""
    out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for name, start, end, _, size, tag in tr.spans:
        if name == "fabric.step":
            out[tag][0] += end - start
            out[tag][1] += size
    return out
