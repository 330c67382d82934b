"""Toolchain for a dynamically reprogrammable bounded-MTL monitor fabric:
formula parsing and brute-force evaluation, the golden evaluator-machine
model, the head-balancing compiler with bitstream encoding, and a
cycle-accurate fabric simulator with a runtime programming port.
"""

from .errors import (
    AllocationError,
    BitstreamError,
    HardFault,
    IntervalError,
    ParseError,
    ProtocolError,
    TraceError,
)
from .formula import (
    AP,
    And,
    Box,
    Diamond,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    TrueConst,
    Until,
    constant_fold,
    parse,
    pretty,
    semantic_future,
)
from .oracle import oracle_verdicts, satisfies
from .program import FabricConfig, MonitorProgram, PeConfig, QConfig
from .compiler import compile_formula
from .bitstream import decode_file, decode_program, encode_file, encode_program
from .fabric import Fabric
from .toolchain import DEFAULT_CONFIG, RunReport, check_formula, run_fuzz
from .trace import Trace, make_trace, read_trace, write_trace

__all__ = [
    "AP", "And", "AllocationError", "BitstreamError", "Box", "DEFAULT_CONFIG",
    "Diamond", "Fabric", "FabricConfig", "Formula", "HardFault", "Implies",
    "IntervalError", "MonitorProgram", "Next", "Not", "Or", "ParseError",
    "PeConfig", "ProtocolError", "QConfig", "RunReport", "Trace",
    "TraceError", "TrueConst", "Until", "check_formula", "compile_formula",
    "constant_fold", "decode_file", "decode_program", "encode_file",
    "encode_program", "make_trace", "oracle_verdicts", "parse", "pretty",
    "read_trace", "run_fuzz", "satisfies", "semantic_future", "write_trace",
]
