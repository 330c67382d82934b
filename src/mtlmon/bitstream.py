"""Packing monitor programs to and from configuration bit streams.

Body layout, in order: one record per PE (fields isActive, op0Src, op1Src,
opcode, r_qid, top interval lo/hi, bot interval lo/hi), one record per que
(isActive, isVerdict, readerPE, inp_no, head), then the operand routes (two
per PE). Fields are packed MSB-first with no inter-record padding; the body
is zero-padded to a byte boundary. Files carry a 16-byte header in front:

    magic "MTLB" | version (2B BE) | n_pe n_q n_ap q_sz (2B BE each) | 2 zero bytes

The header is consumed by tools; only the body is streamed into the fabric.
"""

from __future__ import annotations

import struct

from .errors import BitstreamError
from .program import (
    EMPTY_INTERVAL,
    FabricConfig,
    MonitorProgram,
    OPCODE_BITS,
    OPCODE_NAMES,
    PeConfig,
    QConfig,
    ceil_log2,
    derive_latency,
    is_empty,
)

MAGIC = b"MTLB"
FORMAT_VERSION = 1
HEADER_LEN = 16


class BitWriter:
    def __init__(self):
        self.data = bytearray()
        self.bit_count = 0

    def write(self, value: int, width: int, field: str = "") -> None:
        if value < 0 or (width < value.bit_length()):
            raise BitstreamError(f"value {value} overflows {width}-bit field {field}")
        for shift in range(width - 1, -1, -1):
            if self.bit_count % 8 == 0:
                self.data.append(0)
            bit = (value >> shift) & 1
            self.data[-1] |= bit << (7 - self.bit_count % 8)
            self.bit_count += 1

    def getvalue(self) -> bytes:
        return bytes(self.data)


class BitReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, width: int) -> int:
        value = 0
        for _ in range(width):
            byte = self.data[self.pos // 8]
            value = (value << 1) | ((byte >> (7 - self.pos % 8)) & 1)
            self.pos += 1
        return value


def encode_program(prog: MonitorProgram) -> bytes:
    """Pack the body bits (no header), zero-padded to a whole byte."""
    cfg = prog.config
    w_q = ceil_log2(cfg.n_q)
    w_pe = ceil_log2(cfg.n_pe)
    w_sz = ceil_log2(cfg.q_sz)
    w_ap = ceil_log2(cfg.n_ap)
    out = BitWriter()
    for pid, pe in enumerate(prog.pes):
        out.write(int(pe.is_active), 1, f"PE{pid}.isActive")
        out.write(int(pe.op0_from_que), 1, f"PE{pid}.op0Src")
        out.write(int(pe.op1_from_que), 1, f"PE{pid}.op1Src")
        out.write(OPCODE_BITS[pe.opcode], 3, f"PE{pid}.opcode")
        out.write(pe.r_qid, w_q, f"PE{pid}.r_qid")
        for name, (lo, hi) in (("top", pe.top_interval), ("bot", pe.bot_interval)):
            out.write(lo, w_sz, f"PE{pid}.{name}.lo")
            out.write(hi, w_sz, f"PE{pid}.{name}.hi")
    for qid, q in enumerate(prog.qs):
        out.write(int(q.is_active), 1, f"Q{qid}.isActive")
        out.write(int(q.is_verdict), 1, f"Q{qid}.isVerdict")
        out.write(q.reader_pe, w_pe, f"Q{qid}.readerPE")
        out.write(q.inp_no, 1, f"Q{qid}.inp_no")
        out.write(q.head, w_sz, f"Q{qid}.head")
    for pid, (r0, r1) in enumerate(prog.routes):
        out.write(r0, w_ap, f"PE{pid}.route0")
        out.write(r1, w_ap, f"PE{pid}.route1")
    assert out.bit_count == cfg.body_bits
    return out.getvalue()


def decode_program(data: bytes, cfg: FabricConfig) -> MonitorProgram:
    """Exact inverse of encode_program for the given configuration."""
    if len(data) != cfg.body_bytes:
        raise BitstreamError(
            f"body is {len(data)} bytes, configuration needs {cfg.body_bytes}"
        )
    w_q = ceil_log2(cfg.n_q)
    w_pe = ceil_log2(cfg.n_pe)
    w_sz = ceil_log2(cfg.q_sz)
    w_ap = ceil_log2(cfg.n_ap)
    r = BitReader(data)
    pes = []
    for pid in range(cfg.n_pe):
        is_active = bool(r.read(1))
        op0_from_que = bool(r.read(1))
        op1_from_que = bool(r.read(1))
        opcode_bits = r.read(3)
        if opcode_bits not in OPCODE_NAMES:
            raise BitstreamError(f"PE{pid}: unknown opcode bits {opcode_bits:03b}")
        r_qid = r.read(w_q)
        top = (r.read(w_sz), r.read(w_sz))
        bot = (r.read(w_sz), r.read(w_sz))
        # Canonicalize any lo > hi encoding to the sentinel so the
        # encode/decode roundtrip is an identity on canonical programs.
        if is_empty(top):
            top = EMPTY_INTERVAL
        if is_empty(bot):
            bot = EMPTY_INTERVAL
        pes.append(
            PeConfig(is_active, op0_from_que, op1_from_que, OPCODE_NAMES[opcode_bits], r_qid, top, bot)
        )
    qs = []
    for _ in range(cfg.n_q):
        qs.append(
            QConfig(bool(r.read(1)), bool(r.read(1)), r.read(w_pe), r.read(1), r.read(w_sz))
        )
    routes = []
    for _ in range(cfg.n_pe):
        routes.append((r.read(w_ap), r.read(w_ap)))
    # Trailing padding must be zero.
    while r.pos < len(data) * 8:
        if r.read(1):
            raise BitstreamError("nonzero padding bits")
    pes_t, qs_t = tuple(pes), tuple(qs)
    latency = derive_latency(pes_t, qs_t)
    if sum(q.is_active and q.is_verdict for q in qs) > 1:
        raise BitstreamError("more than one active verdict que")
    return MonitorProgram(cfg, pes_t, qs_t, tuple(routes), latency)


def encode_file(prog: MonitorProgram) -> bytes:
    cfg = prog.config
    header = MAGIC + struct.pack(
        ">HHHHH", FORMAT_VERSION, cfg.n_pe, cfg.n_q, cfg.n_ap, cfg.q_sz
    ) + b"\x00\x00"
    assert len(header) == HEADER_LEN
    return header + encode_program(prog)


def decode_file(data: bytes) -> MonitorProgram:
    if len(data) < HEADER_LEN or data[:4] != MAGIC:
        raise BitstreamError("not a monitor bitstream (bad magic)")
    version, n_pe, n_q, n_ap, q_sz = struct.unpack(">HHHHH", data[4:14])
    if version != FORMAT_VERSION:
        raise BitstreamError(f"unsupported bitstream version {version}")
    if data[14:16] != b"\x00\x00":
        raise BitstreamError("reserved header bytes must be zero")
    cfg = FabricConfig(n_pe, n_q, n_ap, q_sz)
    return decode_program(data[HEADER_LEN:], cfg)
