"""Packing monitor programs to and from configuration bit streams.

Body layout, in order: one record per PE, one per que, then one route record
(two AP indices) per PE, each laid out field by field as in
``FabricConfig.pe_fields``, ``q_fields`` and ``route_fields``. Fields are
packed MSB-first with no inter-record padding; the body is zero-padded to a
byte boundary. An inactive record is all zeros, so the encoder packs only
the other records into one body integer, and the decoder jumps from one
nonzero record to the next. Files carry a 16-byte header in front:

    magic "MTLB" | version (2B BE) | n_pe n_q n_ap q_sz (2B BE each) | 2 zero bytes

The header is consumed by tools; only the body is streamed into the fabric.
"""

from __future__ import annotations

import struct
from itertools import accumulate

from .errors import AllocationError, BitstreamError
from .machine import EMPTY_INTERVAL, is_empty
from .program import (
    INACTIVE_PE,
    INACTIVE_Q,
    FabricConfig,
    Fields,
    MonitorProgram,
    OPCODE_BITS,
    OPCODE_NAMES,
    PeConfig,
    QConfig,
    derive_latency,
    resolve_operands,
)

MAGIC = b"MTLB"
FORMAT_VERSION = 1
HEADER_LEN = 16

def encode_program(prog: MonitorProgram) -> bytes:
    """Pack the body bits (no header), zero-padded to a whole byte."""
    cfg = prog.config
    body, end = 0, 8 * cfg.body_bytes  # end: bits from a section's start to the body's end
    for records, inactive, values, fields, kind in (
        (prog.pes, INACTIVE_PE, _pe_values, cfg.pe_fields, "PE"),
        (prog.qs, INACTIVE_Q, _q_values, cfg.q_fields, "Q"),
        (prog.routes, (0, 0), lambda _, route: route, cfg.route_fields, "PE"),
    ):
        width = sum(w for _, w in fields)
        for index, record in enumerate(records):
            if record is inactive or record == inactive:
                continue  # all zeros
            word = 0
            for value, (name, w) in zip(values(index, record), fields):
                if value >> w:  # also true for a negative value
                    raise BitstreamError(
                        f"value {value} overflows {w}-bit field {kind}{index}.{name}"
                    )
                word = word << w | value
            body |= word << end - (index + 1) * width
        end -= len(records) * width
    return body.to_bytes(cfg.body_bytes, "big")


def _pe_values(pid: int, pe: PeConfig) -> tuple:
    if pe.opcode not in OPCODE_BITS:
        raise BitstreamError(f"PE{pid}: unknown opcode {pe.opcode!r}")
    return (pe.is_active, pe.op0_from_que, pe.op1_from_que, OPCODE_BITS[pe.opcode],
            pe.r_qid, *pe.top_interval, *pe.bot_interval)


def _q_values(_, q: QConfig) -> tuple:
    return q.is_active, q.is_verdict, q.reader_pe, q.inp_no, q.head


def decode_program(data: bytes, cfg: FabricConfig) -> MonitorProgram:
    """Exact inverse of encode_program for the given configuration.

    The split finds the records holding a 1 without visiting the others,
    and everything after it works on the active ones alone: the operands
    are resolved once and the latency derived once, and the program hands
    both, with the active ids, on to ``Fabric._latch``.
    """
    if len(data) != cfg.body_bytes:
        raise BitstreamError(
            f"body is {len(data)} bytes, configuration needs {cfg.body_bytes}"
        )
    bits = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")
    pes, pe_ids, pos = _split(bits, 0, cfg.n_pe, cfg.pe_fields, INACTIVE_PE, _pe_record)
    qs, q_ids, pos = _split(bits, pos, cfg.n_q, cfg.q_fields, INACTIVE_Q,
                            lambda _, v: QConfig(bool(v[0]), bool(v[1]), *v[2:]))
    routes, _, pos = _split(bits, pos, cfg.n_pe, cfg.route_fields, (0, 0),
                            lambda _, v: tuple(v))
    if "1" in bits[pos:]:
        raise BitstreamError("nonzero padding bits")
    # A record that holds a 1 may still be inactive.
    pe_ids = tuple(pid for pid in pe_ids if pes[pid].is_active)
    q_ids = tuple(qid for qid in q_ids if qs[qid].is_active)
    sources = resolve_operands(pes, qs, pe_ids, q_ids)
    latency = derive_latency(pes, qs, sources, pe_ids, q_ids)
    if sum(qs[qid].is_verdict for qid in q_ids) > 1:
        raise BitstreamError("more than one active verdict que")
    return MonitorProgram(cfg, pes, qs, routes, latency, (pe_ids, q_ids, sources))


def _split(bits: str, pos: int, count: int, fields: Fields, inactive, build):
    """count records read from bits[pos:]: the records, the ids of those
    holding a 1 in ascending order, and the position after them; an
    all-zero record is inactive, any other is build(index, field values)."""
    width = sum(w for _, w in fields)
    ends = accumulate(w for _, w in fields)
    masks = [(width - end, (1 << w) - 1) for (_, w), end in zip(fields, ends)]
    records = [inactive] * count
    found = []
    end = pos + count * width
    one = bits.find("1", pos, end)
    while one >= 0:  # jump from one record holding a 1 to the next
        index = (one - pos) // width
        start = pos + index * width
        word = int(bits[start:start + width], 2)
        records[index] = build(index, [word >> s & m for s, m in masks])
        found.append(index)
        one = bits.find("1", start + width, end)
    return tuple(records), found, end


def _pe_record(pid: int, v: list[int]) -> PeConfig:
    if v[3] not in OPCODE_NAMES:
        raise BitstreamError(f"PE{pid}: unknown opcode bits {v[3]:03b}")
    # Canonicalize any lo > hi encoding to the sentinel so the
    # encode/decode roundtrip is an identity on canonical programs.
    top, bot = (EMPTY_INTERVAL if is_empty(iv) else iv for iv in ((v[5], v[6]), (v[7], v[8])))
    return PeConfig(bool(v[0]), bool(v[1]), bool(v[2]), OPCODE_NAMES[v[3]], v[4], top, bot)


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
    try:
        cfg = FabricConfig(n_pe, n_q, n_ap, q_sz)
    except AllocationError as exc:
        raise BitstreamError(f"bad header: {exc}") from None
    return decode_program(data[HEADER_LEN:], cfg)
