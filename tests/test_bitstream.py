import dataclasses
import gc
import hashlib
import random

import pytest

from conftest import HOSTILE_CFG, random_bodies, second_verdict_body
from mtlmon import formula as F
from mtlmon.bitstream import (
    decode_file,
    decode_program,
    encode_file,
    encode_program,
)
from mtlmon.compiler import compile_formula
from mtlmon.errors import AllocationError, BitstreamError
from mtlmon.program import (
    INACTIVE_PE,
    INACTIVE_Q,
    INACTIVE_ROUTE,
    FabricConfig,
    MonitorProgram,
    PeConfig,
    QConfig,
    ceil_log2,
    derive_latency,
)
from mtlmon.toolchain import DEFAULT_CONFIG, random_formula


def test_ceil_log2():
    assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9, 256)] == [0, 1, 2, 2, 3, 3, 4, 8]


def test_pe_segment_width():
    # 8 x (6 + log2 8 + 4 log2 16) = 8 x 25 = 200
    cfg = FabricConfig(8, 8, 16, 16)
    assert cfg.n_pe * cfg.pe_bits == 200


def test_total_width_of_small_design():
    # 4x(6+2+16) + 4x(3+2+4) + 4x2x3 = 96 + 36 + 24 = 156 bits, 20 bytes
    cfg = FabricConfig(4, 4, 8, 16)
    assert cfg.body_bits == 156
    assert cfg.body_bytes == 20


def test_width_formula_across_grid():
    for n_pe in (2, 4, 8, 16):
        for n_q in (2, 4, 8, 16):
            for q_sz in (4, 16, 64, 256):
                for n_ap in (4, 8, 16):
                    cfg = FabricConfig(n_pe, n_q, n_ap, q_sz)
                    expected = (
                        n_pe * (6 + ceil_log2(n_q) + 4 * ceil_log2(q_sz))
                        + n_q * (3 + ceil_log2(n_pe) + ceil_log2(q_sz))
                        + n_pe * 2 * ceil_log2(n_ap)
                    )
                    assert cfg.body_bits == expected


def test_roundtrip_of_compiled_programs():
    rng = random.Random(4)
    cfg = FabricConfig(16, 16, 8, 64)
    done = 0
    while done < 40:
        f = random_formula(rng, 3, 5)
        try:
            program = compile_formula(f, cfg)
        except AllocationError:
            continue
        body = encode_program(program)
        assert len(body) == cfg.body_bytes
        assert decode_program(body, cfg) == program
        assert decode_file(encode_file(program)) == program
        done += 1


def test_unused_routes_are_the_shared_inactive_record():
    # The encoder skips a record that is its section's inactive record by
    # identity; the compiler and the decoder fill every unused route with
    # that one object.
    rng = random.Random(8)
    for cfg in (FabricConfig(16, 16, 8, 64), FabricConfig(256, 256, 16, 4096)):
        done = 0
        while done < 10:
            try:
                program = compile_formula(random_formula(rng, 3, 5), cfg)
            except AllocationError:
                continue
            decoded = decode_program(encode_program(program), cfg)
            for p in (program, decoded):
                unused = [r for pe, r in zip(p.pes, p.routes) if not pe.is_active]
                assert len(unused) >= cfg.n_pe - 16
                assert all(route is INACTIVE_ROUTE for route in unused)
            done += 1


def test_equal_copies_of_the_inactive_records_encode_like_the_shared_ones():
    # The encoder skips only the shared inactive records; an equal copy is
    # packed as the all-zero word it is.
    cfg = FabricConfig(16, 16, 8, 64)
    program = compile_formula(F.parse("ap0 U[1,3] (ap1 & X ap2)"), cfg)
    copied = MonitorProgram(
        cfg,
        tuple(pe._replace() if pe is INACTIVE_PE else pe for pe in program.pes),
        tuple(q._replace() if q is INACTIVE_Q else q for q in program.qs),
        tuple(tuple([*r]) if r is INACTIVE_ROUTE else r for r in program.routes),
        program.latency,
    )
    for records, inactive in ((copied.pes, INACTIVE_PE), (copied.qs, INACTIVE_Q),
                              (copied.routes, INACTIVE_ROUTE)):
        assert any(record == inactive for record in records)
        assert not any(record is inactive for record in records)
    assert copied == program
    assert encode_program(copied) == encode_program(program)


def test_all_zero_body_is_all_inactive():
    cfg = FabricConfig(4, 4, 8, 16)
    program = decode_program(bytes(cfg.body_bytes), cfg)
    assert all(not pe.is_active for pe in program.pes)
    assert all(not q.is_active for q in program.qs)
    assert program.latency == 0


def test_truncated_body_is_rejected():
    cfg = FabricConfig(4, 4, 8, 16)
    with pytest.raises(BitstreamError, match="bytes"):
        decode_program(bytes(cfg.body_bytes - 1), cfg)


def test_nonzero_padding_is_rejected():
    cfg = FabricConfig(4, 4, 8, 16)
    assert cfg.body_bits % 8 != 0
    body = bytearray(cfg.body_bytes)
    body[-1] |= 1  # flip a pad bit
    with pytest.raises(BitstreamError, match="padding"):
        decode_program(bytes(body), cfg)


def test_deep_chains_encode_on_narrow_ap_fabrics():
    # que routing lives in the que reader fields, so que ids never have to
    # fit the AP-index route width
    cfg = FabricConfig(8, 8, 2, 16)
    f = F.Not(F.Not(F.Not(F.Not(F.Not(F.AP(0))))))
    program = compile_formula(f, cfg)
    assert decode_program(encode_program(program), cfg) == program


def test_field_overflow_is_rejected():
    cfg = FabricConfig(4, 4, 8, 16)
    program = compile_formula(F.Not(F.AP(0)), cfg)
    pes = list(program.pes)
    pes[3] = pes[3]._replace(r_qid=9)  # needs 4 bits, field has 2
    broken = dataclasses.replace(program, pes=tuple(pes))
    with pytest.raises(BitstreamError, match="overflow"):
        encode_program(broken)


def test_an_opcode_without_bits_is_rejected():
    cfg = FabricConfig(4, 4, 8, 16)
    program = compile_formula(F.Not(F.AP(0)), cfg)
    pes = list(program.pes)
    pes[2] = PeConfig(True, False, False, "xor", 0, (0, 0), (0, 0))
    broken = dataclasses.replace(program, pes=tuple(pes))
    with pytest.raises(BitstreamError, match="^PE2: unknown opcode 'xor'$"):
        encode_program(broken)


def _record_holding(cfg: FabricConfig, bit: int):
    """(section, index) of the record that holds body bit ``bit`` (sections
    0, 1, 2 are PEs, ques, routes), or None for a padding bit."""
    sections = ((cfg.n_pe, cfg.pe_bits), (cfg.n_q, cfg.q_bits), (cfg.n_pe, cfg.route_bits))
    for section, (count, width) in enumerate(sections):
        if bit < count * width:
            return section, bit // width
        bit -= count * width
    return None


@pytest.mark.parametrize("cfg,step", [
    (HOSTILE_CFG, 1),
    (FabricConfig(8, 8, 4, 16), 1),
    (FabricConfig(3, 3, 1, 5), 1),  # one AP: route records are 0 bits wide
    (FabricConfig(256, 256, 16, 4096), 7),
], ids=["hostile", "8-8-4-16", "3-3-1-5", "256-256-16-4096-every-7th-bit"])
def test_a_single_bit_changes_only_the_record_that_holds_it(cfg, step):
    zero = decode_program(bytes(cfg.body_bytes), cfg)
    zero_records = (zero.pes, zero.qs, zero.routes)
    for bit in range(0, 8 * cfg.body_bytes, step):
        body = (1 << 8 * cfg.body_bytes - 1 - bit).to_bytes(cfg.body_bytes, "big")
        holder = _record_holding(cfg, bit)
        if holder is None:
            with pytest.raises(BitstreamError, match="^nonzero padding bits$"):
                decode_program(body, cfg)
            continue
        program = decode_program(body, cfg)
        changed = [
            (section, index)
            for section, (got, zeros) in enumerate(zip((program.pes, program.qs, program.routes),
                                                       zero_records))
            for index, (record, inactive) in enumerate(zip(got, zeros))
            if record != inactive
        ]
        assert changed == [holder], bit


def test_the_last_records_of_a_large_fabric_roundtrip():
    cfg = FabricConfig(256, 256, 16, 4096)
    pes = (INACTIVE_PE,) * 255 + (PeConfig(True, False, False, "wire", 255, (0, 0), (0, 0)),)
    qs = (INACTIVE_Q,) * 255 + (QConfig(True, True, 0, 0, 1),)
    routes = ((0, 0),) * 255 + ((15, 0),)
    program = MonitorProgram(cfg, pes, qs, routes, derive_latency(pes, qs))
    body = encode_program(program)
    assert decode_program(body, cfg) == program
    wide = pes[255]._replace(r_qid=256)
    with pytest.raises(BitstreamError, match="^value 256 overflows 8-bit field PE255.r_qid$"):
        encode_program(dataclasses.replace(program, pes=pes[:255] + (wide,)))


def test_each_record_field_sits_where_its_layout_says():
    # The codec and the fabric unpack records by position, so a field that
    # moved would silently read as its neighbour. Each record's fields map,
    # in order, onto its FabricConfig layout: a PE's opcode by name, each of
    # its intervals as one (lo, hi) pair.
    cfg = FabricConfig(8, 8, 4, 64)
    q_names = [name for name, _ in cfg.q_fields]
    assert list(zip(QConfig._fields, q_names, strict=True)) == [
        ("is_active", "isActive"), ("is_verdict", "isVerdict"), ("reader_pe", "readerPE"),
        ("inp_no", "inp_no"), ("head", "head"),
    ]
    pe_names = [name for name, _ in cfg.pe_fields]
    grouped = pe_names[:5] + [tuple(pe_names[5:7]), tuple(pe_names[7:])]
    assert list(zip(PeConfig._fields, grouped, strict=True)) == [
        ("is_active", "isActive"), ("op0_from_que", "op0Src"), ("op1_from_que", "op1Src"),
        ("opcode", "opcode"), ("r_qid", "r_qid"),
        ("top_interval", ("top.lo", "top.hi")), ("bot_interval", ("bot.lo", "bot.hi")),
    ]
    # PE2 (implies) reads ap2 and Q3 and writes the verdict que Q6; every
    # field that can differ from its neighbours does.
    pe = PeConfig(True, False, True, "implies", 6, (3, 9), (12, 40))
    q = QConfig(True, False, 2, 1, 13)
    pes = (INACTIVE_PE,) * 2 + (pe,) + (INACTIVE_PE,) * 5
    qs = (INACTIVE_Q,) * 3 + (q,) + (INACTIVE_Q,) * 2 + (QConfig(True, True, 0, 0, 5), INACTIVE_Q)
    routes = (INACTIVE_ROUTE,) * 2 + ((2, 1),) + (INACTIVE_ROUTE,) * 5
    latency = derive_latency(pes, qs)
    assert latency == (5 + 1) + (13 + 1)  # Q6's height plus Q3's, which feeds PE2
    program = MonitorProgram(cfg, pes, qs, routes, latency)
    body = encode_program(program)
    bits = format(int.from_bytes(body, "big"), f"0{8 * len(body)}b")

    def packed(values, fields):
        return "".join(format(v, f"0{w}b") for v, (_, w) in zip(values, fields, strict=True))

    q_start = cfg.n_pe * cfg.pe_bits
    route_start = q_start + cfg.n_q * cfg.q_bits
    expected = {
        2 * cfg.pe_bits: packed((1, 0, 1, 4, 6, 3, 9, 12, 40), cfg.pe_fields),
        q_start + 3 * cfg.q_bits: packed((1, 0, 2, 1, 13), cfg.q_fields),
        q_start + 6 * cfg.q_bits: packed((1, 1, 0, 0, 5), cfg.q_fields),
        route_start + 2 * cfg.route_bits: packed((2, 1), cfg.route_fields),
    }
    for start, word in expected.items():
        assert bits[start:start + len(word)] == word, start
    assert bits.count("1") == sum(word.count("1") for word in expected.values())
    assert decode_program(body, cfg) == program

def test_header_validation():
    program = compile_formula(F.Not(F.AP(0)), FabricConfig(4, 4, 4, 16))
    data = encode_file(program)
    assert data[:4] == b"MTLB"
    with pytest.raises(BitstreamError, match="magic"):
        decode_file(b"XXXX" + data[4:])
    with pytest.raises(BitstreamError, match="version"):
        decode_file(data[:4] + b"\x00\x09" + data[6:])
    with pytest.raises(BitstreamError, match="reserved"):
        decode_file(data[:14] + b"\x00\x01" + data[16:])


def test_decoded_latency_matches_compiler():
    program = compile_formula(F.parse("F[0,1] !ap1 | F[1,4] ap2"), FabricConfig(8, 8, 4, 16))
    assert decode_program(encode_program(program), program.config).latency == 8


def test_second_verdict_que_is_a_bitstream_error():
    with pytest.raises(BitstreamError, match="verdict que"):
        decode_program(second_verdict_body(), HOSTILE_CFG)


def test_a_second_verdict_que_is_counted_once_on_each_path():
    # The decoder counts the verdict ques of a body and hands its ids on;
    # a program built without them counts its own.
    with pytest.raises(BitstreamError, match="^more than one active verdict que$"):
        decode_program(second_verdict_body(), HOSTILE_CFG)
    program = decode_program(encode_program(compile_formula(F.parse("!ap0"), HOSTILE_CFG)),
                             HOSTILE_CFG)
    vq = next(qid for qid in program.q_ids if program.qs[qid].is_verdict)
    spare = next(qid for qid, q in enumerate(program.qs) if not q.is_active)
    qs = list(program.qs)
    qs[spare] = qs[vq]
    with pytest.raises(ValueError, match="^at most one verdict que$") as info:
        dataclasses.replace(program, qs=tuple(qs))
    assert not isinstance(info.value, BitstreamError)


_CFG2 = FabricConfig(2, 2, 1, 4)
_VERDICT = QConfig(True, True, 0, 0, 1)


@pytest.mark.parametrize("pes,qs,routes,message", [
    ((INACTIVE_PE,), (INACTIVE_Q,) * 2, ((0, 0),) * 2, "record counts"),
    ((INACTIVE_PE,) * 2, (INACTIVE_Q,) * 3, ((0, 0),) * 2, "record counts"),
    ((INACTIVE_PE,) * 2, (INACTIVE_Q,) * 2, ((0, 0),), "one route pair per PE"),
    ((INACTIVE_PE,) * 2, (_VERDICT,) * 2, ((0, 0),) * 2, "at most one verdict que"),
])
def test_a_malformed_program_is_rejected_when_built(pes, qs, routes, message):
    with pytest.raises(ValueError, match=message):
        MonitorProgram(_CFG2, pes, qs, routes, 0)


def test_derive_latency_leaves_no_garbage():
    program = compile_formula(F.parse("F[0,1] !ap1 | F[1,4] ap2"), FabricConfig(8, 8, 4, 16))
    gc.disable()
    try:
        gc.collect()
        for _ in range(10):
            derive_latency(program.pes, program.qs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_fixed_corpus_bytes_and_latencies_are_pinned():
    # The contract: bitstream bytes and reported latencies of compiled
    # programs. Any change to either shows up as a different digest.
    rng = random.Random(2603)
    digest = hashlib.sha256()
    programs = 0
    for cfg in (FabricConfig(8, 8, 4, 16), DEFAULT_CONFIG, FabricConfig(256, 256, 16, 4096)):
        for _ in range(100):
            f = random_formula(rng, rng.randint(1, 5), 8)
            for forced in (None, {1: 10}):
                try:
                    p = compile_formula(f, cfg, forced)
                except AllocationError:
                    continue
                digest.update(encode_file(p) + p.latency.to_bytes(4, "big"))
                programs += 1
    assert programs == 570
    assert digest.hexdigest() == (
        "64a703fbab75595c7b1595e2184591300557bfdc245b2217df9e07e706f0b2db"
    )


def test_decode_outcomes_of_hostile_bodies_are_pinned():
    # Whatever decode_program makes of an arbitrary body is part of the
    # contract: the program (re-encoded) and its latency, or the error
    # class and message. Any change to either shows up as a different digest.
    rng = random.Random(2604)
    digest = hashlib.sha256()
    decoded = []
    for cfg in (HOSTILE_CFG, FabricConfig(8, 8, 4, 16), FabricConfig(3, 3, 2, 5), DEFAULT_CONFIG):
        ok = 0
        for body in random_bodies(rng, cfg, 3000):
            try:
                p = decode_program(body, cfg)
            except Exception as exc:  # pin whatever escapes, whatever its class
                outcome = f"{type(exc).__name__}: {exc}"
            else:
                outcome = f"{encode_program(p).hex()} {p.latency}"
                ok += 1
            digest.update(outcome.encode() + b"\n")
        decoded.append(ok)
    assert decoded == [1800, 1870, 1821, 1804]
    assert digest.hexdigest() == (
        "8e357a048c65bd85e50ba665257f105f7c0a98d12ddeec073c268b19df8ee872"
    )
