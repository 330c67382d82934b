import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import (
    HOSTILE_CFG, faulting_body, gap_body, second_verdict_body, stray_writer_body,
)
from mtlmon import formula as F
from mtlmon.bitstream import HEADER_LEN, encode_file
from mtlmon.cli import (
    EXIT_ALLOC,
    EXIT_FAULT,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from mtlmon.compiler import compile_formula

FIG_ARGS = ["--npe", "8", "--nq", "8", "--nap", "4", "--qsz", "16"]


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_trace_file(path, width, rows):
    with open(path, "w") as fh:
        fh.write("time," + ",".join(f"ap{i}" for i in range(width)) + "\n")
        for t, row in enumerate(rows):
            fh.write(f"{t}," + ",".join(str(v) for v in row) + "\n")
    return str(path)


def test_compile_reports_latency_and_bit_counts(tmp_path):
    out_file = tmp_path / "fig.bit"
    code, out, _ = run_cli(
        "compile", "--formula", "F[0,1] !ap1 | F[1,4] ap2", *FIG_ARGS,
        "-o", str(out_file),
    )
    assert code == EXIT_OK
    assert "latency: 8" in out
    assert "pe bits: 200 (8 x 25)" in out
    assert out_file.exists()


def test_compile_constant_formula_writes_nothing(tmp_path):
    out_file = tmp_path / "const.bit"
    code, out, _ = run_cli("compile", "--formula", "true", *FIG_ARGS, "-o", str(out_file))
    assert code == EXIT_OK
    assert "constant formula: verdict always 1" in out
    assert not out_file.exists()


def test_compile_pe_exhaustion_exit_code(tmp_path):
    formula = "ap0"
    for _ in range(17):
        formula = "!(" + formula + ")"
    code, _, err = run_cli(
        "compile", "--formula", formula, "--npe", "16", "--nq", "32",
        "--nap", "4", "--qsz", "256", "-o", str(tmp_path / "x.bit"),
    )
    assert code == EXIT_ALLOC
    assert "PE exhaustion" in err


def test_parse_error_exit_code(tmp_path):
    code, _, err = run_cli(
        "compile", "--formula", "ap0 U[2,1] ap1", *FIG_ARGS, "-o", str(tmp_path / "x.bit")
    )
    assert code == EXIT_PARSE
    assert "interval" in err


@pytest.mark.parametrize(
    "formula", ["G[0," + "9" * 5000 + "] ap0", "ap" + "9" * 5000], ids=["bound", "ap"]
)
def test_huge_integer_literal_exit_code(tmp_path, formula):
    code, out, err = run_cli(
        "compile", "--formula", formula, *FIG_ARGS, "-o", str(tmp_path / "x.bit")
    )
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error: number of 5000 digits") and err.count("\n") == 1


def test_check_rejects_a_trace_that_is_not_utf8(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_bytes(b"time,ap0,ap1,ap2,ap3\n0,1,0,0,\xff\n")
    code, out, err = run_cli("check", "--formula", "!ap0", *FIG_ARGS, "--trace", str(trace))
    assert code == EXIT_IO
    assert out == ""
    assert err == f"i/o error: {trace}: not UTF-8 text\n"


def test_run_negation(tmp_path):
    prog = tmp_path / "neg.bit"
    run_cli("compile", "--formula", "!ap0", "--npe", "2", "--nq", "2",
            "--nap", "1", "--qsz", "4", "-o", str(prog))
    trace = write_trace_file(tmp_path / "t.csv", 1, [[1], [0], [0]])
    code, out, err = run_cli("run", "--prog", str(prog), "--trace", trace)
    assert code == EXIT_OK
    assert out.splitlines() == ["0,0", "1,1"]
    assert "latency: 2" in err


def test_run_until_worked_example(tmp_path):
    prog = tmp_path / "u.bit"
    run_cli("compile", "--formula", "ap0 U[1,2] ap1", "--npe", "4", "--nq", "4",
            "--nap", "2", "--qsz", "8", "-o", str(prog))
    trace = write_trace_file(
        tmp_path / "t.csv", 2, [[0, 0], [1, 0], [1, 0], [0, 1], [1, 1]]
    )
    code, out, _ = run_cli("run", "--prog", str(prog), "--trace", trace)
    assert code == EXIT_OK
    assert out.splitlines() == ["0,0", "1,1"]


def test_run_empty_trace(tmp_path):
    prog = tmp_path / "neg.bit"
    run_cli("compile", "--formula", "!ap0", "--npe", "2", "--nq", "2",
            "--nap", "1", "--qsz", "4", "-o", str(prog))
    trace = write_trace_file(tmp_path / "t.csv", 1, [])
    code, out, _ = run_cli("run", "--prog", str(prog), "--trace", trace)
    assert code == EXIT_OK
    assert out == ""


def test_run_missing_file(tmp_path):
    code, _, err = run_cli("run", "--prog", str(tmp_path / "no.bit"),
                           "--trace", str(tmp_path / "no.csv"))
    assert code == EXIT_IO


def test_run_width_mismatch(tmp_path):
    prog = tmp_path / "neg.bit"
    run_cli("compile", "--formula", "!ap0", "--npe", "2", "--nq", "2",
            "--nap", "1", "--qsz", "4", "-o", str(prog))
    trace = write_trace_file(tmp_path / "t.csv", 2, [[1, 0]])
    code, _, err = run_cli("run", "--prog", str(prog), "--trace", trace)
    assert code == EXIT_IO
    assert "width" in err


def test_run_width_mismatch_without_rows(tmp_path):
    prog = tmp_path / "neg.bit"
    run_cli("compile", "--formula", "!ap0", "--npe", "2", "--nq", "2",
            "--nap", "1", "--qsz", "4", "-o", str(prog))
    trace = write_trace_file(tmp_path / "t.csv", 2, [])
    code, out, err = run_cli("run", "--prog", str(prog), "--trace", trace)
    assert code == EXIT_IO
    assert out == ""
    assert "width" in err


@pytest.mark.parametrize("body,code,prefix", [
    (second_verdict_body, EXIT_IO, "i/o error: "),
    (stray_writer_body, EXIT_ALLOC, "allocation error: "),
    (faulting_body, EXIT_FAULT, "hard fault: "),
    (gap_body, EXIT_FAULT, "hard fault: "),
])
def test_run_rejects_hostile_bitstreams(tmp_path, body, code, prefix):
    header = encode_file(compile_formula(F.parse("!ap0"), HOSTILE_CFG))[:HEADER_LEN]
    prog = tmp_path / "hostile.bit"
    prog.write_bytes(header + body())
    # faulting_body faults on the first row, gap_body on the second
    trace = write_trace_file(tmp_path / "t.csv", HOSTILE_CFG.n_ap, [[1, 0, 0], [0, 0, 0]])
    got, out, err = run_cli("run", "--prog", str(prog), "--trace", trace)
    assert got == code
    assert out == ""
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("flag,value", [
    ("--npe", "0"), ("--qsz", "0"), ("--npe", "70000"), ("--nap", "-1"),
])
def test_fabric_size_flags_outside_the_header_range(tmp_path, flag, value):
    # the last of a repeated flag wins
    code, out, err = run_cli("compile", "--formula", "!ap0", *FIG_ARGS, flag, value,
                             "-o", str(tmp_path / "p.bit"))
    assert code == EXIT_ALLOC
    assert out == ""
    assert err.startswith("allocation error: ") and err.count("\n") == 1
    assert not (tmp_path / "p.bit").exists()


def test_run_rejects_a_header_with_zero_pes(tmp_path):
    data = encode_file(compile_formula(F.parse("!ap0"), HOSTILE_CFG))
    prog = tmp_path / "zero.bit"
    prog.write_bytes(data[:6] + b"\x00\x00" + data[8:])  # n_pe = 0
    trace = write_trace_file(tmp_path / "t.csv", HOSTILE_CFG.n_ap, [[1, 0, 0]])
    code, out, err = run_cli("run", "--prog", str(prog), "--trace", trace)
    assert code == EXIT_IO
    assert out == ""
    assert err.startswith("i/o error: ") and err.count("\n") == 1


@pytest.mark.parametrize("formula", ["!ap0", "true"])
def test_check_width_mismatch_without_rows(tmp_path, formula):
    trace = write_trace_file(tmp_path / "t.csv", 2, [])
    code, out, err = run_cli("check", "--formula", formula, *FIG_ARGS, "--trace", trace)
    assert code == EXIT_IO
    assert out == ""
    assert "width" in err


def test_check_empty_trace(tmp_path):
    trace = write_trace_file(tmp_path / "t.csv", 4, [])
    code, out, err = run_cli("check", "--formula", "!ap0", *FIG_ARGS, "--trace", trace)
    assert code == EXIT_OK
    assert out == ""
    assert "verdicts: 0" in err


def test_check_agrees_on_the_running_example(tmp_path):
    import random
    rng = random.Random(3)
    trace = write_trace_file(
        tmp_path / "t.csv", 4,
        [[rng.randint(0, 1) for _ in range(4)] for _ in range(40)],
    )
    code, _, err = run_cli(
        "check", "--formula", "F[0,1] !ap1 | F[1,4] ap2", *FIG_ARGS, "--trace", trace
    )
    assert code == EXIT_OK
    assert "mismatches: 0" in err


def test_check_constant_formula(tmp_path):
    trace = write_trace_file(tmp_path / "t.csv", 4, [[0, 0, 0, 0]] * 5)
    code, _, err = run_cli("check", "--formula", "true | ap0", *FIG_ARGS, "--trace", trace)
    assert code == EXIT_OK
    assert "constant formula: verdict always 1" in err


def test_check_forced_head_fails(tmp_path):
    rows = []
    pattern = [1, 1, 0]
    for t in range(24):
        rows.append([0, pattern[t % 3], 0, 0])
    trace = write_trace_file(tmp_path / "t.csv", 4, rows)
    code, out, _ = run_cli(
        "check", "--formula", "F[0,1] !ap1 | F[1,4] ap2", *FIG_ARGS,
        "--trace", trace, "--force-head", "2=2",
    )
    assert code == EXIT_MISMATCH
    assert out.splitlines()[0].startswith("mismatch at time 0:")


@pytest.mark.parametrize("entry", ["abc", "2", "2=x", "=3"])
def test_check_rejects_a_malformed_force_head(tmp_path, entry):
    trace = write_trace_file(tmp_path / "t.csv", 4, [[0, 0, 0, 0]])
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        main(["check", "--formula", "!ap0", *FIG_ARGS, "--trace", trace,
              "--force-head", entry])
    assert exit_.value.code == EXIT_PARSE
    assert "error: argument --force-head: " in err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command", ["compile", "check"])
def test_an_ap_the_fabric_lacks_is_an_allocation_error(tmp_path, command):
    # Constant folding drops ap5 from the last two; it must still be on the fabric.
    trace = write_trace_file(tmp_path / "t.csv", 4, [[0, 0, 0, 0]])
    where = ["-o", str(tmp_path / "p.bit")] if command == "compile" else ["--trace", trace]
    for formula in ("ap5 & ap0", "true | ap5", "(true | ap5) & ap0"):
        code, out, err = run_cli(command, "--formula", formula, *FIG_ARGS, *where)
        assert code == EXIT_ALLOC, formula
        assert out == ""
        assert err == "allocation error: ap5 out of range for n_ap=4\n"
        assert not (tmp_path / "p.bit").exists()


@pytest.mark.parametrize("text,code", [
    ("!" * F.MAX_NESTING + "ap0", EXIT_OK),
    ("!" * (F.MAX_NESTING + 1) + "ap0", EXIT_PARSE),
    ("(" * F.MAX_NESTING + "ap0" + ")" * F.MAX_NESTING, EXIT_OK),
    ("(" * (F.MAX_NESTING + 1) + "ap0" + ")" * (F.MAX_NESTING + 1), EXIT_PARSE),
], ids=["operators-at", "operators-past", "parentheses-at", "parentheses-past"])
def test_compile_at_and_past_the_nesting_limit(tmp_path, text, code):
    got, _, err = run_cli("compile", "--formula", text, "--npe", "128", "--nq", "128",
                          "--nap", "4", "--qsz", "16", "-o", str(tmp_path / "p.bit"))
    assert got == code
    if code == EXIT_PARSE:
        assert err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag,value", [
    ("--count", "abc"), ("--count", "-1"), ("--max-depth", "-1"),
    ("--max-depth", str(F.MAX_NESTING + 1)), ("--max-t2", "-1"), ("--trace-len", "-5"),
])
def test_fuzz_rejects_bad_flag_values(flag, value):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        main(["fuzz", "--seed", "1", "--count", "1", flag, value])
    assert exit_.value.code == EXIT_PARSE
    assert f"error: argument {flag}: " in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_fuzz_is_deterministic():
    args = ("fuzz", "--seed", "1", "--count", "5", "--max-depth", "3", "--max-t2", "4")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second
    assert first[0] == EXIT_OK
    assert "passes: 5" in first[1]
