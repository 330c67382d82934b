"""Smoke test of the benchmark: every workload briefly, in both kinds of run.

    python3 -m pytest perfbench/test_smoke.py -q

It checks the correctness gate, that every metric BENCHMARK.json names is
reported with its unit, that outputs repeat exactly for a fixed seed, and
that the benchmark refuses to run where the library is missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, check=False)


def line(stdout: str, prefix: str) -> str:
    return next(ln for ln in stdout.splitlines() if ln.startswith(prefix))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_gate_holds_and_every_metric_is_reported(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert line(done.stdout, "failed_frac").split()[1] == "0.0"


def test_outputs_repeat_exactly_for_a_fixed_seed():
    first, second, traced = bench("fuzz", 0), bench("fuzz", 0), bench("fuzz", 1)
    digest = line(first.stdout, "digest")
    assert len(digest.split()[1]) == 64
    assert line(second.stdout, "digest") == digest == line(traced.stdout, "digest")
    assert (line(first.stdout, "sim_cycles_per_event")
            == line(second.stdout, "sim_cycles_per_event"))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("fuzz", 0, tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
