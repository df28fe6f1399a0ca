"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from workloads import SWEEP, WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=175, check=False,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == {metric["name"]: metric["unit"] for metric in wanted}
    assert all(math.isfinite(metric["value"]) for metric in result["metrics"].values())


def _flip_second_digit(value: str) -> str:
    at = 1 if value[1].isdigit() else 2
    return value[:at] + str((int(value[at]) + 1) % 10) + value[at + 1:]


def _flip_capacity_digit(text: str, fmt: str) -> str:
    """Change the second significant digit of the first capacity value."""
    if fmt == "csv":
        lines = text.split("\n")
        cells = lines[1].split(",")
        column = lines[0].split(",").index("capacity_bit_s")
        cells[column] = _flip_second_digit(cells[column])
        lines[1] = ",".join(cells)
        return "\n".join(lines)
    key = '"capacity_bit_s": '
    start = text.index(key) + len(key)
    end = text.index(",", start)
    return text[:start] + _flip_second_digit(text[start:end]) + text[end:]


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_checker_counts_a_flipped_digit(fmt, tmp_path):
    from uwbcap import cli

    op = Workload(SWEEP, 5).sweep_spec(np.random.default_rng(5), "digital", fmt, 50)
    out = tmp_path / f"sweep.{fmt}"
    assert cli.main([*op["argv"], "--output", str(out)]) == 0
    good = out.read_text()
    assert checks.check(op, 0, good.encode()) == []
    flipped = _flip_capacity_digit(good, fmt)
    assert flipped != good
    assert checks.check(op, 0, flipped.encode()) != []


def test_same_seed_same_ops():
    for name in WORKLOADS:
        first, again, other = Workload(name, 7), Workload(name, 7), Workload(name, 8)
        ops = [first.op(i) for i in range(12)]
        assert ops == [again.op(i) for i in range(12)]
        assert ops != [other.op(i) for i in range(12)]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", SWEEP, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
