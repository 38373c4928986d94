"""Smoke test of the benchmark itself: every workload with a few tiny ops,
in both modes, plus the refusal to run without the package source.

    python3 -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=root,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_and_fails_nothing(workload: str, trace: int) -> None:
    done = run(HERE.parent, "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert {m["name"] for m in spec} <= printed
    if not trace:
        assert "metric failed_ops_ratio = 0 ratio" in lines
        assert all(m["value"] > 0 for m in result["metrics"].values())
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["seed"] == 1 and env["nproc"] >= 1 and env["numpy"] and env["python"]


def test_refuses_to_run_without_the_package(tmp_path: Path) -> None:
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, "--workload", "model-io", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
