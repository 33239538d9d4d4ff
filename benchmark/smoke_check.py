"""Smoke test of the benchmark at a tiny run length.

    python3 -m pytest -q benchmark/smoke_check.py

Runs every workload for one second, untraced and traced, and checks that
each run exits 0, ends with the result line, emits exactly the metrics that
BENCHMARK.json names for its mode with their units, and reports no failed
operation. Also checks that the benchmark refuses to run without the
library's sources next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_passes_checks(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    if not trace:
        for name, m in result["metrics"].items():
            assert m["value"] > 0, name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
