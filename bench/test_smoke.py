"""The benchmark command at tiny sizes, so the harness cannot rot.

    python -m pytest bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_every_metric(trace):
    proc = _run(ROOT, "--smoke", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for r in result["workloads"].values():
        assert r["attempted"] >= 1
        assert {k: v["unit"] for k, v in r["metrics"].items()} == wanted
        assert all(math.isfinite(v["value"]) for v in r["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "desk_grid", "--seconds", "0", "--smoke")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
