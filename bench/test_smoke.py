"""Smoke test of the benchmark: every workload at the reduced 'smoke' size.

    python3 -m pytest bench/test_smoke.py

Checks that each run exits 0, that its outputs match the recorded smoke
references, and that it reports exactly the metrics BENCHMARK.json names,
each with its unit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "0.5",
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
# These run by hand but are not gated, so BENCHMARK.json omits them.
@pytest.mark.parametrize(
    "workload", [w["name"] for w in BENCH["workloads"]] +
    ["field-cli", "generate-cli", "regime-scan"])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "results",
                                                  "__pycache__"))
    proc = _run(tmp_path, "regime-scan", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
