"""Smoke test of the benchmark: every workload path on a 16^2, few-step
variant, traced and untraced, plus its refusal to run without sources.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "ternary-1d", "--seed", "0", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_entry_point_reads_zero():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import msflow.grid, msflow.flow, msflow.species, msflow.driver\n"
        "for m in (msflow.grid, msflow.flow, msflow.species, msflow.driver):\n"
        "    m.__dict__.pop('advection_matrix', None)\n"
        "from spans import Tracer, layer_metrics\n"
        "t = Tracer(); t.install()\n"
        "print(t.missing, layer_metrics(t.spans)"
        "['grid.advection_matrix.calls'])\n"
    ) % (HERE, os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['advection_matrix'] 0"
