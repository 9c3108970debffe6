"""Smoke test for the benchmark: each workload, including any that
BENCHMARK.json leaves out, shrunk with --tiny, runs in its own process,
checks out correct and emits every metric by name and unit."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Printed on every run; BENCHMARK.json gates the subset defined on every workload.
END_TO_END = ("setup_s", "cells_per_s", "pso_run_ms_p50", "pso_run_ms_tail",
              "ga_run_ms_p50", "ga_run_ms_tail", "oracle_ms_p50", "oracle_ms_tail",
              "pso_mean_fitness", "ga_mean_fitness", "pso_oracle_gap", "ga_oracle_gap",
              "failed_frac", "peak_rss_mb")


def run_benchmark(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    out = run_benchmark(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    *report, last = out.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    printed = [line.split()[0] for line in report if not line.startswith("#")]
    assert printed == (list(END_TO_END) if not trace else [m["name"] for m in section])


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_benchmark(tmp_path, "paper-n21", 0)
    assert out.returncode != 0
    assert out.stdout == ""
