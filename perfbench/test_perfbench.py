"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench
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
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

COUNT_METRICS = ("counting.fallback_blocks_per_copy", "counting.coin_fallback_per_copy",
                 "counting.fallback_shapes", "counting.pool_arg_bytes")


def run_cli(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def test_workloads_are_the_declared_ones():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCH["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_emitted_metric_is_declared(name, trace):
    proc = run_cli("--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace),
                   "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", ["mc-cycle21", "exact7-mc8", "design-sample25", "dp-count16"])
def test_corrupted_output_is_counted_as_failed(name):
    result = run.run(name, 5, 0, False, size="tiny", corrupt=True)
    assert result["attempted"] >= 1 and result["failed"] == 1 and not result["correct"]


@pytest.mark.parametrize("name", ["mc-reg2-w2", "exact7-mc8"])
def test_count_metrics_repeat_at_one_seed(name):
    first = run.run(name, 9, 0, True, size="tiny")
    second = run.run(name, 9, 0, True, size="tiny")
    assert first["correct"] and second["correct"]
    for metric in COUNT_METRICS:
        assert first["metrics"][metric] == second["metrics"][metric], metric


def test_counts_see_the_kernel_fallbacks():
    metrics = run.run("mc-reg2-w2", 9, 0, True, size="tiny")["metrics"]
    assert metrics["counting.fallback_blocks_per_copy"]["value"] > 1
    assert metrics["counting.fallback_shapes"]["value"] > 1
    assert metrics["counting.pool_arg_bytes"]["value"] > 0


def test_fails_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", "mc-cycle21", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
