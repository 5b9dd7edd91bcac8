"""Every workload runs end to end at a tiny size, traced and untraced, and prints what
``BENCHMARK.json`` declares; without the program the benchmark fails."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layer_metrics  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# train-wide runs by hand, outside the gated set (bench/README.md says why)
ALL_WORKLOADS = ["train-tla", "train-wide", "evaluate", "corpus"]


def _run(root, *args, timeout=170):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=timeout)


def test_spec_matches_the_metrics_the_benchmark_prints():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.E2E
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layer_metrics.METRICS
    assert WORKLOADS == ["train-tla", "evaluate", "corpus"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_workload_end_to_end_at_tiny_size(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
               "--trace", trace, "--tiny")
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert os.path.exists(os.path.join(BENCH, "out", f"trace-{workload}-s3.npz"))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = dict(os.environ, PYTHONPATH="")
    out = subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--workload",
                          "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode != 0
    assert "correct" not in out.stdout
