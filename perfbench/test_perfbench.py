"""Smoke test of the benchmark: tiny sizes, every workload, both run modes.

Checks that every output check passes, that each run prints exactly the
metrics BENCHMARK.json declares, that the traced run splits the layers as the
workloads were designed to, that a wrong golden digest fails the run, and that
the benchmark fails without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_all(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke",
         "--seconds", "1", "--seed", "7", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_declared_metrics(trace, kind):
    results = _run_all(trace)
    assert set(results) == {w["name"] for w in BENCH["workloads"]}
    declared = {m["name"]: m["unit"] for m in BENCH[kind]}
    for result in results.values():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if trace:
        layer = {name: {k: m["value"] for k, m in r["metrics"].items()} for name, r in results.items()}
        assert layer["fuse-stream"]["autodiff.backward.calls"] == 0
        assert layer["corpus-build"]["autodiff.backward.calls"] == 0
        assert layer["corpus-build"]["autodiff.nodes_per_item"] == 0
        for frac in ("adapter.encode_text.repeat_frac", "ops.bilinear_interpolate.repeat_frac"):
            assert layer["train-oracle"][frac] >= 0.9
            assert layer["fuse-stream"][frac] == 0


def test_wrong_golden_digest_fails_the_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    golden = tmp_path / "perfbench" / "golden.json"
    digests = json.loads(golden.read_text())
    digests["all"] = "0" * 64
    golden.write_text(json.dumps(digests))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuse-stream", "--smoke",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1 and result["metrics"] == {}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuse-stream", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
