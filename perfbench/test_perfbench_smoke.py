"""Smoke test of the repository benchmark (``perfbench/run.py --smoke``).

Runs every workload of ``BENCHMARK.json`` at its tiny smoke size, once
untraced and once traced, and checks that each run passes its output
checks, reports every metric ``BENCHMARK.json`` names with its unit, and
rewrites no repository file.  A copy of the benchmark without the
program sources must fail without printing a result.
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
#: Directories whose contents running the benchmark or the tests may change.
SCRATCH = {
    ".git", ".perfbench", ".bench_build", ".pytest_cache", ".hypothesis",
    ".benchmarks", "__pycache__",
}


def repository_files() -> dict:
    """``(mtime, size)`` of every repository file outside scratch dirs."""
    out = {}
    for path in ROOT.rglob("*"):
        rel = path.relative_to(ROOT)
        if path.is_file() and not SCRATCH.intersection(rel.parts):
            stat = path.stat()
            out[str(rel)] = (stat.st_mtime_ns, stat.st_size)
    return out


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric(workload):
    before = repository_files()
    for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = bench(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], proc.stdout
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in wanted
        }
        for name, metric in result["metrics"].items():
            assert math.isfinite(metric["value"]), name
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
    assert repository_files() == before


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
