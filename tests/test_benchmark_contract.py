"""The benchmark's output contract: `perfbench/run.py` ends each workload
with one JSON result line, and fails before printing it when a fresh
`import quadsieve.cli` exits non-zero or prints anything besides its
path (a module left out of a commit, output at import time)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(not (ROOT / "perfbench").is_dir(), reason="no perfbench/ here")
def test_benchmark_prints_one_result_line_per_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seconds", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(spec["workloads"]) == 4
    assert json.loads(lines[-1]) == results[-1]
    names = sorted(m["name"] for m in spec["end_to_end"])
    for result in results:
        assert result["correct"] is True and result["failed"] == 0, result
        assert sorted(result["metrics"]) == names, result
