"""The benchmark's output contract: `perfbench/run.py` ends each workload
with one JSON result line, and fails before printing it when a fresh
`import quadsieve.cli` exits non-zero or prints anything besides its
path (a module left out of a commit, output at import time).  A traced
run's result lines carry every per-layer metric, and each of its
isolation checks holds."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

needs_perfbench = pytest.mark.skipif(
    not (ROOT / "perfbench").is_dir(), reason="no perfbench/ here"
)


def _no_constant(name):
    raise ValueError(f"non-JSON constant {name} in a result line")


def _check_result_lines(trace: int) -> list[str]:
    """Run every workload once, check each result line and return the
    printed lines."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    results = [
        json.loads(line, parse_constant=_no_constant)
        for line in lines
        if line.startswith("{")
    ]
    assert len(results) == len(spec["workloads"]) == 4
    assert json.loads(lines[-1]) == results[-1]
    names = sorted(m["name"] for m in spec["per_layer" if trace else "end_to_end"])
    for result in results:
        assert result["correct"] is True and result["failed"] == 0, result
        assert sorted(result["metrics"]) == names, result
    return lines


@needs_perfbench
def test_benchmark_prints_one_result_line_per_workload():
    _check_result_lines(trace=0)


@needs_perfbench
def test_traced_benchmark_reports_every_layer_and_holds_its_isolation_checks():
    verdicts = [
        line.strip()
        for line in _check_result_lines(trace=1)
        if line.strip().startswith("isolation:")
    ]
    assert verdicts
    for line in verdicts:
        assert not line.endswith((": absent", ": NOT MET")), line
