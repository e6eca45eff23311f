"""Run quadsieve benchmark workloads and print their metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 every workload, untraced

Run it from the root of a source checkout.  The program under test is
the quadsieve package in ./src, started in child processes with
PYTHONPATH=src; metric names and units come from ./BENCHMARK.json.
Passes repeat until --seconds have gone by (at least MIN_PASSES).  With
--trace 1 one traced pass follows them, run in-process by probe.py.

Each workload prints a report, then as the last line of standard output
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics untraced, the per-layer metrics traced.  The
exit code is 0 only when every output matched its reference.

Only the benchmark's own children are measured: wall time around each,
and CPU time and peak RSS from the child's rusage via os.wait4.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS, Step

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3
CHILD_TIMEOUT_S = 40.0


class Bench:
    """Child processes of one benchmark run, all started in the checkout
    root with the checkout's src first on the import path."""

    def __init__(self, root: str, scratch: str):
        self.root = root
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def child(self, argv: list[str], stdout_path: str):
        """Run argv to completion; return (exit code, wall s, rusage)."""
        with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                cwd=self.root, env=self.env,
            )
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def argv(self, step: Step) -> list[str]:
        if step.kind == "cli":
            return [sys.executable, "-m", "quadsieve", *step.args]
        return [sys.executable, os.path.join(HERE, "probe.py"), step.kind, *step.args]

    def check_origin(self) -> None:
        """Import quadsieve.cli once, untimed: this compiles the bytecode,
        as any earlier use would have, and shows the package comes from
        ./src and not from an installed copy."""
        out = os.path.join(self.scratch, "origin.out")
        code, _, _ = self.child(
            [sys.executable, "-c", "import quadsieve.cli; print(quadsieve.cli.__file__)"], out
        )
        origin = _read(out).strip()
        if code != 0 or not origin.startswith(os.path.join(self.root, "src") + os.sep):
            raise RuntimeError(f"quadsieve did not import from ./src (got {origin!r})")

    def setup_sample(self) -> float:
        """Wall time of a fresh process that imports quadsieve.cli."""
        out = os.path.join(self.scratch, "setup.out")
        return self.child([sys.executable, "-c", "import quadsieve.cli"], out)[1]

    def run_pass(self, steps: list[Step]) -> dict:
        """Run the steps back to back, then check their outputs."""
        outs = [os.path.join(self.scratch, f"step{i}.out") for i in range(len(steps))]
        t0 = time.perf_counter()
        runs = [self.child(self.argv(step), out) for step, out in zip(steps, outs)]
        wall = time.perf_counter() - t0
        texts = [_read(out) for out in outs]
        return {
            "wall_s": wall,
            "rss_mb": max(u.ru_maxrss for _, _, u in runs) / 1024,
            "cpu_s": sum(u.ru_utime + u.ru_stime for _, _, u in runs),
            "failed": sum(s.check(code, t) for s, (code, _, _), t in zip(steps, runs, texts)),
            "calls_ms": [ms for s, t in zip(steps, texts) if s.kind == "first-hit"
                         for ms in _calls_ms(t)],
        }

    def traced_pass(self, steps: list[Step]) -> tuple[dict, float, int]:
        """One pass in-process under the tracer; returns (layer metrics,
        wall s, failed operations)."""
        outs = [os.path.join(self.scratch, f"traced{i}.out") for i in range(len(steps))]
        report = os.path.join(self.scratch, "trace_report.json")
        plan = os.path.join(self.scratch, "trace_plan.json")
        with open(plan, "w") as fh:
            json.dump({"report": report, "steps": [
                {"kind": s.kind, "args": list(s.args), "stdout": o} for s, o in zip(steps, outs)
            ]}, fh)
        code, wall, _ = self.child(
            [sys.executable, os.path.join(HERE, "probe.py"), "trace", plan],
            os.path.join(self.scratch, "trace.out"),
        )
        if code != 0:
            return {}, wall, sum(s.ops for s in steps)
        with open(report) as fh:
            got = json.load(fh)
        failed = sum(
            s.check(c, _read(o)) for s, c, o in zip(steps, got["exit_codes"], outs)
        )
        return got["metrics"], wall, failed


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _calls_ms(first_hit_output: str) -> list[float]:
    try:
        return json.loads(first_hit_output)["calls_ms"]
    except (ValueError, KeyError, TypeError):
        return []


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, tuple[float, str, str]]:
    """Each end-to-end metric as (value, unit, how it was taken).

    Times are the shortest sample of the run.  On a shared machine other
    tenants slow passes down in episodes that last tens of seconds, which
    moves the median of a run's passes by up to a quarter; the shortest
    pass, which needs only one quiet moment in the run, moves far less.
    README.md gives the measurements.
    """
    walls = [p["wall_s"] for p in passes]
    out = {
        "wall_s": (min(walls), "s", f"shortest of {len(walls)} passes; "
                   f"median {statistics.median(walls):.4g} s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB",
                        f"median of {len(passes)} passes, max over each pass's children"),
        "setup_s": (min(setups), "s", f"shortest of {len(setups)} imports; "
                    f"median {statistics.median(setups):.4g} s"),
    }
    calls = [p["calls_ms"] for p in passes if p["calls_ms"]]
    if calls:
        for label, q in (("call_p50_ms", 50), ("call_p90_ms", 90)):
            out[label] = (statistics.median(_quantile(c, q) for c in calls), "ms",
                          f"median over {len(calls)} passes of {len(calls[0])} calls each")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 bench: Bench, spec: dict) -> bool:
    workload = WORKLOADS[name]
    steps = workload.steps(seed, bench.scratch)
    ops = sum(s.ops for s in steps)
    bench.check_origin()
    # One set-up sample before each pass, so that the set-up median and
    # the pass median come from the same stretch of machine time.
    setups, passes = [], []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        if not trace:
            setups.append(bench.setup_sample())
        passes.append(bench.run_pass(steps))
        if passes[-1]["failed"]:
            break
    attempted = ops * len(passes)
    failed = sum(p["failed"] for p in passes)
    wall = statistics.median(p["wall_s"] for p in passes)
    print(f"workload {name}: seed {seed}, {len(passes)} passes of {len(steps)} "
          f"step(s), closed loop, 1 client")

    if trace:
        values, traced_wall, traced_failed = bench.traced_pass(steps)
        attempted += ops
        failed += traced_failed
        values["proc.cpu_s"] = statistics.median(p["cpu_s"] for p in passes)
        values["trace.overhead_s"] = traced_wall - wall
        wanted = spec["per_layer"]
        print(f"  traced pass {traced_wall:.4f} s, untraced median {wall:.4f} s")
        for label, holds in workload.isolation:
            try:
                verdict = "ok" if holds(values) else "NOT MET"
            except KeyError:
                verdict = "absent"
            print(f"  isolation: {label}: {verdict}")
    else:
        taken = end_to_end(passes, setups)
        values = {label: value for label, (value, _, _) in taken.items()}
        wanted = spec["end_to_end"]
        for label, (value, unit, how) in taken.items():
            print(f"  {label:<36} {value:.6g} {unit}  ({how})")
    print(f"  {'error_rate':<36} {failed / attempted:.6g}  "
          f"({failed} of {attempted} operations failed)")

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"  {m['name']:<36} absent")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if trace:
            print(f"  {m['name']:<36} {values[m['name']]:.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(spec_path)
            and os.path.isfile(os.path.join(root, "src", "quadsieve", "__init__.py"))):
        print("error: run from the root of a quadsieve checkout "
              "(needs BENCHMARK.json and src/quadsieve)", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    scratch = os.path.join(root, ".perfbench_out", str(os.getpid()))
    os.makedirs(scratch)
    try:
        bench = Bench(root, scratch)
        ok = [run_workload(n, args.seed, seconds, bool(args.trace), bench, spec)
              for n in names]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
