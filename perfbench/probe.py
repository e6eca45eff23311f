"""Child-process side of the quadsieve benchmark.

    python3 probe.py first-hit INPUTS.json   run the first-hit driver, print JSON
    python3 probe.py trace PLAN.json         run one pass in-process, traced

Both expect the package under test on PYTHONPATH.  The tracer wraps the
public functions of each quadsieve module wherever a caller looks them
up, keeps one span per call in memory, and writes per-layer totals to
the plan's report file once the pass is over.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout

from workloads import FAMILY_TERMS

# Span name, defining module, attribute (Class.method for a method).
# The span name's first part is the layer the call belongs to.
HOOKS = (
    ("cli.main", "quadsieve.cli", "main"),
    ("cli.render_factors", "quadsieve.cli", "render_factors"),
    ("sieve.run_sieve", "quadsieve.sieve", "run_sieve"),
    ("sieve.atkin_primes", "quadsieve.sieve", "atkin_primes"),
    ("sieve.register_prime", "quadsieve.sieve", "SieveState.register_prime"),
    ("core.is_prime", "quadsieve.core", "is_prime"),
    ("core.element_at", "quadsieve.core", "element_at"),
    ("oracle.compare", "quadsieve.oracle", "compare"),
    ("oracle.trial_factor", "quadsieve.oracle", "trial_factor"),
    ("progressions.first_occurrence", "quadsieve.progressions", "first_occurrence"),
    ("uz.terms", "quadsieve.uz", "UZPair.terms"),
)


class Tracer:
    """Spans of the calls into quadsieve's public functions.

    Spans live in flat arrays: the hook that opened each one, its parent
    span (-1 at top level), and its start and end.
    """

    def __init__(self):
        self.names: list[str] = []
        self._hook = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._sums: dict[str, float] = {}

    def install(self) -> None:
        """Wrap every hook target that exists; a missing one is skipped,
        and the metrics built on it are then absent."""
        for module in {module for _, module, _ in HOOKS}:
            try:
                importlib.import_module(module)
            except ModuleNotFoundError:
                pass
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "quadsieve" or name.startswith("quadsieve."))
        ]
        arounds = {
            "sieve.run_sieve": self._around_run_sieve,
            "sieve.register_prime": self._around_register_prime,
            "progressions.first_occurrence": self._around_first_occurrence,
        }
        for name, module, path in HOOKS:
            *outer, attr = path.split(".")
            owner = sys.modules.get(module)
            for part in outer:
                owner = getattr(owner, part, None)
            target = getattr(owner, attr, None)
            if not callable(target):
                continue
            around = arounds[name](target) if name in arounds else None
            wrapper = self._wrap(len(self.names), target, around)
            self.names.append(name)
            if outer:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped name back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, hook: int, fn, around):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self._hook)
            self._hook.append(hook)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._end.append(0.0)
            self._stack.append(span)
            self._start.append(time.perf_counter())
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(fn, args, kwargs)
            finally:
                self._end[span] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def _around_run_sieve(self, target):
        """Add checkpoints at the end of the head range, at J/2 and at J,
        read the phase times off them, and hand the caller only the
        checkpoints it asked for."""
        try:
            sig = inspect.signature(target)
        except (TypeError, ValueError):
            return None
        if not {"params", "j_max", "checkpoint_js"} <= sig.parameters.keys():
            return None
        for key in ("sieve.head_s", "sieve.progression_s", "sieve.scaling_ratio"):
            self._sums[key] = 0.0

        def around(fn, args, kwargs):
            call = sig.bind(*args, **kwargs)
            params, j_max = call.arguments["params"], call.arguments["j_max"]
            asked = call.arguments.get("checkpoint_js")
            asked = [j_max] if asked is None else list(asked)
            head, half = min(params.j_threshold, j_max), j_max // 2
            call.arguments["checkpoint_js"] = sorted({*asked, head, half, j_max})
            out = fn(*call.args, **call.kwargs)
            at = {cp.j: cp.elapsed_seconds for cp in out.checkpoints}
            self._sums["sieve.head_s"] += at[head]
            self._sums["sieve.progression_s"] += at[j_max] - at[head]
            if self._sums["sieve.scaling_ratio"] == 0 and at[half] > 0:
                self._sums["sieve.scaling_ratio"] = at[j_max] / at[half]
            keep = {int(j) for j in asked}
            return dataclasses.replace(
                out, checkpoints=[cp for cp in out.checkpoints if cp.j in keep]
            )

        return around

    def _around_register_prime(self, target):
        """Count the schedule slots each registration opens, and those
        whose first hit falls inside the run."""
        self._sums["sieve.schedule_slots"] = 0
        self._sums["sieve.live_slots"] = 0

        def around(fn, args, kwargs):
            rec = fn(*args, **kwargs)
            j_max = args[0].j_max
            self._sums["sieve.schedule_slots"] += len(rec.next_hits)
            self._sums["sieve.live_slots"] += sum(h <= j_max for h in rec.next_hits)
            return rec

        return around

    def _around_first_occurrence(self, target):
        self._sums["progressions.no_root"] = 0

        def around(fn, args, kwargs):
            hit = fn(*args, **kwargs)
            self._sums["progressions.no_root"] += hit is None
            return hit

        return around

    def metrics(self) -> dict[str, float]:
        """Per hook: calls and inclusive seconds; per layer: self seconds
        (span time minus the time of its direct child spans); and the
        phase times, slot counts and ratios the arounds collected."""
        n = len(self._hook)
        dur = [self._end[i] - self._start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self._parent[i] >= 0:
                child[self._parent[i]] += dur[i]
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}_s"] = 0.0
            out[f"{name.split('.')[0]}.self_s"] = 0.0
        for i in range(n):
            name = self.names[self._hook[i]]
            out[f"{name}.calls"] += 1
            out[f"{name}_s"] += dur[i]
            out[f"{name.split('.')[0]}.self_s"] += dur[i] - child[i]
        sums = dict(self._sums)
        live = sums.pop("sieve.live_slots", None)
        if live is not None:
            slots = sums["sieve.schedule_slots"]
            out["sieve.live_slot_ratio"] = live / slots if slots else 0.0
        no_root = sums.pop("progressions.no_root", None)
        if no_root is not None:
            calls = out["progressions.first_occurrence.calls"]
            out["progressions.no_root_ratio"] = no_root / calls if calls else 0.0
        out.update(sums)
        return out


def first_hit(pairs) -> dict:
    """For each (c, a): time first_occurrence, and on a hit evaluate the
    family pair through it at FAMILY_TERMS, as `uz-demo --which family`
    does."""
    from quadsieve import core, progressions, uz

    calls_ms, results = [], []
    for c, a in pairs:
        params = core.make_params(c)
        t0 = time.perf_counter()
        hit = progressions.first_occurrence(params, a)
        calls_ms.append((time.perf_counter() - t0) * 1e3)
        if hit is None:
            results.append(None)
            continue
        pair = uz.family_coeffs(params, hit, hit.j0, 0)
        results.append(
            {
                "x0": hit.x0,
                "j0": hit.j0,
                "b": hit.cofactor_b,
                "terms": [pair.terms(n) for n in FAMILY_TERMS],
            }
        )
    return {"calls_ms": calls_ms, "results": results}


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def trace(plan: dict) -> None:
    """Run the plan's steps in this process under the tracer, each with
    its output redirected to the step's file, then write the exit codes
    and metrics to the report file."""
    tracer = Tracer()
    tracer.install()
    import quadsieve.cli

    codes = []
    for step in plan["steps"]:
        with open(step["stdout"], "w") as out, open(step["stdout"] + ".err", "w") as err:
            with redirect_stdout(out), redirect_stderr(err):
                if step["kind"] == "cli":
                    codes.append(quadsieve.cli.main(step["args"]))
                else:
                    json.dump(first_hit(_load(step["args"][0])), out)
                    codes.append(0)
    with open(plan["report"], "w") as fh:
        json.dump({"exit_codes": codes, "metrics": tracer.metrics()}, fh)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("first-hit", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "first-hit":
        json.dump(first_hit(_load(argv[1])), sys.stdout)
    else:
        trace(_load(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
