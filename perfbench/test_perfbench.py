"""Tests of the benchmark itself: tracing changes no result, the
first-hit inputs follow the seed, and the output checks accept the
reference answers and reject wrong ones.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import probe  # noqa: E402
import workloads as W  # noqa: E402
from quadsieve import cli, sieve  # noqa: E402
from quadsieve.core import make_params  # noqa: E402
from quadsieve.oracle import brute_sets  # noqa: E402


@contextlib.contextmanager
def traced():
    tracer = probe.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def sieve_result(c: int, j_max: int):
    # Looked up through the module at call time, as quadsieve's callers do.
    out = sieve.run_sieve(
        make_params(c), j_max, [j_max // 3, j_max], collect_records=True, verify=True
    )
    rows = [(cp.j, cp.p_count, cp.d_count) for cp in out.checkpoints]
    return out.p_set, out.d_set, rows, out.records


def cli_result(argv: list[str], csv_path: str | None = None):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    rows = W.count_rows(text) if argv[0] == "run" else text
    if csv_path is None:
        return code, rows
    with open(csv_path) as fh:
        return code, rows, fh.read()


@pytest.mark.parametrize("c", [1, 4, 61])
def test_tracing_changes_no_sieve_result(c):
    original = sieve.run_sieve
    plain = sieve_result(c, 3000)
    with traced() as tracer:
        assert sieve.run_sieve is not original
        wrapped = sieve_result(c, 3000)
    assert sieve.run_sieve is original
    assert wrapped == plain
    m = tracer.metrics()
    assert m["sieve.run_sieve.calls"] == 1
    assert m["sieve.register_prime.calls"] > 0
    assert 0 < m["sieve.live_slot_ratio"] <= 1
    assert m["sieve.head_s"] + m["sieve.progression_s"] <= m["sieve.run_sieve_s"]


@pytest.mark.parametrize("c", [1, 4, 61])
def test_tracing_changes_no_cli_output(c, tmp_path):
    csv_path = str(tmp_path / "f.csv")
    run = ["run", "--c", str(c), "--J", "2000", "--checkpoints", "500,2000",
           "--factorizations", csv_path, "--verify"]
    verify = ["verify", "--c", str(c), "--J", "300", "--verbose"]
    plain = cli_result(run, csv_path), cli_result(verify)
    with traced() as tracer:
        wrapped = cli_result(run, csv_path), cli_result(verify)
    assert wrapped == plain
    assert plain[0][1] and plain[0][1][-1][0] == 2000
    m = tracer.metrics()
    assert m["cli.main.calls"] == 2
    assert m["sieve.run_sieve.calls"] == 3  # run, then compare and --verbose
    assert m["cli.render_factors.calls"] == 2001 + 301
    assert m["oracle.trial_factor.calls"] > 0
    assert m["progressions.first_occurrence.calls"] == 0
    # Self times partition the top-level spans.
    layers = {name.split(".")[0] for name in tracer.names}
    assert sum(m[f"{layer}.self_s"] for layer in layers) == pytest.approx(m["cli.main_s"])


def test_tracer_reports_a_missing_hook_as_absent(monkeypatch):
    gone = (("sieve.gone", "quadsieve.sieve", "GoneState.method"),
            ("nowhere.f", "quadsieve.nowhere", "f"))
    monkeypatch.setattr(probe, "HOOKS", probe.HOOKS + gone)
    with traced() as tracer:
        sieve_result(1, 100)
    m = tracer.metrics()
    assert "sieve.gone.calls" not in m and "nowhere.self_s" not in m
    assert m["sieve.run_sieve.calls"] == 1


def test_first_hit_inputs_follow_the_seed():
    inputs = W.first_hit_inputs(7)
    assert inputs == W.first_hit_inputs(7)
    assert inputs != W.first_hit_inputs(8)
    assert len(inputs) == W.FIRST_HIT_PAIRS
    assert sum(W.has_root(c, q, e) for c, _, q, e in inputs) == W.FIRST_HIT_PAIRS // 2
    for c, a, q, e in inputs:
        assert 1 <= c <= W.FIRST_HIT_C_MAX
        lo, hi = W.FIRST_HIT_LOG10_A
        assert a == q**e and 10**lo <= a < 1.01 * 10**hi and W._is_prime(q)


def test_smallest_root_matches_brute_force():
    for q in (3, 5, 7, 11, 13):
        for e in (1, 2):
            a = q**e
            for c in range(1, 3 * a):
                r = 1 - c % 2
                first = next((x for x in range(r, a + 1, 2) if (x * x + c) % a == 0), None)
                assert W.smallest_root(c, q, e) == first
                assert W.has_root(c, q, e) == (first is not None)


def test_first_hit_check_accepts_library_results_and_rejects_wrong_ones():
    pairs = [(c, q**e, q, e) for q in (3, 5, 7, 13) for e in (1, 2) for c in range(1, 60)]
    results = probe.first_hit([(c, a) for c, a, _, _ in pairs])["results"]
    assert all(W.hit_ok(*p, r) for p, r in zip(pairs, results))
    hits = [(p, r) for p, r in zip(pairs, results) if r is not None]
    assert hits and len(hits) < len(pairs)
    for p, r in hits:
        assert not W.hit_ok(*p, None)
        assert not W.hit_ok(*p, dict(r, x0=r["x0"] + 2 * p[1]))
        assert not W.hit_ok(*p, dict(r, terms=[(u + 1, z) for u, z in r["terms"]]))


def test_head_trial_family_matches_the_oracle():
    c, j_max = 80002, 2000
    out = sieve.run_sieve(make_params(c), j_max)
    assert (out.p_set, out.d_set) == brute_sets(make_params(c), j_max)


def test_row_checks_reject_wrong_counts(tmp_path):
    [step] = W.WORKLOADS["c1-progression"].steps(W.DEFAULT_SEED, str(tmp_path))
    good = f"{W.CSV_HEADER}\n50000,6655,2549,1.523\n"
    assert step.check(0, good) == 0
    assert step.check(1, good) == 1
    assert step.check(0, good.replace("2549", "2548")) == 1
    assert step.check(0, "") == 1
